#!/usr/bin/env python3
"""End-to-end benchmark of lbectl: prepare -> search -> FDR, and the daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --spread RUNS --workload NAME [--seed N]

Run from the repository root. The first run builds lbectl and the harness
from source into .bench_build/ (CARGO_TARGET_DIR overrides the name); inputs
and outputs go to .bench_work/. The last line of standard output is one JSON
object: correct, attempted, failed, metrics. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones from a separately traced run. --spread
repeats a workload on RUNS seeds from N (default 1) and prints each
end-to-end metric's median, quartiles and spread against its bound in
BENCHMARK.json.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

# Both workloads index the same proteome size (about 800k entries with
# decoys, as lbectl's synthetic --entries 400000) and run both paths, the
# one-shot search and a closed-loop daemon client. They differ in the
# precursor window, which is what moves the filtration layer, and in the
# number of ranks. One-shot searches run one thread per rank: a per-rank
# thread split puts the makespan at the mercy of the slowest of several
# vCPUs, so the traced run measures that split on its own
# (search.range_efficiency, RANGE_THREADS threads).
WORKLOADS = {
    # Fully open window: posting decode, the scorecard walk and scoring
    # carry the run; block pruning never fires. 4 ranks.
    "open-ptm": {"spectra": 3000, "ranks": 4, "window": None,
                 "ids_floor": 0.85},
    # +-5 Da: pruning skips most blocks, so fixed costs (map, plan rebuild,
    # MS2 parse, reports) and per-request costs weigh more. 2 ranks, which
    # leaves vCPUs free for the master and the daemon's client.
    "serve-narrow": {"spectra": 8000, "ranks": 2, "window": 5.0,
                     "ids_floor": 0.60},
}
TARGET_ENTRIES = 400_000
SETUPS = 3          # prepare (+ daemon start) repeats; setup_s is the median
ROUNDS = 3          # timed one-shot searches, each followed by a daemon slice
BATCH = 64          # spectra per daemon request: `lbectl query --batch` default
SERVE_WARMUP = 2    # untimed daemon batches before each slice's timed ones
SLICE_BATCHES = 10  # timed batches at least in each slice of a timed run
P90_BATCHES = 100   # timed batches of the traced run, so ten lie past its p90
FDR = 0.02
STAGE_QUERIES = 400
SERVE_SERVICE_BATCHES = 16
RANGE_THREADS = 2


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository's sources are not next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    with open(os.path.join(ROOT, ".bench_work", "build.log"), "a") as f:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=f, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", out, "-j4", "--target", "lbectl",
                        "harness"], stdout=f, stderr=subprocess.STDOUT,
                       check=True)
    return os.path.join(out, "lbe", "lbectl"), os.path.join(out, "harness")


def timed(cmd, log_path):
    """Runs to completion; returns (wall seconds, peak RSS in MiB of the
    process and every child it waited for, stdout text)."""
    with open(log_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} exited "
                         f"{proc.returncode}; see {log_path}")
    return wall, usage.ru_maxrss / 1024.0, out.decode()


class Daemon:
    """`lbectl serve` on a socket in `work`; always stopped and reaped. It
    runs at its default of one thread per batch: a per-batch thread split
    leaves the round trip at the mercy of the slowest of several vCPUs."""

    def __init__(self, lbectl, harness, work, bundle, wl):
        self.harness, self.work = harness, work
        self.cmd = [lbectl, "serve", "--plan", f"{bundle}/plan.lbe",
                    "--index", bundle, "--socket", "serve.sock",
                    "--open_window", window_arg(wl)]
        self.proc = None

    def start(self):
        """Starts it; returns seconds until the first ping is answered."""
        self.log = open(os.path.join(self.work, "serve.log"), "w")
        start = time.monotonic()
        self.proc = subprocess.Popen(self.cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT, cwd=self.work)
        ping = subprocess.run([self.harness, "ping", "--socket", "serve.sock",
                               "--timeout", "60"], cwd=self.work,
                              capture_output=True, text=True)
        if ping.returncode != 0:
            raise BenchError("daemon did not answer a ping")
        return float(ping.stdout) - start

    def stop(self):
        """SIGTERM and reap; returns the daemon's peak RSS in MiB."""
        if self.proc is None:
            return 0.0
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        if proc.returncode != 0:
            raise BenchError(f"daemon exited {proc.returncode}")
        return usage.ru_maxrss / 1024.0


def window_arg(wl):
    return "inf" if wl["window"] is None else str(wl["window"])


def search_cmd(lbectl, bundle, ms2, wl, out):
    return [lbectl, "search", "--plan", f"{bundle}/plan.lbe", "--index",
            bundle, "--queries", ms2, "--backend", "process", "--ranks",
            str(wl["ranks"]), "--threads", "1",
            "--open_window", window_arg(wl), "--fdr", str(FDR), "--out", out]


def accepted_from_stdout(text):
    for line in text.splitlines():
        if line.startswith("search: "):
            return int(line.split(", ")[1].split()[0])
    raise BenchError("lbectl search printed no summary line")


def serve_load(harness, work, ms2, wl, seconds, min_batches, rows):
    out = subprocess.run([harness, "serve-load", "--socket", "serve.sock",
                          "--ms2", ms2, "--batch", str(BATCH),
                          "--warmup", str(SERVE_WARMUP),
                          "--seconds", str(seconds),
                          "--min-batches", str(min_batches), "--rows", rows],
                         cwd=work, capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError(f"serve-load failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def make_inputs(work, wl, seed):
    fasta, ms2 = f"{work}/proteins.fasta", f"{work}/spectra.ms2"
    tryptic, spectra = gen.write_inputs(fasta, ms2, seed, TARGET_ENTRIES,
                                        wl["spectra"])
    return fasta, ms2, tryptic, spectra


def dir_mib(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path)
               if os.path.isfile(os.path.join(path, name))) / 2**20


def sync_dir(path):
    """Writes a directory's files back to disk now, untimed, instead of when
    the kernel's dirty-page timer fires in the middle of a timed phase."""
    for name in os.listdir(path):
        fd = os.open(os.path.join(path, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def run_end_to_end(lbectl, harness, work, wl, seed, seconds):
    fasta, ms2, tryptic, spectra = make_inputs(work, wl, seed)
    bundle = f"{work}/bundle"
    prepare = [lbectl, "prepare", "--db", fasta, "--ranks", str(wl["ranks"]),
               "--max_variants_per_peptide", str(gen.MAX_VARIANTS),
               "--out", bundle]
    daemon = Daemon(lbectl, harness, work, bundle, wl)
    attempted = 0
    try:
        setup = []
        for i in range(SETUPS):
            daemon.stop()
            shutil.rmtree(bundle, ignore_errors=True)
            attempted += 1
            prepare_s, _, _ = timed(prepare, f"{work}/prepare.log")
            setup.append(prepare_s + daemon.start())
            log(f"setup {i + 1}: {setup[-1]:.3f} s")
        sync_dir(bundle)
        index_mb = dir_mib(bundle)

        # ROUNDS x (one timed search, a slice of the daemon client): a slow
        # spell on the machine then lands in one sample of each kind instead
        # of a whole phase. The bundle was just written, so its pages and
        # lbectl's are already in memory for the first search.
        walls, rss, outputs = [], [], []
        latencies, elapsed, failed = [], 0.0, 0
        for i in range(ROUNDS):
            out = f"{work}/search{i + 1}"
            attempted += 1
            wall, peak, stdout = timed(search_cmd(lbectl, bundle, ms2, wl, out),
                                       f"{out}.log")
            walls.append(wall)
            rss.append(peak)
            outputs.append(out)
            load = serve_load(harness, work, ms2, wl, seconds / ROUNDS,
                              SLICE_BATCHES, f"{work}/daemon_psms{i}.tsv")
            if i == 0:
                first_pass = load["first_pass_queries"]
            log(f"round {i + 1}: search {wall:.3f} s, daemon p50 "
                f"{checks.percentile(load['latencies_ms'], 0.5):.2f} ms over "
                f"{len(load['latencies_ms'])} batches")
            latencies += load["latencies_ms"]
            elapsed += load["elapsed_s"]
            failed += load["failed"]
            attempted += SERVE_WARMUP + len(load["latencies_ms"])
        accepted = accepted_from_stdout(stdout)
    finally:
        daemon_rss = daemon.stop()

    # Checks, outside the timed region.
    first = outputs[0]
    for out in outputs[1:]:
        for name in ("psms.tsv", "fdr.csv"):
            if file_bytes(f"{out}/{name}") != file_bytes(f"{first}/{name}"):
                raise checks.CheckError(f"repeated search changed {name}")
    ids = checks.check_search_outputs(first, spectra, ms2, tryptic,
                                      wl["window"], FDR, accepted)
    if ids < wl["ids_floor"] * len(spectra):
        raise checks.CheckError(f"only {ids} of {len(spectra)} spectra have "
                                "the planted peptide as an accepted top PSM")
    checks.check_daemon_rows(f"{work}/daemon_psms0.tsv", f"{first}/psms.tsv",
                             first_pass)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "search_s": (statistics.median(walls), "s"),
        "ids_at_fdr": (ids, "count"),
        "peak_rss_mb": (max(statistics.median(rss), daemon_rss), "MiB"),
        "index_mb": (index_mb, "MiB"),
        "serve_batch_p50_ms": (checks.percentile(latencies, 0.5), "ms"),
        "serve_qps": (BATCH * len(latencies) / elapsed, "spectra/s"),
    }
    return attempted, failed, metrics


def run_traced(lbectl, harness, work, wl, seed):
    fasta, ms2, tryptic, spectra = make_inputs(work, wl, seed)
    bundle = f"{work}/traced"
    os.makedirs(bundle, exist_ok=True)
    chrome = f"{work}/trace.json"
    _, _, stdout = timed([harness, "trace", "--fasta", fasta, "--ms2", ms2,
                          "--dir", bundle, "--ranks", str(wl["ranks"]),
                          "--threads", "1", "--range-threads",
                          str(RANGE_THREADS), "--window", window_arg(wl),
                          "--stage-queries", str(STAGE_QUERIES),
                          "--serve-batches", str(SERVE_SERVICE_BATCHES),
                          "--batch", str(BATCH), "--chrome", chrome],
                         f"{work}/trace.log")
    log(f"trace written to {chrome}")
    layer = json.loads(stdout)
    if layer.pop("check.baseline_mismatches") != 0:
        raise checks.CheckError("distributed results differ from the "
                                "shared-memory engine")

    # The same search untraced, through the binary, on the traced run's
    # bundle: its outputs must equal the in-process ones and pass the checks.
    out = f"{work}/untraced"
    _, _, text = timed(search_cmd(lbectl, bundle, ms2, wl, out), f"{out}.log")
    if file_bytes(f"{out}/psms.tsv") != file_bytes(f"{bundle}/out/psms.tsv"):
        raise checks.CheckError("traced and untraced psms.tsv differ")
    checks.check_search_outputs(out, spectra, ms2, tryptic, wl["window"], FDR,
                                accepted_from_stdout(text))

    daemon = Daemon(lbectl, harness, work, bundle, wl)
    try:
        layer["serve.ready_s"] = daemon.start()
        load = serve_load(harness, work, ms2, wl, 0, P90_BATCHES,
                          f"{work}/daemon_psms.tsv")
    finally:
        daemon.stop()
    checks.check_daemon_rows(f"{work}/daemon_psms.tsv", f"{out}/psms.tsv",
                             load["first_pass_queries"])
    layer["serve.batch_p90_ms"] = checks.percentile(load["latencies_ms"],
                                                     0.9)
    layer["serve.batches_rejected"] = load["batches_rejected"]

    metrics = {m["name"]: (layer[m["name"]], m["unit"])
               for m in benchmark_spec()["per_layer"]}
    return 2 + SERVE_WARMUP + len(load["latencies_ms"]), load["failed"], metrics


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(workload, runs, first_seed, seconds):
    """Repeats a workload on seeds first_seed.. and reports each end-to-end
    metric's median, quartiles and spread (IQR / median) against its bound."""
    values = {}
    for seed in range(first_seed, first_seed + runs):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, __file__, "--workload",
                               workload, "--seed", str(seed), "--seconds",
                               str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"seed {seed} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log(f"seed {seed} ({time.monotonic() - start:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    print(f"{'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'of bound':>8}")
    for metric in benchmark_spec()["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / median
        print(f"{metric['name']:<20} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{share:>7.3f} {metric['bound']:>6} "
              f"{share / metric['bound']:>8.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, metavar="RUNS")
    args = parser.parse_args()
    if args.spread:
        spread(args.workload, args.spread, args.seed, args.seconds)
        return 0

    work = os.path.join(ROOT, ".bench_work", args.workload)
    try:
        os.makedirs(os.path.dirname(work), exist_ok=True)
        lbectl, harness = build()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        wl = WORKLOADS[args.workload]
        if args.trace:
            attempted, failed, metrics = run_traced(lbectl, harness, work, wl,
                                                    args.seed)
        else:
            attempted, failed, metrics = run_end_to_end(
                lbectl, harness, work, wl, args.seed, args.seconds)
        correct = True
    except checks.CheckError as error:
        log(f"check failed: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    except (BenchError, OSError, subprocess.CalledProcessError,
            ValueError) as error:
        log(f"benchmark error: {error}")
        return 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
