"""Output checks and statistics, computed apart from the program.

Nothing here compares against a stored copy of earlier output: every check
is recomputed from the inputs the benchmark wrote (gen.py) and from the
program's own report files.
"""

import csv
import math

import gen


class CheckError(Exception):
    """An output of the program failed a check."""


def percentile(values, p):
    """Nearest-rank p-quantile. A tail quantile needs at least ten samples
    beyond it, so p90 needs 100 samples; fewer raises ValueError."""
    if not values:
        raise ValueError("no samples")
    if 0.5 < p and len(values) * (1.0 - p) < 10 - 1e-9:
        raise ValueError(f"p{round(100 * p)} needs {math.ceil(10 / (1 - p))} "
                         f"samples, got {len(values)}")
    ordered = sorted(values)
    return ordered[int(p * (len(ordered) - 1) + 0.5)]


def read_psms(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f, delimiter="\t"))


def read_fdr(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def qvalue_bounds(rows):
    """Target-decoy q-values (Elias & Gygi) recomputed from fdr.csv rows.

    Rows whose *printed* scores are equal form one tie group: the program
    orders them by their unprinted float scores, which this check cannot
    see. So each row gets an interval [lo, hi]. `hi` counts the whole tie
    group before taking the FDR (the program's q can only be lower); `lo`
    is the best order the group could have had. Outside mixed tie groups
    lo == hi and the recompute is exact.
    """
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(row["score"], []).append(i)
    ordered = sorted(groups, key=float, reverse=True)
    fdr_hi, fdr_lo = [], []
    targets = decoys = 0
    for key in ordered:
        members = groups[key]
        dg = sum(1 for i in members if rows[i]["is_decoy"] == "1")
        tg = len(members) - dg
        lo = (decoys / max(1, targets + tg) if tg
              else (decoys + 1) / max(1, targets))
        targets += tg
        decoys += dg
        fdr_hi.append(decoys / max(1, targets))
        fdr_lo.append(lo)
    q_lo, q_hi = [0.0] * len(rows), [0.0] * len(rows)
    run_hi = run_lo = math.inf
    for g in range(len(ordered) - 1, -1, -1):
        run_lo = min(run_lo, fdr_lo[g])
        run_hi = min(run_hi, fdr_hi[g])
        for i in groups[ordered[g]]:
            q_lo[i], q_hi[i] = run_lo, run_hi
    return q_lo, q_hi


def check_qvalues(rows, threshold, reported_accepted):
    """Every printed q lies in its recomputed interval, and the accepted
    target count equals the recompute's (exactly, unless a mixed tie group
    straddles the threshold, when it must lie between the two readings)."""
    q_lo, q_hi = qvalue_bounds(rows)
    for row, lo, hi in zip(rows, q_lo, q_hi):
        q = float(row["qvalue"])
        slack = 1e-5 * max(q, lo) + 1e-12  # %.6g printing
        if not lo - slack <= q <= hi + slack:
            raise CheckError(f"query {row['query_id']}: q {q} outside "
                             f"recomputed [{lo}, {hi}]")
    targets = [i for i, row in enumerate(rows) if row["is_decoy"] == "0"]
    least = sum(1 for i in targets if q_hi[i] <= threshold)
    most = sum(1 for i in targets if q_lo[i] <= threshold)
    printed = sum(1 for i in targets if float(rows[i]["qvalue"]) <= threshold)
    for label, count in (("fdr.csv", printed),
                         ("lbectl", reported_accepted)):
        if count is None:
            continue
        if not least <= count <= most:
            raise CheckError(f"{label} accepts {count} targets, recompute "
                             f"gives {least}..{most}")


def same_peptide(a, b):
    # I and L have the same mass: no search engine can tell them apart.
    return a.replace("I", "L") == b.replace("I", "L")


def check_search_outputs(out_dir, spectra, ms2_path, tryptic, window,
                         fdr_threshold, reported_accepted=None):
    """All one-shot output checks; returns ids_at_fdr (planted peptide as an
    accepted target top PSM)."""
    psms = read_psms(f"{out_dir}/psms.tsv")
    fdr_rows = read_fdr(f"{out_dir}/fdr.csv")
    precursors = gen.precursor_masses(ms2_path)
    if len(precursors) != len(spectra):
        raise CheckError("MS2 read back with a different spectrum count")
    check_psm_rows(psms, precursors, tryptic, window)
    check_qvalues(fdr_rows, fdr_threshold, reported_accepted)

    top = {int(r["query_id"]): r for r in psms if r["psm_rank"] == "1"}
    if [int(r["query_id"]) for r in fdr_rows] != sorted(top):
        raise CheckError("fdr.csv rows do not match the top PSMs")
    ids = 0
    for row in fdr_rows:
        best = top[int(row["query_id"])]
        if row["is_decoy"] != best["is_decoy"]:
            raise CheckError(f"query {row['query_id']}: decoy flag differs "
                             "between fdr.csv and psms.tsv")
        if abs(float(row["score"]) - float(best["score"])) > 1e-3:
            raise CheckError(f"query {row['query_id']}: score differs "
                             "between fdr.csv and psms.tsv")
        planted = spectra[int(row["query_id"])]["base"]
        if (row["is_decoy"] == "0" and float(row["qvalue"]) <= fdr_threshold
                and same_peptide(best["base_sequence"], planted)):
            ids += 1
    return ids


def check_psm_rows(psms, precursors, tryptic, window):
    """Per-row checks: window, recomputed mass, FASTA membership."""
    for row in psms:
        qid = int(row["query_id"])
        if not 0 <= qid < len(precursors):
            raise CheckError(f"query id {qid} out of range")
        sequence, sites = gen.parse_annotated(row["peptide"])
        if sequence != row["base_sequence"]:
            raise CheckError(f"query {qid}: {row['peptide']} is not a form "
                             f"of {row['base_sequence']}")
        for pos, name in sites:
            if name not in gen.MODS or sequence[pos] not in gen.MODS[name][1]:
                raise CheckError(f"query {qid}: {name} on {sequence[pos]}")
        mass = float(row["neutral_mass"])
        if abs(gen.peptide_mass(sequence, sites) - mass) > 2e-5:
            raise CheckError(f"query {qid}: {row['peptide']} has mass "
                             f"{gen.peptide_mass(sequence, sites):.5f}, "
                             f"report says {mass:.5f}")
        if window is not None and abs(mass - precursors[qid]) > window + 2e-5:
            raise CheckError(f"query {qid}: {mass:.5f} outside +-{window} Da "
                             f"of precursor {precursors[qid]:.5f}")
        in_fasta = sequence in tryptic
        if row["is_decoy"] == "0" and not in_fasta:
            raise CheckError(f"query {qid}: target {sequence} is not a "
                             "tryptic peptide of the FASTA")
        if row["is_decoy"] == "1" and in_fasta:
            raise CheckError(f"query {qid}: decoy {sequence} is a target "
                             "peptide of the FASTA")


def check_daemon_rows(daemon_path, oneshot_path, num_queries):
    """The daemon's psms.tsv equals the one-shot lines of its queries
    (ids below `num_queries`), byte for byte."""
    with open(daemon_path) as f:
        daemon = f.read().splitlines()
    with open(oneshot_path) as f:
        oneshot = f.read().splitlines()
    expected = [oneshot[0]] + [line for line in oneshot[1:]
                               if int(line.split("\t", 1)[0]) < num_queries]
    if daemon != expected:
        raise CheckError("daemon psms.tsv differs from one-shot search")
