// lbebench — the benchmark driver: every registered suite runs through it.
//
//   lbebench --suite NAME [--filter SUBSTR] [--repeat N] [--out DIR]
//            [--baseline FILE --max-regress FRAC] [--no-json] [--list]
//
// `lbebench --help` lists the suite names, read from the registry.
//
// Runs the registered suite, prints each benchmark's figure/CSV output and
// shape checks, and writes DIR/BENCH_<suite>.json (schema-versioned; see
// src/perf/bench_report.hpp). With --baseline, exits 2 if any benchmark's
// median-derived "queries_per_sec" falls more than --max-regress below the
// baseline file — the CI perf-smoke gate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "app/rank_programs.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "index/posting_codec.hpp"
#include "perf/bench_registry.hpp"
#include "simmpi/process.hpp"

namespace {

constexpr const char* kAbout =
    "\n"
    "Runs a registered benchmark suite and writes BENCH_<suite>.json\n"
    "(schema v1: wall time min/median/stddev per benchmark, queries/sec,\n"
    "cPSMs/sec, Eq. 1 load imbalance, peak RSS, git/compiler provenance).\n"
    "With --baseline, exits 2 when median queries/sec regresses more than\n"
    "--max-regress (default 0.25) against the baseline file. --gate-lower\n"
    "additionally gates the named lower-is-better metrics (e.g.\n"
    "p50_latency_ms,p99_latency_ms of the serve suite), failing when one\n"
    "grows beyond baseline / (1 - --lower-max-regress) (default 0.5).\n";

std::string usage() {
  lbe::perf::register_all_benches();
  std::string suites;
  for (const std::string& suite :
       lbe::perf::BenchRegistry::instance().suites()) {
    suites += (suites.empty() ? "" : "|") + suite;
  }
  return "usage: lbebench [--suite " + suites +
         "]\n"
         "                [--list] [--filter SUBSTR] [--repeat N] [--out DIR]\n"
         "                [--baseline FILE] [--max-regress FRAC] [--no-json]\n"
         "                [--gate-lower METRIC[,METRIC...]]\n"
         "                [--lower-max-regress FRAC]\n"
         "                [--simd " +
         std::string(lbe::index::codec::kSimdLevelNames) + "]\n" + kAbout;
}

int list_benches() {
  lbe::perf::register_all_benches();
  std::printf("%-28s %-10s %s\n", "name", "suite", "description");
  for (const auto& bench : lbe::perf::BenchRegistry::instance().all()) {
    std::printf("%-28s %-10s %s\n", bench.name.c_str(), bench.suite.c_str(),
                bench.description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Process-backend benches re-exec this binary once per worker rank.
  if (lbe::mpi::is_rank_worker(argc, argv)) {
    lbe::app::register_rank_programs();
    return lbe::mpi::rank_worker_main(argc, argv);
  }
  lbe::log::set_level(lbe::log::Level::kWarn);
  lbe::perf::BenchRunOptions options;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lbebench: %s needs a value\n%s", arg.c_str(),
                     usage().c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--suite") {
      options.suite = value();
    } else if (arg == "--filter") {
      options.filter = value();
    } else if (arg == "--repeat") {
      options.repeat = std::atoi(value().c_str());
      if (options.repeat < 1) {
        std::fprintf(stderr, "lbebench: --repeat must be >= 1\n");
        return 1;
      }
    } else if (arg == "--out") {
      options.out_dir = value();
    } else if (arg == "--baseline") {
      options.baseline_path = value();
    } else if (arg == "--max-regress") {
      options.max_regress = std::atof(value().c_str());
      if (options.max_regress < 0.0 || options.max_regress >= 1.0) {
        std::fprintf(stderr, "lbebench: --max-regress must be in [0, 1)\n");
        return 1;
      }
    } else if (arg == "--gate-lower") {
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string metric =
            list.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        if (!metric.empty()) options.gate_lower.push_back(metric);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--lower-max-regress") {
      options.lower_max_regress = std::atof(value().c_str());
      if (options.lower_max_regress < 0.0 ||
          options.lower_max_regress >= 1.0) {
        std::fprintf(stderr,
                     "lbebench: --lower-max-regress must be in [0, 1)\n");
        return 1;
      }
    } else if (arg == "--simd") {
      namespace codec = lbe::index::codec;
      const std::string name = value();
      try {
        if (!codec::apply_simd_level(name)) {
          std::fprintf(stderr,
                       "lbebench: simd level '%s' is not supported by this "
                       "CPU; using '%s'\n",
                       name.c_str(),
                       codec::simd_level_name(codec::resolved_simd_level()));
        }
      } catch (const lbe::ConfigError& e) {
        std::fprintf(stderr, "lbebench: %s\n", e.what());
        return 1;
      }
    } else if (arg == "--no-json") {
      options.write_json = false;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return 0;
    } else {
      std::fprintf(stderr, "lbebench: unknown option %s\n%s", arg.c_str(),
                   usage().c_str());
      return 1;
    }
  }

  try {
    if (list) return list_benches();
    return lbe::perf::run_suite(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lbebench: %s\n", e.what());
    return 1;
  }
}
