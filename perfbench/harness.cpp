// perfbench harness: the benchmark's in-process side, linked against liblbe.
//
//   harness trace --fasta F --ms2 M --dir D --ranks R --threads T
//                 --range-threads P --window W --stage-queries N
//                 --serve-batches K --batch B --chrome FILE
//       Runs prepare -> search -> FDR -> report through the library's public
//       functions with a span around every call, writes the spans as a
//       Chrome trace-event file and prints the per-layer figures as one JSON
//       line. Leaves D/plan.lbe and the index bundle in D for lbectl.
//   harness serve-load --socket S --ms2 M --batch B --warmup W --seconds X
//                      --min-batches N --rows FILE
//       Closed-loop daemon client: one connection, fixed-size batches, each
//       sent after the previous reply; W untimed batches, then X seconds
//       and at least N batches.
//       Prints per-batch round trips (ms); writes the rows of the first pass
//       over the spectra to FILE in psms.tsv format.
//   harness ping --socket S --timeout X
//       Waits for a daemon to answer a ping; prints the steady-clock time
//       (CLOCK_MONOTONIC seconds) at which it did.
//
// Spans are recorded from here, around calls into each module; the program
// itself carries no timers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/options.hpp"
#include "app/pipeline.hpp"
#include "app/rank_programs.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "index/serialize.hpp"
#include "io/ms2.hpp"
#include "search/fdr.hpp"
#include "search/preprocess.hpp"
#include "search/query_engine.hpp"
#include "search/report.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "simmpi/process.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace lbe;

double seconds_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// In-memory span recorder. Spans nest through an explicit parent id; the
/// spans of one query carry its query id. Written out once, at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    long query = -1;
    int rank = -1;
  };

  int begin(std::string name, int parent = -1, long query = -1,
            int rank = -1) {
    spans_.push_back(Span{std::move(name), Clock::now(), {}, parent, query,
                          rank});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    return seconds(id);
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds on the
  /// steady clock, so spans recorded by other processes line up). Each span
  /// keeps its id, parent and query id in args; ranks get their own track.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw IoError("cannot write trace file " + path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = 1e6 * seconds_since_epoch(s.start);
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"query\":%ld}}%s\n",
                    s.name.c_str(), s.rank + 1, ts, dur, i, s.parent, s.query,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Median / p-quantile by nearest rank over a copy.
double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto i = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[i];
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw ConfigError("bad flag: " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw ConfigError("missing --" + key);
  return it->second;
}

app::AppOptions search_options(const std::map<std::string, std::string>& f) {
  const std::string dir = need(f, "dir");
  std::vector<std::string> args = {
      "lbectl", "search", "--db", need(f, "fasta"), "--queries",
      need(f, "ms2"), "--max_variants_per_peptide", "64", "--ranks",
      need(f, "ranks"), "--threads", need(f, "threads"), "--backend",
      "process", "--open_window", need(f, "window"), "--index", dir,
      "--out", dir + "/out"};
  std::vector<const char*> argv;
  for (const auto& a : args) argv.push_back(a.c_str());
  return app::options_from_config(
      app::parse_cli(static_cast<int>(argv.size()), argv.data()).config);
}

void print_json(const std::map<std::string, double>& values) {
  std::printf("{");
  bool first = true;
  for (const auto& [key, value] : values) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", key.c_str(), value);
    first = false;
  }
  std::printf("}\n");
}

int run_trace(const std::map<std::string, std::string>& flags) {
  const app::AppOptions opts = search_options(flags);
  const std::string dir = opts.index_dir;
  const std::size_t stage_queries = std::stoul(need(flags, "stage-queries"));
  const std::size_t serve_batches = std::stoul(need(flags, "serve-batches"));
  const std::size_t batch = std::stoul(need(flags, "batch"));
  Tracer tracer;
  std::map<std::string, double> m;

  int span = tracer.begin("io.read_ms2");
  app::QueryBundle queries;
  queries.spectra = io::read_ms2_file(opts.ms2_path).spectra;
  queries.origin = opts.ms2_path;
  m["io.read_ms2_s"] = tracer.end(span);

  span = tracer.begin("digest.build_database");
  const app::DatabaseBundle db = app::build_database(opts);
  m["digest.build_database_s"] = tracer.end(span);

  span = tracer.begin("core.plan");
  const app::PlanBundle plan = app::build_plan(db, opts);
  m["core.plan_s"] = tracer.end(span);

  {
    span = tracer.begin("index.build");
    const index::IndexBundle built = app::build_index_bundle(plan, db, opts);
    m["index.build_s"] = tracer.end(span);
    double packed = 0.0;
    double postings = 0.0;
    for (const auto& rank : built.per_rank) {
      packed += static_cast<double>(rank->packed_posting_bytes());
      postings += static_cast<double>(rank->num_postings());
    }
    m["index.bytes_per_posting"] = packed / postings;

    span = tracer.begin("index.save");
    index::save_index_bundle(dir, built);
    m["index.save_s"] = tracer.end(span);
    const int save_plan = tracer.begin("core.save_plan");
    app::save_plan_file(dir + "/plan.lbe", db, plan.plan->params());
    tracer.end(save_plan);
  }

  // What `search --plan` pays before planning: reading the plan file back.
  span = tracer.begin("core.load_plan");
  const app::DatabaseBundle reloaded = app::load_plan_file(dir + "/plan.lbe");
  tracer.end(span);
  LBE_CHECK(reloaded.peptides == db.peptides, "plan file round trip differs");

  span = tracer.begin("index.map");
  const std::unique_ptr<index::IndexBundle> warm =
      app::try_load_warm_indexes(dir, plan, db, opts);
  m["index.map_s"] = tracer.end(span);
  LBE_CHECK(warm != nullptr, "freshly saved bundle was rejected");

  const int ranks = warm->ranks();
  const chem::ModificationSet& mods = plan.plan->mods();
  std::vector<std::unique_ptr<search::QueryEngine>> engines;
  for (int r = 0; r < ranks; ++r) {
    engines.push_back(std::make_unique<search::QueryEngine>(
        *warm->per_rank[static_cast<std::size_t>(r)], mods,
        opts.search.search));
  }
  const search::SearchParams& params = engines.front()->params();
  // One arena per rank, as each rank process has: an arena resizes (and
  // zeroes) its scorecard whenever the index size changes.
  std::vector<index::QueryArena> arenas(static_cast<std::size_t>(ranks));
  std::vector<index::Candidate> candidates;

  // First query per rank on the fresh mapping: chunk materialization.
  double first_query = 0.0;
  const chem::Spectrum first =
      search::preprocess(queries.spectra.front(), params.preprocess);
  for (int r = 0; r < ranks; ++r) {
    index::QueryWork work;
    candidates.clear();
    span = tracer.begin("index.first_query", -1, 0, r);
    warm->per_rank[static_cast<std::size_t>(r)]->query(
        first, params.filter, candidates, work,
        arenas[static_cast<std::size_t>(r)]);
    first_query += tracer.end(span);
  }
  m["index.first_query_ms"] = 1e3 * first_query / ranks;

  // Per-query stages on every rank over the first `stage_queries` spectra.
  // The filter runs first as the pipeline meets it, on postings no earlier
  // query touched, then warm, alternating with preprocessing and the
  // engine's whole search. Scoring/top-k is what the warm engine spends
  // beyond preprocessing and the warm filter.
  const std::size_t n = std::min(stage_queries, queries.spectra.size() / 5);
  std::vector<double> filter_us, filter_warm_us, preprocess_us, score_us;
  index::QueryWork filter_work;
  double filter_candidates = 0.0;
  for (std::size_t q = 0; q < n; ++q) {
    const chem::Spectrum& raw = queries.spectra[q];
    const long qid = static_cast<long>(q);
    for (int r = 0; r < ranks; ++r) {
      const index::ChunkedIndex& rank_index =
          *warm->per_rank[static_cast<std::size_t>(r)];
      index::QueryArena& arena = arenas[static_cast<std::size_t>(r)];
      const int parent = tracer.begin("search.query", -1, qid, r);
      const int pre_span = tracer.begin("search.preprocess", parent, qid, r);
      const chem::Spectrum pre = search::preprocess(raw, params.preprocess);
      const double pre_s = tracer.end(pre_span);

      candidates.clear();
      int filter_span = tracer.begin("index.filter", parent, qid, r);
      rank_index.query(pre, params.filter, candidates, filter_work, arena);
      filter_us.push_back(1e6 * tracer.end(filter_span));
      filter_candidates += static_cast<double>(candidates.size());

      // Warm figures are the fastest of alternating calls, so neither call
      // finds the other's work in cache more often; the three terms of the
      // scoring subtraction are each taken that way.
      double pre_warm_s = 1e9;
      double filter_warm_s = 1e9;
      double engine_s = 1e9;
      for (int rep = 0; rep < 2; ++rep) {
        const int again = tracer.begin("search.preprocess", parent, qid, r);
        search::preprocess(raw, params.preprocess);
        pre_warm_s = std::min(pre_warm_s, tracer.end(again));

        index::QueryWork unused;
        candidates.clear();
        filter_span = tracer.begin("index.filter_warm", parent, qid, r);
        rank_index.query(pre, params.filter, candidates, unused, arena);
        filter_warm_s = std::min(filter_warm_s, tracer.end(filter_span));

        const int whole = tracer.begin("search.engine", parent, qid, r);
        engines[static_cast<std::size_t>(r)]->search(
            raw, static_cast<std::uint32_t>(q), unused, arena);
        engine_s = std::min(engine_s, tracer.end(whole));
      }
      tracer.end(parent);

      filter_warm_us.push_back(1e6 * filter_warm_s);
      const double pre_best_s = std::min(pre_s, pre_warm_s);
      preprocess_us.push_back(1e6 * pre_best_s);
      score_us.push_back(1e6 * (engine_s - pre_best_s - filter_warm_s));
    }
  }
  m["index.filter_warm_us.p50"] = quantile(filter_warm_us, 0.5);
  m["index.filter_us.p50"] = quantile(filter_us, 0.5);
  m["index.filter_us.p90"] = quantile(filter_us, 0.9);
  m["search.preprocess_us.p50"] = quantile(preprocess_us, 0.5);
  m["search.score_us.p50"] = quantile(score_us, 0.5);
  m["search.score_us.p90"] = quantile(score_us, 0.9);
  // Per query = summed over the ranks it ran on.
  const double nq = static_cast<double>(n);
  const double postings = static_cast<double>(filter_work.postings_touched);
  m["index.postings_per_query"] = postings / nq;
  m["index.blocks_pruned_per_query"] =
      static_cast<double>(filter_work.blocks_pruned) / nq;
  m["index.candidates_per_query"] = filter_candidates / nq;
  m["index.candidates_per_kposting"] = 1e3 * filter_candidates / postings;

  // Intra-rank split on rank 0 with `range-threads` threads: search_range
  // over four further blocks of fresh queries, threaded, serial, serial,
  // threaded, so that neither mode finds its postings in cache or gets the
  // better end of a drift in speed.
  {
    const std::size_t threads = std::stoul(need(flags, "range-threads"));
    LBE_CHECK(threads > 1, "--range-threads must be at least 2");
    ThreadPool pool(threads);
    std::vector<search::QueryResult> results(5 * n);
    index::QueryWork work;
    double serial = 0.0;
    double parallel = 0.0;
    for (std::size_t block = 1; block <= 4; ++block) {
      const bool threaded = block == 1 || block == 4;
      span = tracer.begin(threaded ? "search.range_threads"
                                   : "search.range_serial",
                          -1, -1, 0);
      engines.front()->search_range(queries.spectra, block * n,
                                    (block + 1) * n, results, work,
                                    threaded ? &pool : nullptr);
      (threaded ? parallel : serial) += tracer.end(span);
    }
    m["search.range_efficiency"] =
        serial / (static_cast<double>(threads) * parallel);
  }

  span = tracer.begin("search.pipeline");
  const app::SearchOutcome outcome =
      app::run_search_pipeline(plan, queries, opts, warm.get());
  m["search.pipeline_s"] = tracer.end(span);
  m["core.work_imbalance"] = outcome.work_stats.imbalance;
  double messages = 0.0;
  double bytes = 0.0;
  for (const auto& comm : outcome.comm) {
    messages += static_cast<double>(comm.messages_sent);
    bytes += static_cast<double>(comm.bytes_sent);
  }
  m["simmpi.messages"] = messages;
  m["simmpi.bytes"] = bytes;

  span = tracer.begin("search.fdr");
  const std::vector<double> qvalues =
      search::compute_qvalues(outcome.fdr_inputs);
  m["search.fdr_ms"] = 1e3 * tracer.end(span);
  LBE_CHECK(qvalues == outcome.qvalues, "q-values differ between calls");

  span = tracer.begin("search.report");
  app::write_reports(opts.out_dir, plan, outcome);
  m["search.report_s"] = tracer.end(span);

  // Distributed vs shared-memory engine on a prefix of the queries (the
  // baseline rebuilds the global index, so the prefix keeps this short).
  {
    app::QueryBundle prefix;
    prefix.spectra.assign(queries.spectra.begin(),
                          queries.spectra.begin() +
                              static_cast<std::ptrdiff_t>(n));
    span = tracer.begin("check.baseline");
    const app::SearchOutcome small =
        app::run_search_pipeline(plan, prefix, opts, warm.get());
    m["check.baseline_mismatches"] = static_cast<double>(
        app::compare_with_baseline(plan, prefix, opts, small));
    tracer.end(span);
  }

  // The daemon's batch search, in process and, like the daemon here, on one
  // thread: what serve::SearchService costs without frames, socket or queue.
  {
    app::AppOptions serve_opts = opts;
    serve_opts.fasta_path.clear();
    serve_opts.plan_path = dir + "/plan.lbe";
    span = tracer.begin("serve.load_context");
    serve::SearchService service(serve::load_serving_context(serve_opts));
    tracer.end(span);
    std::vector<double> service_ms;
    const std::size_t total = queries.spectra.size() / batch * batch;
    for (std::size_t b = 0; b < serve_batches; ++b) {
      const std::size_t lo = (b * batch) % total;
      const std::vector<chem::Spectrum> spectra(
          queries.spectra.begin() + static_cast<std::ptrdiff_t>(lo),
          queries.spectra.begin() + static_cast<std::ptrdiff_t>(lo + batch));
      span = tracer.begin("serve.service", -1, static_cast<long>(lo));
      const serve::SearchResponse response =
          service.search_batch(spectra, static_cast<std::uint32_t>(lo));
      service_ms.push_back(1e3 * tracer.end(span));
      LBE_CHECK(response.queries == batch, "service answered a short batch");
    }
    m["serve.service_ms.p50"] = quantile(service_ms, 0.5);
  }

  // What the spans cost: the spans recorded in this run times the cost of
  // one begin/end pair, measured here on a scratch recorder.
  {
    constexpr int kPairs = 100000;
    Tracer scratch;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      scratch.end(scratch.begin("search.preprocess", -1, i, 0));
    }
    const double pair_s =
        std::chrono::duration<double>(Clock::now() - start).count() / kPairs;
    m["trace.overhead_s"] = static_cast<double>(tracer.size()) * pair_s;
  }

  tracer.write_chrome(need(flags, "chrome"));
  print_json(m);
  return 0;
}

int run_serve_load(const std::map<std::string, std::string>& flags) {
  const std::vector<chem::Spectrum> spectra =
      io::read_ms2_file(need(flags, "ms2")).spectra;
  const std::size_t batch = std::stoul(need(flags, "batch"));
  const double budget = std::stod(need(flags, "seconds"));
  const std::size_t min_batches = std::stoul(need(flags, "min-batches"));
  const std::size_t warmup = std::stoul(need(flags, "warmup"));
  const std::size_t total = spectra.size() / batch * batch;
  LBE_CHECK(total > 0, "fewer spectra than one batch");

  serve::ServeClient client(need(flags, "socket"));
  if (!client.connect_wait(30.0)) throw IoError("daemon did not answer");

  // Batches are cut ahead of time so the loop times only the round trip.
  std::vector<serve::SearchRequest> requests;
  for (std::size_t lo = 0; lo < total; lo += batch) {
    serve::SearchRequest request;
    request.start_id = static_cast<std::uint32_t>(lo);
    request.spectra.assign(
        spectra.begin() + static_cast<std::ptrdiff_t>(lo),
        spectra.begin() + static_cast<std::ptrdiff_t>(lo + batch));
    requests.push_back(std::move(request));
  }

  // The first `warmup` batches are answered but not timed: they carry the
  // daemon's one-off lazy chunk materialization, which a long-lived daemon
  // does not pay per request.
  std::vector<double> latencies_ms;
  std::vector<search::ResolvedPsm> first_pass;
  std::size_t failed = 0;
  Clock::time_point start = Clock::now();
  for (std::size_t b = 0;
       b < warmup + min_batches ||
       std::chrono::duration<double>(Clock::now() - start).count() < budget;
       ++b) {
    const serve::SearchRequest& request = requests[b % requests.size()];
    const Clock::time_point sent = Clock::now();
    serve::ServeClient::Outcome outcome = client.search(request);
    if (b >= warmup) {
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent)
              .count());
    }
    if (b + 1 == warmup) start = Clock::now();
    if (outcome.status != serve::Status::kOk) {
      ++failed;
    } else if (b < requests.size()) {
      first_pass.insert(first_pass.end(), outcome.response.rows.begin(),
                        outcome.response.rows.end());
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const serve::StatsBody stats = client.stats();
  search::write_psm_rows_file(need(flags, "rows"), first_pass);

  const std::size_t first_pass_queries =
      std::min(warmup + latencies_ms.size(), requests.size()) * batch;
  std::printf("{\"batch\": %zu, \"elapsed_s\": %.6f, \"failed\": %zu, "
              "\"batches_rejected\": %llu, \"first_pass_queries\": %zu, "
              "\"latencies_ms\": [",
              batch, elapsed, failed,
              static_cast<unsigned long long>(stats.batches_rejected),
              first_pass_queries);
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", latencies_ms[i]);
  }
  std::printf("]}\n");
  return 0;
}

int run_ping(const std::map<std::string, std::string>& flags) {
  serve::ServeClient client(need(flags, "socket"));
  if (!client.connect_wait(std::stod(need(flags, "timeout")))) return 1;
  std::printf("%.6f\n", seconds_since_epoch(Clock::now()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process backend re-execs this binary for every worker rank.
  if (mpi::is_rank_worker(argc, argv)) {
    app::register_rank_programs();
    return mpi::rank_worker_main(argc, argv);
  }
  try {
    if (argc < 2) throw ConfigError("usage: harness trace|serve-load|ping");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (command == "trace") return run_trace(flags);
    if (command == "serve-load") return run_serve_load(flags);
    if (command == "ping") return run_ping(flags);
    throw ConfigError("unknown command: " + command);
  } catch (const Error& error) {
    std::fprintf(stderr, "harness: %s\n", error.what());
    return 2;
  }
}
