// End-to-end daemon behaviour over a real Unix socket: one-shot
// equivalence, bounded-queue admission control, malformed/oversized frame
// handling, mid-batch disconnects, and the SIGHUP hot-swap path.
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/pipeline.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "search/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace lbe::serve {
namespace {

constexpr std::size_t kBatch = 4;

std::string test_socket(const char* tag) {
  return "/tmp/lbe_serve_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

app::AppOptions test_options(const char* tag) {
  app::AppOptions opts = app::options_from_config(Config{});
  opts.target_entries = 4000;
  opts.num_queries = 16;
  opts.lbe.partition.ranks = 3;
  opts.socket_path = test_socket(tag);
  opts.write_report = false;
  return opts;
}

/// One daemon + workload shared by the read-only tests in this file.
struct ServerEnv {
  app::AppOptions opts;
  std::shared_ptr<ServingContext> context;
  std::unique_ptr<Server> server;
  std::vector<chem::Spectrum> spectra;
};

ServerEnv& env() {
  static ServerEnv e = [] {
    ServerEnv out;
    out.opts = test_options("shared");
    out.context = build_serving_context_in_memory(out.opts);
    out.spectra = app::prepare_inputs(out.opts).queries.spectra;
    ServerConfig config;
    config.socket_path = out.opts.socket_path;
    out.server = std::make_unique<Server>(config, out.context);
    out.server->start();
    return out;
  }();
  return e;
}

ServeClient connected_client(const std::string& socket_path) {
  ServeClient client(socket_path);
  EXPECT_TRUE(client.connect_wait(10.0)) << "daemon did not come up";
  return client;
}

std::vector<search::ResolvedPsm> query_all(ServeClient& client,
                                           const ServerEnv& e) {
  std::vector<search::ResolvedPsm> rows;
  for (std::size_t lo = 0; lo < e.spectra.size(); lo += kBatch) {
    const std::size_t hi = std::min(e.spectra.size(), lo + kBatch);
    SearchRequest request;
    request.start_id = static_cast<std::uint32_t>(lo);
    request.spectra.assign(e.spectra.begin() + lo, e.spectra.begin() + hi);
    const ServeClient::Outcome outcome = client.search(request);
    EXPECT_EQ(outcome.status, Status::kOk) << outcome.error;
    rows.insert(rows.end(), outcome.response.rows.begin(),
                outcome.response.rows.end());
  }
  return rows;
}

std::string rows_to_tsv(const std::vector<search::ResolvedPsm>& rows) {
  std::ostringstream out;
  search::write_psm_rows(out, rows);
  return out.str();
}

TEST(ServeServer, DaemonRowsMatchOneShotPipeline) {
  ServerEnv& e = env();
  ServeClient client = connected_client(e.opts.socket_path);
  const auto daemon_rows = query_all(client, e);

  app::QueryBundle bundle;
  bundle.spectra = e.spectra;
  bundle.origin = "<synthetic>";
  const app::SearchOutcome oneshot = app::run_search_pipeline(
      e.context->plan, bundle, e.opts, e.context->warm.get());
  const auto oneshot_rows =
      search::resolve_psms(*e.context->plan.plan, oneshot.report.results,
                           e.context->plan.decoy_bases);

  EXPECT_FALSE(daemon_rows.empty());
  EXPECT_EQ(rows_to_tsv(daemon_rows), rows_to_tsv(oneshot_rows));
}

// The service keeps scorecard arenas across batches. Reused arenas —
// serially, from concurrent batches, with and without a worker pool, and
// across a hot swap — must not change a single row.
TEST(ServeService, RepeatedAndConcurrentBatchesMatchOneShot) {
  ServerEnv& e = env();
  app::QueryBundle bundle;
  bundle.spectra = e.spectra;
  bundle.origin = "<synthetic>";
  const app::SearchOutcome oneshot = app::run_search_pipeline(
      e.context->plan, bundle, e.opts, e.context->warm.get());
  const std::string expected = rows_to_tsv(
      search::resolve_psms(*e.context->plan.plan, oneshot.report.results,
                           e.context->plan.decoy_bases));

  SearchService service(e.context);
  const auto pass = [&](ThreadPool* pool) {
    std::vector<search::ResolvedPsm> rows;
    for (std::size_t lo = 0; lo < e.spectra.size(); lo += kBatch) {
      const std::size_t hi = std::min(e.spectra.size(), lo + kBatch);
      const std::vector<chem::Spectrum> spectra(e.spectra.begin() + lo,
                                                e.spectra.begin() + hi);
      const SearchResponse response = service.search_batch(
          spectra, static_cast<std::uint32_t>(lo), pool);
      rows.insert(rows.end(), response.rows.begin(), response.rows.end());
    }
    return rows_to_tsv(rows);
  };
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(pass(nullptr), expected) << "serial pass " << repeat;
  }

  constexpr int kClients = 4;
  std::array<std::string, kClients> results;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ThreadPool pool(2);
      std::string out;
      for (int repeat = 0; repeat < 3; ++repeat) {
        const std::string rows = pass(c % 2 == 0 ? nullptr : &pool);
        if (rows != expected) out = rows;
        // A hot swap mid-stream: batches in flight finish on their
        // generation's arenas, later ones start fresh.
        if (c == 0 && repeat == 0) service.replace(e.context);
      }
      results[static_cast<std::size_t>(c)] = out;
    });
  }
  for (auto& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], "")
        << "client " << c << " diverged from one-shot";
  }
}

TEST(ServeServer, PingReportsTheServingShape) {
  ServerEnv& e = env();
  ServeClient client = connected_client(e.opts.socket_path);
  const PongInfo pong = client.ping();
  EXPECT_EQ(pong.protocol_version, kProtocolVersion);
  EXPECT_EQ(pong.ranks, 3u);
  EXPECT_GE(pong.top_k, 1u);
  EXPECT_EQ(pong.queue_depth, e.server->config().queue_depth);
}

TEST(ServeServer, BoundedQueueRejectsWithTypedErrorAndRecovers) {
  // A paused single-slot server: the first batch fills the queue, the
  // second must bounce with kQueueFull — and succeed on retry once the
  // worker drains the queue.
  app::AppOptions opts = test_options("queue");
  auto context = build_serving_context_in_memory(opts);
  ServerConfig config;
  config.socket_path = opts.socket_path;
  config.queue_depth = 1;
  config.start_paused = true;
  Server server(config, context);
  server.start();
  const auto spectra = app::prepare_inputs(opts).queries.spectra;

  SearchRequest request;
  request.start_id = 0;
  request.spectra.assign(spectra.begin(), spectra.begin() + 2);

  ServeClient first = connected_client(opts.socket_path);
  first.send_search(request);
  // Wait until the handler thread has actually enqueued the batch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().queue_length == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.stats().queue_length, 1u);

  ServeClient second = connected_client(opts.socket_path);
  SearchRequest rejected = request;
  rejected.start_id = 2;
  const ServeClient::Outcome bounce = second.search(rejected);
  EXPECT_EQ(bounce.status, Status::kQueueFull);
  EXPECT_FALSE(bounce.error.empty());
  EXPECT_GE(server.stats().batches_rejected, 1u);

  server.resume_workers();
  const ServeClient::Outcome drained = first.read_search_result();
  EXPECT_EQ(drained.status, Status::kOk) << drained.error;
  EXPECT_EQ(drained.response.start_id, 0u);

  // The rejected connection was kept open: a plain retry goes through.
  for (;;) {
    const ServeClient::Outcome retry = second.search(rejected);
    if (retry.status == Status::kQueueFull) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    EXPECT_EQ(retry.status, Status::kOk) << retry.error;
    EXPECT_EQ(retry.response.start_id, 2u);
    break;
  }
  server.stop();
}

TEST(ServeServer, GarbageFrameGetsTypedMalformedReply) {
  ServerEnv& e = env();
  Fd fd = connect_unix(e.opts.socket_path);
  std::array<std::uint8_t, kFrameHeaderBytes> junk;
  junk.fill(0x5A);
  write_all(fd.get(), junk.data(), junk.size());

  Frame reply;
  ASSERT_TRUE(read_frame(fd.get(), reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorBody error = decode_error(reply.payload);
  EXPECT_EQ(error.status, Status::kMalformed);
  // After the typed reply the server drops the peer: clean EOF.
  EXPECT_FALSE(read_frame(fd.get(), reply));
  EXPECT_GE(e.server->stats().malformed_frames, 1u);
}

TEST(ServeServer, OversizedFrameGetsTooLargeReply) {
  ServerEnv& e = env();
  Fd fd = connect_unix(e.opts.socket_path);
  const auto header = encode_frame_header(
      MsgType::kSearchRequest, e.server->config().max_frame_bytes + 1);
  write_all(fd.get(), header.data(), header.size());

  Frame reply;
  ASSERT_TRUE(read_frame(fd.get(), reply));
  ASSERT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(decode_error(reply.payload).status, Status::kTooLarge);
  EXPECT_FALSE(read_frame(fd.get(), reply));
}

TEST(ServeServer, MidBatchDisconnectLeavesServerServing) {
  ServerEnv& e = env();
  {
    Fd fd = connect_unix(e.opts.socket_path);
    SearchRequest request;
    request.spectra = {e.spectra.front()};
    const mpi::Bytes payload = encode_search_request(request);
    const auto header =
        encode_frame_header(MsgType::kSearchRequest, payload.size());
    write_all(fd.get(), header.data(), header.size());
    write_all(fd.get(), payload.data(), payload.size() / 2);
    // fd closes here: the peer vanished mid-batch.
  }
  ServeClient client = connected_client(e.opts.socket_path);
  EXPECT_EQ(client.ping().ranks, 3u);
  SearchRequest request;
  request.start_id = 0;
  request.spectra = {e.spectra.front()};
  EXPECT_EQ(client.search(request).status, Status::kOk);
}

TEST(ServeServer, HotSwapKeepsAnswersIdenticalAndCountsReloads) {
  ServerEnv& e = env();
  ServeClient client = connected_client(e.opts.socket_path);
  const std::string before = rows_to_tsv(query_all(client, e));
  const std::uint64_t reloads_before = e.server->stats().reloads;

  e.server->hot_swap(build_serving_context_in_memory(e.opts));

  const std::string after = rows_to_tsv(query_all(client, e));
  EXPECT_EQ(before, after);
  EXPECT_EQ(e.server->stats().reloads, reloads_before + 1);
}

TEST(ServeServer, StatsFrameTracksServedWork) {
  ServerEnv& e = env();
  ServeClient client = connected_client(e.opts.socket_path);
  SearchRequest request;
  request.start_id = 0;
  request.spectra = {e.spectra.front()};
  ASSERT_EQ(client.search(request).status, Status::kOk);

  const StatsBody stats = client.stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.batches_served, 1u);
  EXPECT_GE(stats.queries_served, 1u);
  EXPECT_EQ(stats.ranks, 3u);
  EXPECT_EQ(stats.queue_depth, e.server->config().queue_depth);
  EXPECT_EQ(stats.workers, e.server->config().workers);
}

TEST(ServeServer, ShutdownRequestSetsTheFlagAndAcks) {
  app::AppOptions opts = test_options("shutdown");
  auto context = build_serving_context_in_memory(opts);
  ServerConfig config;
  config.socket_path = opts.socket_path;
  Server server(config, context);
  server.start();

  ServeClient client = connected_client(opts.socket_path);
  EXPECT_FALSE(server.shutdown_requested());
  client.shutdown_server();  // waits for the kShutdownResponse ack
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

}  // namespace
}  // namespace lbe::serve
