#include "simmpi/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

namespace lbe::mpi {
namespace {

ClusterOptions deterministic(int ranks, Engine engine = Engine::kVirtual) {
  ClusterOptions options;
  options.ranks = ranks;
  options.engine = engine;
  options.measured_time = false;  // clocks move only via charge()/cost model
  return options;
}

Bytes payload_of(std::uint64_t value) {
  Bytes bytes;
  ByteWriter writer(bytes);
  writer.pod(value);
  return bytes;
}

std::uint64_t value_of(const Bytes& bytes) {
  ByteReader reader(bytes);
  return reader.pod<std::uint64_t>();
}

class ClusterEngines : public ::testing::TestWithParam<Engine> {};

TEST_P(ClusterEngines, RunsEveryRankExactlyOnce) {
  Cluster cluster(deterministic(6, GetParam()));
  std::vector<std::atomic<int>> hits(6);
  cluster.run([&](Comm& comm) { hits[static_cast<std::size_t>(comm.rank())]
                                    .fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ClusterEngines, RankAndSizeCorrect) {
  Cluster cluster(deterministic(4, GetParam()));
  std::vector<int> sizes(4, 0);
  cluster.run([&](Comm& comm) {
    sizes[static_cast<std::size_t>(comm.rank())] = comm.size();
  });
  for (const int s : sizes) EXPECT_EQ(s, 4);
}

TEST_P(ClusterEngines, PingPong) {
  Cluster cluster(deterministic(2, GetParam()));
  std::uint64_t received_back = 0;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, payload_of(41));
      received_back = value_of(comm.recv(1, 6));
    } else {
      const std::uint64_t v = value_of(comm.recv(0, 5));
      comm.send(0, 6, payload_of(v + 1));
    }
  });
  EXPECT_EQ(received_back, 42u);
}

TEST_P(ClusterEngines, ManyToOneWithAnySource) {
  constexpr int kRanks = 8;
  Cluster cluster(deterministic(kRanks, GetParam()));
  std::uint64_t sum = 0;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 1; i < kRanks; ++i) {
        sum += value_of(comm.recv(kAnySource, 1));
      }
    } else {
      comm.send(0, 1, payload_of(static_cast<std::uint64_t>(comm.rank())));
    }
  });
  EXPECT_EQ(sum, 28u);  // 1 + 2 + ... + 7
}

TEST_P(ClusterEngines, TagMatchingSelectsCorrectMessage) {
  Cluster cluster(deterministic(2, GetParam()));
  std::uint64_t tagged_a = 0;
  std::uint64_t tagged_b = 0;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 10, payload_of(100));
      comm.send(1, 20, payload_of(200));
    } else {
      // Receive in reverse send order using tags.
      tagged_b = value_of(comm.recv(0, 20));
      tagged_a = value_of(comm.recv(0, 10));
    }
  });
  EXPECT_EQ(tagged_a, 100u);
  EXPECT_EQ(tagged_b, 200u);
}

TEST_P(ClusterEngines, RecvInfoReportsSourceAndTag) {
  Cluster cluster(deterministic(3, GetParam()));
  RecvInfo info;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 2) {
      comm.send(0, 7, payload_of(1));
    } else if (comm.rank() == 0) {
      comm.recv(kAnySource, kAnyTag, &info);
    }
  });
  EXPECT_EQ(info.src, 2);
  EXPECT_EQ(info.tag, 7);
}

TEST_P(ClusterEngines, SelfSendWorks) {
  Cluster cluster(deterministic(1, GetParam()));
  std::uint64_t got = 0;
  cluster.run([&](Comm& comm) {
    comm.send(0, 1, payload_of(9));
    got = value_of(comm.recv(0, 1));
  });
  EXPECT_EQ(got, 9u);
}

TEST_P(ClusterEngines, ProbeSeesPendingMessage) {
  Cluster cluster(deterministic(2, GetParam()));
  bool before = true;
  bool after = false;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // rank 1 sends before this completes
      after = comm.probe(1, 3);
      before = comm.probe(1, 99);
      comm.recv(1, 3);
    } else {
      comm.send(0, 3, payload_of(1));
      comm.barrier();
    }
  });
  EXPECT_TRUE(after);
  EXPECT_FALSE(before);
}

TEST_P(ClusterEngines, BarrierSynchronizesAll) {
  constexpr int kRanks = 5;
  Cluster cluster(deterministic(kRanks, GetParam()));
  std::atomic<int> phase_one{0};
  std::vector<int> observed(kRanks, -1);
  cluster.run([&](Comm& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    observed[static_cast<std::size_t>(comm.rank())] = phase_one.load();
  });
  for (const int o : observed) EXPECT_EQ(o, kRanks);
}

TEST_P(ClusterEngines, MultipleBarriers) {
  Cluster cluster(deterministic(3, GetParam()));
  std::atomic<int> counter{0};
  std::vector<int> after_second(3, -1);
  cluster.run([&](Comm& comm) {
    comm.barrier();
    counter.fetch_add(1);
    comm.barrier();
    after_second[static_cast<std::size_t>(comm.rank())] = counter.load();
    comm.barrier();
  });
  for (const int v : after_second) EXPECT_EQ(v, 3);
}

TEST_P(ClusterEngines, ExceptionInRankPropagates) {
  Cluster cluster(deterministic(4, GetParam()));
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 exploded");
    // Other ranks block forever; abort must release them.
    comm.recv(kAnySource, kAnyTag);
  }),
               std::runtime_error);
}

TEST_P(ClusterEngines, DeadlockDetected) {
  Cluster cluster(deterministic(2, GetParam()));
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    // Everyone receives, nobody sends.
    comm.recv(kAnySource, kAnyTag);
  }),
               CommError);
}

TEST_P(ClusterEngines, MismatchedBarrierIsDeadlock) {
  Cluster cluster(deterministic(2, GetParam()));
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.barrier();
    // rank 1 exits immediately; the barrier can never complete.
  }),
               CommError);
}

TEST_P(ClusterEngines, InvalidDestinationThrows) {
  Cluster cluster(deterministic(2, GetParam()));
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(5, 1, Bytes{});
    comm.barrier();
  }),
               CommError);
}

TEST_P(ClusterEngines, NegativeUserTagRejected) {
  Cluster cluster(deterministic(2, GetParam()));
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, -3, Bytes{});
    comm.barrier();
  }),
               CommError);
}

TEST_P(ClusterEngines, ClusterReusableAfterRun) {
  Cluster cluster(deterministic(2, GetParam()));
  int total = 0;
  for (int round = 0; round < 3; ++round) {
    cluster.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 1, payload_of(1));
      } else {
        total += static_cast<int>(value_of(comm.recv(0, 1)));
      }
    });
  }
  EXPECT_EQ(total, 3);
}

TEST_P(ClusterEngines, MessageDropCausesDeadlockDetection) {
  ClusterOptions options = deterministic(2, GetParam());
  options.faults.drop = [](const Envelope& env) { return env.tag == 13; };
  Cluster cluster(options);
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 13, payload_of(1));  // dropped
    } else {
      comm.recv(0, 13);  // waits forever
    }
  }),
               CommError);
}

TEST_P(ClusterEngines, FifoPerSenderPreserved) {
  Cluster cluster(deterministic(2, GetParam()));
  std::vector<std::uint64_t> received;
  cluster.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 10; ++i) comm.send(1, 1, payload_of(i));
    } else {
      for (int i = 0; i < 10; ++i) {
        received.push_back(value_of(comm.recv(0, 1)));
      }
    }
  });
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(received[i], i);
}

INSTANTIATE_TEST_SUITE_P(Engines, ClusterEngines,
                         ::testing::Values(Engine::kVirtual,
                                           Engine::kThreads),
                         [](const auto& info) {
                           return info.param == Engine::kVirtual ? "Virtual"
                                                                 : "Threads";
                         });

// Under kThreads each rank's clock is the wall time of its own compute
// slices: a rank that computes for 20 ms reports at least that. (An idle
// rank's clock is not bounded here: preemption between its slices is
// charged to it, so any bound would depend on the host's scheduling.)
TEST(ClusterThreads, ClockAdvancesByOwnRunningTime) {
  ClusterOptions options;
  options.ranks = 2;
  options.engine = Engine::kThreads;  // measured_time: the default
  Cluster cluster(options);
  cluster.run([](Comm& comm) {
    if (comm.rank() != 0) return;
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(20)) {
    }
  });
  EXPECT_GE(cluster.reports()[0].vclock, 0.02);
  EXPECT_GE(cluster.makespan(), 0.02);
}

TEST(ClusterOptionsValidation, RejectsBadConfigs) {
  ClusterOptions options;
  options.ranks = 0;
  EXPECT_THROW(Cluster{options}, CommError);
  options.ranks = 2;
  options.slowdown = {1.0};
  EXPECT_THROW(Cluster{options}, CommError);
  options.slowdown = {1.0, -1.0};
  EXPECT_THROW(Cluster{options}, CommError);
}

}  // namespace
}  // namespace lbe::mpi
