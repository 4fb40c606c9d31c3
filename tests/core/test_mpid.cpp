// MPI-D library tests: end-to-end key-value delivery, combiner semantics,
// spill/realignment behaviour, partition ownership, role misuse, and
// randomized conservation properties.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"

namespace mpid::core {
namespace {

using minimpi::Comm;
using minimpi::run_world;

/// The paper's WordCount combiner: sum the counts for one key.
Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// Runs a job: every mapper emits `emit(mapper_index, send)`; reducers
/// aggregate counts per key; returns the merged word counts.
std::map<std::string, std::uint64_t> run_counting_job(
    Config config,
    const std::function<void(int, const std::function<void(std::string_view,
                                                           std::string_view)>&)>&
        emit) {
  std::map<std::string, std::uint64_t> merged;
  std::mutex merged_mu;
  run_world(config.world_size(), [&](Comm& comm) {
    MpiD d(comm, config);
    switch (d.role()) {
      case Role::kMapper: {
        emit(d.mapper_index(), [&](std::string_view k, std::string_view v) {
          d.send(k, v);
        });
        d.finalize();
        break;
      }
      case Role::kReducer: {
        std::map<std::string, std::uint64_t> local;
        std::string k, v;
        while (d.recv(k, v)) local[k] += std::stoull(v);
        d.finalize();
        std::lock_guard lock(merged_mu);
        for (const auto& [key, n] : local) merged[key] += n;
        break;
      }
      case Role::kMaster:
        d.finalize();
        break;
    }
  });
  return merged;
}

struct Shape {
  int mappers;
  int reducers;
};

class WordCountShapeTest : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, WordCountShapeTest,
                         ::testing::Values(Shape{1, 1}, Shape{2, 1},
                                           Shape{1, 2}, Shape{3, 2},
                                           Shape{4, 3}, Shape{7, 1}));

TEST_P(WordCountShapeTest, CountsMatchReference) {
  const auto [mappers, reducers] = GetParam();
  Config cfg;
  cfg.mappers = mappers;
  cfg.reducers = reducers;
  cfg.combiner = sum_combiner();

  const std::vector<std::string> words = {"apple", "pear",  "apple",
                                          "plum",  "apple", "pear"};
  const auto counts = run_counting_job(cfg, [&](int, const auto& send) {
    for (const auto& w : words) send(w, "1");
  });

  // Every mapper emits the full list once.
  EXPECT_EQ(counts.at("apple"), 3u * static_cast<unsigned>(mappers));
  EXPECT_EQ(counts.at("pear"), 2u * static_cast<unsigned>(mappers));
  EXPECT_EQ(counts.at("plum"), 1u * static_cast<unsigned>(mappers));
  EXPECT_EQ(counts.size(), 3u);
}

TEST(MpiD, EmptyJobTerminates) {
  Config cfg;
  cfg.mappers = 2;
  cfg.reducers = 2;
  const auto counts = run_counting_job(cfg, [](int, const auto&) {});
  EXPECT_TRUE(counts.empty());
}

TEST(MpiD, EmptyKeysAndValuesSurvive) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      d.send("", "value-of-empty-key");
      d.send("key-of-empty-value", "");
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::map<std::string, std::string> got;
      std::string k, v;
      while (d.recv(k, v)) got[k] = v;
      d.finalize();
      EXPECT_EQ(got.at(""), "value-of-empty-key");
      EXPECT_EQ(got.at("key-of-empty-value"), "");
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, TinySpillThresholdStillCorrect) {
  Config cfg;
  cfg.mappers = 2;
  cfg.reducers = 2;
  cfg.spill_threshold_bytes = 64;  // spill on nearly every send
  cfg.partition_frame_bytes = 32;  // flush frames constantly
  const auto counts = run_counting_job(cfg, [](int, const auto& send) {
    for (int i = 0; i < 500; ++i) send("w" + std::to_string(i % 13), "1");
  });
  std::uint64_t total = 0;
  for (const auto& [k, n] : counts) total += n;
  EXPECT_EQ(total, 2u * 500u);
  EXPECT_EQ(counts.size(), 13u);
}

TEST(MpiD, CombinerReducesTransmittedPairs) {
  // Identical workload with and without a combiner: the combined run must
  // transmit far fewer pairs and bytes while producing the same counts.
  auto run_with = [](bool combine) {
    Config cfg;
    cfg.mappers = 2;
    cfg.reducers = 1;
    if (combine) cfg.combiner = sum_combiner();
    Stats mapper_stats{};
    std::mutex mu;
    run_world(cfg.world_size(), [&](Comm& comm) {
      MpiD d(comm, cfg);
      if (d.role() == Role::kMapper) {
        for (int i = 0; i < 2000; ++i) d.send("hot-key", "1");
        d.finalize();
        std::lock_guard lock(mu);
        mapper_stats += d.stats();
      } else if (d.role() == Role::kReducer) {
        std::string k, v;
        std::uint64_t total = 0;
        while (d.recv(k, v)) total += std::stoull(v);
        EXPECT_EQ(total, 4000u);
        d.finalize();
      } else {
        d.finalize();
      }
    });
    return mapper_stats;
  };

  const Stats combined = run_with(true);
  const Stats raw = run_with(false);
  EXPECT_EQ(combined.pairs_sent, raw.pairs_sent);
  EXPECT_LT(combined.pairs_after_combine, raw.pairs_after_combine / 100);
  EXPECT_LT(combined.bytes_sent, raw.bytes_sent / 10);
}

TEST(MpiD, PartitionOwnershipRespected) {
  // Every key must arrive at exactly the reducer hash-mod assigns to it.
  Config cfg;
  cfg.mappers = 3;
  cfg.reducers = 4;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      for (int i = 0; i < 200; ++i) {
        d.send("key-" + std::to_string(i), std::to_string(i));
      }
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      while (d.recv(k, v)) {
        EXPECT_EQ(d.reducer_rank_for(k), comm.rank())
            << "key " << k << " delivered to wrong reducer";
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, SortValuesOrdersEachGroup) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  cfg.sort_values = true;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      for (const char* v : {"delta", "alpha", "charlie", "bravo"}) {
        d.send("k", v);
      }
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      std::vector<std::string> values;
      while (d.recv(k, v)) {
        EXPECT_EQ(k, "k");
        values.push_back(v);
      }
      d.finalize();
      EXPECT_EQ(values,
                (std::vector<std::string>{"alpha", "bravo", "charlie",
                                          "delta"}));
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, SortKeysEmitsSortedFrames) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  cfg.sort_keys = true;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      for (const char* k : {"zeta", "alpha", "mike", "bravo"}) d.send(k, "1");
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::vector<std::string> order;
      std::string k, v;
      while (d.recv(k, v)) order.push_back(k);
      d.finalize();
      // One spill, one frame: keys must come out lexicographically.
      EXPECT_EQ(order, (std::vector<std::string>{"alpha", "bravo", "mike",
                                                 "zeta"}));
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, MasterReportAggregatesStats) {
  // Both modes share one data channel, so the byte counters agree in both.
  for (const bool resilient : {false, true}) {
    SCOPED_TRACE(resilient ? "resilient" : "plain");
    Config cfg;
    cfg.mappers = 3;
    cfg.reducers = 2;
    cfg.resilient_shuffle = resilient;
    run_world(cfg.world_size(), [&](Comm& comm) {
      MpiD d(comm, cfg);
      if (d.role() == Role::kMapper) {
        for (int i = 0; i < 10; ++i) d.send("k" + std::to_string(i), "1");
        d.finalize();
      } else if (d.role() == Role::kReducer) {
        std::string k, v;
        while (d.recv(k, v)) {
        }
        d.finalize();
      } else {
        d.finalize();
        const JobReport& report = d.report();
        EXPECT_EQ(report.mappers_completed, 3);
        EXPECT_EQ(report.reducers_completed, 2);
        EXPECT_EQ(report.totals.pairs_sent, 30u);
        EXPECT_EQ(report.totals.pairs_received, 30u);
        EXPECT_GT(report.totals.bytes_sent, 0u);
        // Conservation: every transmitted payload byte is received.
        EXPECT_EQ(report.totals.bytes_received, report.totals.bytes_sent);
        EXPECT_EQ(report.totals.frames_received, report.totals.frames_sent);
      }
    });
  }
}

TEST(MpiD, ConfigValidation) {
  run_world(3, [](Comm& comm) {
    Config wrong_size;
    wrong_size.mappers = 5;
    wrong_size.reducers = 5;
    EXPECT_THROW(MpiD(comm, wrong_size), std::invalid_argument);
    Config no_mappers;
    no_mappers.mappers = 0;
    EXPECT_THROW(MpiD(comm, no_mappers), std::invalid_argument);
  });
}

TEST(MpiD, RoleMisuseThrows) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    std::string k, v;
    switch (d.role()) {
      case Role::kMaster:
        EXPECT_THROW(d.send("k", "v"), std::logic_error);
        EXPECT_THROW(d.recv(k, v), std::logic_error);
        EXPECT_THROW((void)d.mapper_index(), std::logic_error);
        d.finalize();
        EXPECT_THROW(d.finalize(), std::logic_error);
        break;
      case Role::kMapper:
        EXPECT_THROW(d.recv(k, v), std::logic_error);
        EXPECT_THROW((void)d.reducer_index(), std::logic_error);
        d.finalize();
        break;
      case Role::kReducer:
        EXPECT_THROW(d.send("k", "v"), std::logic_error);
        // Finalizing before draining is a programming error.
        EXPECT_THROW(d.finalize(), std::logic_error);
        while (d.recv(k, v)) {
        }
        d.finalize();
        break;
    }
  });
}

TEST(MpiD, ReportBeforeFinalizeThrows) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    EXPECT_THROW((void)d.report(), std::logic_error);
    std::string k, v;
    if (d.role() == Role::kMapper) {
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      while (d.recv(k, v)) {
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, CustomRangePartitionerRoutesKeys) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 3;
  // Keys "a".."z": reducer 0 gets a-i, 1 gets j-r, 2 gets s-z.
  cfg.partitioner = [](std::string_view key,
                       std::uint32_t reducers) -> std::uint32_t {
    const auto c = static_cast<std::uint32_t>(key[0] - 'a');
    return std::min(reducers - 1, c * reducers / 26);
  };
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      for (char c = 'a'; c <= 'z'; ++c) d.send(std::string(1, c), "v");
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      while (d.recv(k, v)) {
        const int expected_reducer = std::min(2, (k[0] - 'a') * 3 / 26);
        EXPECT_EQ(d.reducer_index(), expected_reducer) << k;
        EXPECT_EQ(d.reducer_rank_for(k), comm.rank());
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
}

TEST(MpiD, PartitionerOutOfRangeThrows) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 2;
  cfg.partitioner = [](std::string_view, std::uint32_t reducers) {
    return reducers;  // off by one: illegal
  };
  cfg.spill_threshold_bytes = 1;  // spill (and hence partition) instantly
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      EXPECT_THROW(d.send("k", "v"), std::out_of_range);
      // Recover by finishing cleanly: nothing was sent.
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      while (d.recv(k, v)) {
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
}

struct PropertyParam {
  std::uint64_t seed;
  int mappers;
  int reducers;
  std::size_t spill_threshold;
};

// Named after the printed parameter (gtest_discover_tests would otherwise
// print its raw bytes).
void PrintTo(const PropertyParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_" << p.mappers << "m" << p.reducers << "r_spill"
      << p.spill_threshold;
}

class MpiDPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

INSTANTIATE_TEST_SUITE_P(
    Randomized, MpiDPropertyTest,
    ::testing::Values(PropertyParam{11, 2, 2, 1u << 20},
                      PropertyParam{12, 3, 1, 256},
                      PropertyParam{13, 1, 4, 1024},
                      PropertyParam{14, 4, 4, 4096},
                      PropertyParam{15, 5, 3, 128},
                      PropertyParam{16, 2, 7, 1u << 16}));

TEST_P(MpiDPropertyTest, RandomWorkloadConservesPairs) {
  const auto param = GetParam();
  Config cfg;
  cfg.mappers = param.mappers;
  cfg.reducers = param.reducers;
  cfg.spill_threshold_bytes = param.spill_threshold;
  cfg.partition_frame_bytes = param.spill_threshold / 2 + 16;

  // Reference: the multiset of (key, value) pairs all mappers emit.
  auto emit_for = [&](int mapper, const auto& sink) {
    common::Xoshiro256StarStar rng(param.seed * 100 +
                                   static_cast<std::uint64_t>(mapper));
    const auto n = rng.next_in(0, 400);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string key = "k" + std::to_string(rng.next_below(37));
      std::string value(rng.next_below(20), 'x');
      sink(key, value);
    }
  };

  std::map<std::pair<std::string, std::string>, int> expected;
  for (int m = 0; m < cfg.mappers; ++m) {
    emit_for(m, [&](const std::string& k, const std::string& v) {
      ++expected[{k, v}];
    });
  }

  std::map<std::pair<std::string, std::string>, int> received;
  std::mutex mu;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      emit_for(d.mapper_index(), [&](const std::string& k,
                                     const std::string& v) { d.send(k, v); });
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::map<std::pair<std::string, std::string>, int> local;
      std::string k, v;
      while (d.recv(k, v)) ++local[{k, v}];
      d.finalize();
      std::lock_guard lock(mu);
      for (const auto& [kv, n] : local) received[kv] += n;
    } else {
      d.finalize();
    }
  });

  EXPECT_EQ(received, expected);
}

}  // namespace
}  // namespace mpid::core
