// Differential tests of the arena-backed combine path: the flat table must
// be observationally identical to a reference buffer with the legacy
// node-based semantics it replaced.
//
// Two layers:
//   1. Table-level: drive KvCombineTable and a reference buffer (insertion
//      -ordered map mimicking the exact combine/spill discipline) with the
//      same seeded pair streams — uniform and Zipf keys, combiner on/off,
//      forced spills — and assert the realigned per-partition frames are
//      byte-identical, spill round by spill round.
//   2. Job-level: run an MpiD wordcount under spill pressure and assert
//      its reduced counts equal a serial count of the same streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/common/kvtable.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/common/zipf.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"

namespace mpid::core {
namespace {

using minimpi::Comm;
using minimpi::run_world;

Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// The legacy buffer semantics, restated independently of mpid.cpp:
/// insertion-ordered keys, per-key value vectors, the same incremental-
/// combine trigger the runtime uses.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(Combiner combiner, std::size_t combine_threshold)
      : combiner_(std::move(combiner)), combine_threshold_(combine_threshold) {}

  void append(std::string_view key, std::string_view value) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      index_.emplace(std::string(key), keys_.size());
      keys_.emplace_back(key);
      values_.emplace_back();
      it = index_.find(key);
    }
    auto& list = values_[it->second];
    list.emplace_back(value);
    if (combiner_ && combine_threshold_ > 0 &&
        list.size() >= combine_threshold_) {
      list = combiner_(key, std::move(list));
    }
  }

  /// Drains into per-partition KvListWriter frames exactly like a spill:
  /// optional final combiner pass, sorted or insertion-ordered keys,
  /// hash-partitioned.
  std::vector<std::vector<std::byte>> spill(bool sorted,
                                            std::uint32_t partitions) {
    std::vector<std::size_t> order(keys_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (sorted) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return keys_[a] < keys_[b];
      });
    }
    std::vector<common::KvListWriter> writers(partitions);
    for (const auto i : order) {
      auto values = std::move(values_[i]);
      if (combiner_) values = combiner_(keys_[i], std::move(values));
      auto& w = writers[common::fnv1a64(keys_[i]) % partitions];
      w.begin_group(keys_[i], values.size());
      for (const auto& v : values) w.add_value(v);
    }
    keys_.clear();
    values_.clear();
    index_.clear();
    std::vector<std::vector<std::byte>> frames;
    frames.reserve(partitions);
    for (auto& w : writers) frames.push_back(w.take());
    return frames;
  }

 private:
  Combiner combiner_;
  std::size_t combine_threshold_;
  std::vector<std::string> keys_;                 // insertion order
  std::vector<std::vector<std::string>> values_;  // parallel to keys_
  std::unordered_map<std::string, std::size_t, common::TransparentStringHash,
                     common::TransparentStringEq>
      index_;
};

/// The flat table driven with the same discipline as ReferenceBuffer.
class TableBuffer {
 public:
  explicit TableBuffer(Combiner combiner, std::size_t combine_threshold)
      : combiner_(std::move(combiner)), combine_threshold_(combine_threshold) {}

  void append(std::string_view key, std::string_view value) {
    const auto count = table_.append(key, value);
    if (combiner_ && combine_threshold_ > 0 && count >= combine_threshold_) {
      // Index-addressed combine, as in MpiD::combine_flat_entry.
      const auto index = table_.last_index();
      scratch_.clear();
      auto cursor = table_.entry_at(index).values;
      while (auto v = cursor.next()) scratch_.emplace_back(*v);
      scratch_ = combiner_(key, std::move(scratch_));
      table_.replace_at(index, scratch_);
    }
  }

  std::vector<std::vector<std::byte>> spill(bool sorted,
                                            std::uint32_t partitions) {
    std::vector<common::KvListWriter> writers(partitions);
    table_.for_each(sorted, [&](const common::KvCombineTable::EntryView& e) {
      auto& w = writers[common::fnv1a64(e.key) % partitions];
      if (combiner_ && e.value_count > 1) {
        scratch_.clear();
        auto cursor = e.values;
        while (auto v = cursor.next()) scratch_.emplace_back(*v);
        scratch_ = combiner_(e.key, std::move(scratch_));
        w.begin_group(e.key, scratch_.size());
        for (const auto& v : scratch_) w.add_value(v);
      } else {
        // Mirrors the runtime's stream path: single-value entries skip
        // the combiner (it may legally run zero times) and the slab
        // chain block-copies into the frame via drain_to.
        w.begin_group(e.key, e.value_count);
        auto cursor = e.values;
        cursor.drain_to(w);
      }
    });
    table_.recycle();
    std::vector<std::vector<std::byte>> frames;
    frames.reserve(partitions);
    for (auto& w : writers) frames.push_back(w.take());
    return frames;
  }

 private:
  Combiner combiner_;
  std::size_t combine_threshold_;
  common::KvCombineTable table_;
  std::vector<std::string> scratch_;
};

struct StreamParams {
  const char* name;
  bool zipf;            // Zipf(1.1) over the key space vs uniform keys
  bool combiner;        // sum-combine on/off
  bool sorted;          // sorted spill drains (Hadoop-style)
  std::uint64_t seed;
};

// gtest_discover_tests names each case after the printed parameter; by
// itself it prints the struct's bytes, `name`'s pointer included, which
// moves from build to build.
void PrintTo(const StreamParams& p, std::ostream* os) { *os << p.name; }

class CombineDifferentialTest : public ::testing::TestWithParam<StreamParams> {
};

INSTANTIATE_TEST_SUITE_P(
    Streams, CombineDifferentialTest,
    ::testing::Values(
        StreamParams{"uniform_plain", false, false, false, 101},
        StreamParams{"uniform_combine", false, true, false, 102},
        StreamParams{"zipf_plain", true, false, false, 103},
        StreamParams{"zipf_combine", true, true, false, 104},
        StreamParams{"zipf_combine_sorted", true, true, true, 105},
        StreamParams{"uniform_sorted", false, false, true, 106}),
    [](const auto& info) { return info.param.name; });

TEST_P(CombineDifferentialTest, SpillFramesAreByteIdentical) {
  const auto p = GetParam();
  constexpr std::uint32_t kPartitions = 3;
  constexpr std::size_t kPairs = 30000;
  constexpr std::size_t kSpillEvery = 2048;  // forced spills mid-stream
  constexpr std::size_t kKeySpace = 400;
  constexpr std::size_t kCombineThreshold = 8;

  Combiner combiner = p.combiner ? sum_combiner() : Combiner{};
  TableBuffer table(combiner, p.combiner ? kCombineThreshold : 0);
  ReferenceBuffer reference(combiner, p.combiner ? kCombineThreshold : 0);

  common::Xoshiro256StarStar rng(p.seed);
  common::ZipfSampler zipf(kKeySpace, 1.1);
  std::size_t spill_rounds = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::uint64_t rank =
        p.zipf ? zipf(rng) : 1 + rng.next_below(kKeySpace);
    const auto key = "key-" + std::to_string(rank);
    const auto value = std::to_string(rng.next_below(1000));
    table.append(key, value);
    reference.append(key, value);
    if ((i + 1) % kSpillEvery == 0) {
      const auto got = table.spill(p.sorted, kPartitions);
      const auto want = reference.spill(p.sorted, kPartitions);
      ASSERT_EQ(got, want) << "spill round " << spill_rounds;
      ++spill_rounds;
    }
  }
  EXPECT_EQ(table.spill(p.sorted, kPartitions),
            reference.spill(p.sorted, kPartitions));
  EXPECT_GT(spill_rounds, 10u);
}

constexpr int kJobMappers = 3;
constexpr int kJobPairsPerMapper = 4000;

/// Mapper `m`'s word stream in the job-level check.
template <typename Fn>
void job_stream(int m, Fn&& emit) {
  common::Xoshiro256StarStar rng(900 + m);
  common::ZipfSampler zipf(200, 1.2);
  for (int i = 0; i < kJobPairsPerMapper; ++i) {
    emit("word-" + std::to_string(zipf(rng)));
  }
}

/// The job-level check's wordcount under spill pressure (tiny thresholds
/// force many spill/realign rounds).
std::map<std::string, std::uint64_t> run_job(bool combiner, bool sort_keys) {
  Config cfg;
  cfg.mappers = kJobMappers;
  cfg.reducers = 2;
  cfg.sort_keys = sort_keys;
  cfg.spill_threshold_bytes = 2 * 1024;
  cfg.partition_frame_bytes = 512;
  if (combiner) cfg.combiner = sum_combiner();

  std::map<std::string, std::uint64_t> merged;
  std::mutex merged_mu;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    switch (d.role()) {
      case Role::kMapper: {
        job_stream(d.mapper_index(),
                   [&](const std::string& word) { d.send(word, "1"); });
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

TEST(CombineDifferential, JobOutputsMatchSerialReference) {
  std::map<std::string, std::uint64_t> want;
  for (int m = 0; m < kJobMappers; ++m) {
    job_stream(m, [&](const std::string& word) { ++want[word]; });
  }
  for (const bool combiner : {false, true}) {
    for (const bool sort_keys : {false, true}) {
      EXPECT_EQ(run_job(combiner, sort_keys), want)
          << "combiner=" << combiner << " sort_keys=" << sort_keys;
    }
  }
}

TEST(CombineDifferential, FlatPathReportsArenaStats) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  cfg.spill_threshold_bytes = 1024;
  cfg.combiner = sum_combiner();

  Stats stats;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      // Few hot keys: each accumulates past the inline-combine threshold
      // between spills, so combine_ns sees real combiner runs (the spill
      // path skips the combiner for single-value entries).
      for (int i = 0; i < 5000; ++i) {
        d.send("k" + std::to_string(i % 5), "1");
      }
      d.finalize();
      stats = d.stats();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      while (d.recv(k, v)) {
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
  EXPECT_GT(stats.spills, 0u);
  // The buffer's high-water mark and combiner wall time are accounted.
  EXPECT_GT(stats.table_bytes_peak, 0u);
  EXPECT_GT(stats.combine_ns, 0u);
  EXPECT_GT(stats.spill_ns, 0u);
}

}  // namespace
}  // namespace mpid::core
