// Differential tests of the combine path that ships: MapOutputBuffer +
// SpillEncoder must be observationally identical to a reference buffer
// with the legacy node-based semantics the flat table replaced.
//
// Two layers:
//   1. Spill-level: drive the production buffer and encoder (kKvList
//      layout, sort_keys on and off) and a reference buffer (an
//      insertion-ordered map restating the combine/spill discipline) with
//      the same seeded pair streams — uniform and Zipf keys, combiners
//      that return one, two or no values, sort_values, forced spills —
//      and assert the realigned per-partition frames are byte-identical,
//      spill round by spill round.
//   2. Job-level: run an MpiD wordcount under spill pressure and assert
//      its reduced counts equal a serial count of the same streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/common/zipf.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/engine.hpp"

namespace mpid::core {
namespace {

using minimpi::Comm;
using minimpi::run_world;

std::uint64_t sum_of(const std::vector<std::string>& values) {
  std::uint64_t total = 0;
  for (const auto& v : values) total += std::stoull(v);
  return total;
}

Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    return std::vector<std::string>{std::to_string(sum_of(values))};
  };
}

/// Keeps the sum but returns two values, so a combined list still has
/// more than one value (and a value order sort_values can change).
Combiner pair_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    return std::vector<std::string>{std::to_string(sum_of(values)), "0"};
  };
}

/// Drops every value: a combined key ships as a group with no values.
Combiner drop_combiner() {
  return [](std::string_view, std::vector<std::string>&&) {
    return std::vector<std::string>{};
  };
}

enum class CombineKind { kNone, kSum, kPair, kDrop };

Combiner combiner_for(CombineKind kind) {
  switch (kind) {
    case CombineKind::kNone:
      return {};
    case CombineKind::kSum:
      return sum_combiner();
    case CombineKind::kPair:
      return pair_combiner();
    case CombineKind::kDrop:
      return drop_combiner();
  }
  return {};
}

/// How one stream is buffered and spilled.
struct SpillShape {
  Combiner combiner;
  std::size_t combine_threshold = 0;  // 0: no incremental combine
  bool sorted = false;                // sort_keys
  bool sort_values = false;
  std::uint32_t partitions = 1;
};

using Frames = std::vector<std::vector<std::byte>>;  // one per partition

/// The legacy buffer semantics, restated independently of src/shuffle:
/// insertion-ordered keys, per-key value vectors, the same incremental-
/// combine trigger the runtime uses.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(SpillShape shape) : shape_(std::move(shape)) {}

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
    if (shape_.combiner && shape_.combine_threshold > 0 &&
        list.size() >= shape_.combine_threshold) {
      list = shape_.combiner(key, std::move(list));
    }
  }

  /// Drains into per-partition KvListWriter frames exactly like a spill:
  /// a final combiner pass over every list of two or more values (a
  /// one-value list is already combined: the combiner may run zero
  /// times), optional value sort, sorted or insertion-ordered keys,
  /// hash-partitioned.
  Frames spill() {
    std::vector<std::size_t> order(keys_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (shape_.sorted) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return keys_[a] < keys_[b];
      });
    }
    std::vector<common::KvListWriter> writers(shape_.partitions);
    for (const auto i : order) {
      auto values = std::move(values_[i]);
      if (shape_.combiner && values.size() > 1) {
        values = shape_.combiner(keys_[i], std::move(values));
      }
      if (shape_.sort_values) std::sort(values.begin(), values.end());
      auto& w = writers[common::fnv1a64(keys_[i]) % shape_.partitions];
      w.begin_group(keys_[i], values.size());
      for (const auto& v : values) w.add_value(v);
    }
    keys_.clear();
    values_.clear();
    index_.clear();
    Frames frames;
    frames.reserve(shape_.partitions);
    for (auto& w : writers) frames.push_back(w.take());
    return frames;
  }

 private:
  SpillShape shape_;
  std::vector<std::string> keys_;                 // insertion order
  std::vector<std::vector<std::string>> values_;  // parallel to keys_
  std::unordered_map<std::string, std::size_t, common::TransparentStringHash,
                     common::TransparentStringEq>
      index_;
};

/// The shipped spill path, wired as MPI-D wires it (kKvList frames), with
/// one unbounded frame per partition per spill round so every round's
/// frames line up with the reference's.
class ProductionBuffer {
 public:
  explicit ProductionBuffer(const SpillShape& shape)
      : options_(options_for(shape)),
        combine_(shape.combiner, &counters_),
        buffer_(options_, &combine_, &counters_),
        encoder_(options_, setup_for(shape)),
        frames_(shape.partitions) {}

  void append(std::string_view key, std::string_view value) {
    buffer_.append(key, value);
  }

  Frames spill() {
    encoder_.spill(buffer_);
    encoder_.flush_all();
    Frames out(frames_.size());
    out.swap(frames_);
    return out;
  }

 private:
  static shuffle::ShuffleOptions options_for(const SpillShape& shape) {
    shuffle::ShuffleOptions options;
    options.inline_combine_threshold = shape.combine_threshold;
    options.sort_keys = shape.sorted;
    options.sort_values = shape.sort_values;
    return options;
  }

  shuffle::SpillEncoder::Setup setup_for(const SpillShape& shape) {
    shuffle::SpillEncoder::Setup setup;
    setup.layout = shuffle::Layout::kKvList;
    setup.partitions = shape.partitions;
    setup.frame_flush_bytes = shuffle::SpillEncoder::kUnboundedFrame;
    setup.partitioner = shuffle::Partitioner(shape.partitions);
    setup.counters = &counters_;
    setup.sink = [this](std::uint32_t p, std::vector<std::byte> frame, bool) {
      EXPECT_TRUE(frames_[p].empty()) << "two frames for partition " << p;
      frames_[p] = std::move(frame);
    };
    return setup;
  }

  shuffle::ShuffleOptions options_;
  shuffle::ShuffleCounters counters_;
  shuffle::CombineRunner combine_;
  shuffle::MapOutputBuffer buffer_;
  shuffle::SpillEncoder encoder_;
  Frames frames_;
};

struct StreamParams {
  const char* name;
  bool zipf;              // Zipf(1.1) over the key space vs uniform keys
  CombineKind combiner;
  bool sorted;            // sorted spill drains (Hadoop-style)
  std::uint64_t seed;
  bool sort_values = false;
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
        StreamParams{"uniform_plain", false, CombineKind::kNone, false, 101},
        StreamParams{"uniform_combine", false, CombineKind::kSum, false, 102},
        StreamParams{"zipf_plain", true, CombineKind::kNone, false, 103},
        StreamParams{"zipf_combine", true, CombineKind::kSum, false, 104},
        StreamParams{"zipf_combine_sorted", true, CombineKind::kSum, true,
                     105},
        StreamParams{"uniform_sorted", false, CombineKind::kNone, true, 106},
        StreamParams{"zipf_pair", true, CombineKind::kPair, false, 107},
        StreamParams{"zipf_pair_sorted", true, CombineKind::kPair, true, 108},
        StreamParams{"uniform_drop", false, CombineKind::kDrop, false, 109},
        StreamParams{"zipf_drop_sorted", true, CombineKind::kDrop, true, 110},
        StreamParams{"zipf_pair_sort_values", true, CombineKind::kPair, false,
                     111, /*sort_values=*/true},
        StreamParams{"uniform_sort_values_sorted", false, CombineKind::kNone,
                     true, 112, /*sort_values=*/true}),
    [](const auto& info) { return info.param.name; });

TEST_P(CombineDifferentialTest, SpillFramesAreByteIdentical) {
  const auto p = GetParam();
  constexpr std::size_t kPairs = 30000;
  constexpr std::size_t kSpillEvery = 2048;  // forced spills mid-stream
  constexpr std::size_t kKeySpace = 400;
  constexpr std::size_t kCombineThreshold = 8;

  SpillShape shape;
  shape.combiner = combiner_for(p.combiner);
  shape.combine_threshold = shape.combiner ? kCombineThreshold : 0;
  shape.sorted = p.sorted;
  shape.sort_values = p.sort_values;
  shape.partitions = 3;
  ProductionBuffer production(shape);
  ReferenceBuffer reference(shape);

  common::Xoshiro256StarStar rng(p.seed);
  common::ZipfSampler zipf(kKeySpace, 1.1);
  std::size_t spill_rounds = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::uint64_t rank =
        p.zipf ? zipf(rng) : 1 + rng.next_below(kKeySpace);
    const auto key = "key-" + std::to_string(rank);
    const auto value = std::to_string(rng.next_below(1000));
    production.append(key, value);
    reference.append(key, value);
    if ((i + 1) % kSpillEvery == 0) {
      ASSERT_EQ(production.spill(), reference.spill())
          << "spill round " << spill_rounds;
      ++spill_rounds;
    }
  }
  EXPECT_EQ(production.spill(), reference.spill());
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
