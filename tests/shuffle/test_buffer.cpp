// MapOutputBuffer: drain order, grouping, combine trigger points and spill
// accounting. The buffer (a flat KvCombineTable) is checked against a
// reference that restates the legacy node-based buffer it replaced —
// first-insertion-ordered keys, one std::vector of values per key, the
// same incremental-combine trigger — and lives only in this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "../common/adversarial_keys.hpp"

namespace mpid::shuffle {
namespace {

using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;

/// The legacy buffer's semantics: groups in first-insertion order behind a
/// std::map index, combined in place once a list reaches the threshold.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(Combiner combiner = {}, std::size_t threshold = 0)
      : combiner_(std::move(combiner)), threshold_(threshold) {}

  void append(std::string_view key, std::string_view value) {
    const auto [it, inserted] =
        index_.try_emplace(std::string(key), groups_.size());
    if (inserted) {
      groups_.emplace_back(std::string(key), std::vector<std::string>{});
    }
    auto& values = groups_[it->second].second;
    values.emplace_back(value);
    if (combiner_ && threshold_ > 0 && values.size() >= threshold_) {
      values = combiner_(key, std::move(values));
    }
  }

  Groups groups(bool sorted) const {
    Groups out = groups_;
    if (sorted) {
      std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
    }
    return out;
  }

 private:
  Combiner combiner_;
  std::size_t threshold_;
  Groups groups_;
  std::map<std::string, std::size_t> index_;
};

/// Drains `buffer` into owned (key, values) groups.
Groups drain_groups(MapOutputBuffer& buffer, bool sorted) {
  Groups out;
  buffer.drain(sorted, [&](const MapOutputBuffer::Entry& e) {
    EXPECT_EQ(e.key_hash, common::fnv1a64(e.key));
    std::vector<std::string> values;
    auto cursor = e.values;
    while (auto v = cursor.next()) values.emplace_back(*v);
    EXPECT_EQ(values.size(), e.value_count);
    out.emplace_back(std::string(e.key), std::move(values));
  });
  return out;
}

template <typename Buffer>
void feed(Buffer& buffer) {
  buffer.append("banana", "1");
  buffer.append("apple", "2");
  buffer.append("banana", "3");
  buffer.append("cherry", "4");
  buffer.append("apple", "5");
  buffer.append("banana", "6");
}

Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

TEST(MapOutputBufferTest, FlatAndLegacyDrainTheSameGroupsInInsertionOrder) {
  ReferenceBuffer reference;
  feed(reference);
  for (const bool sorted : {false, true}) {
    const ShuffleOptions opts;
    ShuffleCounters counters;
    MapOutputBuffer buffer(opts, nullptr, &counters);
    feed(buffer);
    const Groups groups = drain_groups(buffer, sorted);
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(counters.spills, 1u);
    EXPECT_EQ(groups, reference.groups(sorted)) << "sorted=" << sorted;
    ASSERT_EQ(groups.size(), 3u);
    if (sorted) {
      EXPECT_EQ(groups[0].first, "apple");
      EXPECT_EQ(groups[2].first, "cherry");
    } else {
      EXPECT_EQ(groups[0].first, "banana");  // first insertion wins
      EXPECT_EQ(groups[0].second, (std::vector<std::string>{"1", "3", "6"}));
    }
  }
}

TEST(MapOutputBufferTest, InlineCombineTriggersAtTheSamePointInBothModes) {
  ShuffleOptions opts;
  opts.inline_combine_threshold = 3;
  ShuffleCounters counters;
  CombineRunner combine(sum_combiner(), &counters);
  MapOutputBuffer buffer(opts, &combine, &counters);
  ReferenceBuffer reference(sum_combiner(), 3);
  for (int i = 0; i < 8; ++i) {
    buffer.append("k", "1");
    reference.append("k", "1");
  }
  const auto groups = drain_groups(buffer, false);
  ASSERT_EQ(groups.size(), 1u);
  // The list re-combines whenever it reaches 3 values: {1,1,1}→"3",
  // {3,1,1}→"5", {5,1,1}→"7"; the eighth value stays uncombined, so the
  // drain sees the partial-combine state.
  EXPECT_EQ(groups[0].second, (std::vector<std::string>{"7", "1"}));
  EXPECT_EQ(groups, reference.groups(false));
}

TEST(MapOutputBufferTest, ShouldSpillTracksBytesUsed) {
  ShuffleOptions opts;
  opts.spill_threshold_bytes = 64;
  ShuffleCounters counters;
  MapOutputBuffer buffer(opts, nullptr, &counters);
  EXPECT_FALSE(buffer.should_spill());
  while (!buffer.should_spill()) {
    buffer.append("key", "0123456789");
  }
  EXPECT_GE(buffer.bytes_used(), 64u);
  drain_groups(buffer, false);
  EXPECT_EQ(buffer.bytes_used(), 0u);
  EXPECT_FALSE(buffer.should_spill());
  EXPECT_GE(counters.table_bytes_peak, 64u);
}

TEST(MapOutputBufferTest, ClearDiscardsWithoutCountingASpill) {
  const ShuffleOptions opts;
  ShuffleCounters counters;
  MapOutputBuffer buffer(opts, nullptr, &counters);
  feed(buffer);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(counters.spills, 0u);
  // The buffer is reusable after a clear (task restart).
  feed(buffer);
  EXPECT_EQ(drain_groups(buffer, false).size(), 3u);
}

TEST(MapOutputBufferTest, DrainEmptiesTheBufferEvenWhenTheCallbackThrows) {
  const ShuffleOptions opts;
  ShuffleCounters counters;
  MapOutputBuffer buffer(opts, nullptr, &counters);
  feed(buffer);
  EXPECT_THROW(buffer.drain(false,
                            [](const MapOutputBuffer::Entry&) {
                              throw std::runtime_error("crash mid-drain");
                            }),
               std::runtime_error);
  EXPECT_TRUE(buffer.empty());
}

TEST(MapOutputBufferTest, ForEachGroupMatchesAcrossModesAndDoesNotDrain) {
  ReferenceBuffer reference;
  feed(reference);
  for (const bool sorted : {false, true}) {
    const ShuffleOptions opts;
    ShuffleCounters counters;
    MapOutputBuffer buffer(opts, nullptr, &counters);
    feed(buffer);
    Groups groups;
    buffer.for_each_group(
        sorted, [&](std::string_view key, const std::vector<std::string>& v) {
          groups.emplace_back(std::string(key), v);
        });
    EXPECT_FALSE(buffer.empty());
    EXPECT_EQ(counters.spills, 0u);
    EXPECT_EQ(groups, reference.groups(sorted)) << "sorted=" << sorted;
  }
}

TEST(MapOutputBufferTest, SortedDrainAndGroupsMatchStdSortOnAdversarialKeys) {
  // The combine table's prefix sort seen through both sorted consumers;
  // the second round runs on the arenas the first drain recycled.
  for (const std::size_t n : {0, 1, 2, 63, 64, 65, 1000}) {
    const ShuffleOptions opts;
    ShuffleCounters counters;
    MapOutputBuffer buffer(opts, nullptr, &counters);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const auto keys = test::adversarial_keys(n, seed);
      ReferenceBuffer reference;
      for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          for (std::size_t c = 0; c <= (i + round) % 3; ++c) {
            const auto value = std::to_string(i) + "/" + std::to_string(c);
            buffer.append(keys[i], value);
            reference.append(keys[i], value);
          }
        }
      }
      Groups grouped;
      buffer.for_each_group(
          true, [&](std::string_view key, const std::vector<std::string>& v) {
            grouped.emplace_back(std::string(key), v);
          });
      EXPECT_EQ(grouped, reference.groups(true));
      EXPECT_EQ(drain_groups(buffer, true), reference.groups(true));
      EXPECT_TRUE(buffer.empty());
    }
  }
}

}  // namespace
}  // namespace mpid::shuffle
