// KvCombineTable unit tests: probe/intern/slab mechanics, deterministic
// iteration order, in-place replace, growth, recycle-without-free, and
// the exact byte accounting the spill reservation depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/common/kvtable.hpp"
#include "mpid/common/prng.hpp"
#include "adversarial_keys.hpp"

namespace mpid::common {
namespace {

std::vector<std::string> values_of(const KvCombineTable& table,
                                   std::string_view key) {
  std::vector<std::string> out;
  EXPECT_TRUE(table.collect(key, out));
  return out;
}

TEST(KvCombineTable, AppendAndCollect) {
  KvCombineTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.append("apple", "1"), 1u);
  EXPECT_EQ(table.append("pear", "2"), 1u);
  EXPECT_EQ(table.append("apple", "3"), 2u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(values_of(table, "apple"), (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(values_of(table, "pear"), (std::vector<std::string>{"2"}));
  std::vector<std::string> none;
  EXPECT_FALSE(table.collect("plum", none));
}

TEST(KvCombineTable, EmptyKeysAndValues) {
  KvCombineTable table;
  table.append("", "value-of-empty-key");
  table.append("key-of-empty-value", "");
  table.append("", "");
  EXPECT_EQ(values_of(table, ""),
            (std::vector<std::string>{"value-of-empty-key", ""}));
  EXPECT_EQ(values_of(table, "key-of-empty-value"),
            (std::vector<std::string>{""}));
}

TEST(KvCombineTable, InsertionOrderIteration) {
  KvCombineTable table;
  const std::vector<std::string> keys = {"delta", "alpha", "echo", "bravo"};
  for (const auto& k : keys) table.append(k, "v");
  table.append("alpha", "v2");  // re-append must not change first-seen order
  std::vector<std::string> seen;
  table.for_each(false, [&](const KvCombineTable::EntryView& e) {
    seen.emplace_back(e.key);
  });
  EXPECT_EQ(seen, keys);
}

TEST(KvCombineTable, SortedIteration) {
  KvCombineTable table;
  for (const auto* k : {"pear", "apple", "zebra", "fig", "apricot"}) {
    table.append(k, "v");
  }
  std::vector<std::string> seen;
  table.for_each(true, [&](const KvCombineTable::EntryView& e) {
    seen.emplace_back(e.key);
  });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.size(), 5u);
}

/// The sorted visit of a table holding `keys` (each appended 1-3 times,
/// interleaved) against std::sort of the same keys.
void expect_sorted_visit(KvCombineTable& table,
                         const std::vector<std::string>& keys,
                         std::uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::map<std::string, std::size_t> copies;
  for (const auto& key : keys) {
    copies[key] = 1 + rng.next_below(3);
    table.append(key, "v");
  }
  for (const auto& [key, count] : copies) {
    for (std::size_t c = 1; c < count; ++c) table.append(key, "v");
  }
  std::vector<std::string> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> seen;
  table.for_each(true, [&](const KvCombineTable::EntryView& e) {
    EXPECT_EQ(e.value_count, copies.at(std::string(e.key)));
    seen.emplace_back(e.key);
  });
  EXPECT_EQ(seen, expected);
}

TEST(KvCombineTable, SortedIterationMatchesStdSortOnAdversarialKeys) {
  // Empty and one-entry tables skip the radix passes; larger ones run them.
  for (const std::size_t n : {0, 1, 2, 3, 13, 63, 64, 65, 200, 3000}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      const auto keys = test::adversarial_keys(n, seed);
      ASSERT_EQ(keys.size(), n);
      KvCombineTable table;
      expect_sorted_visit(table, keys, seed);
      // The same table after a recycle, with a different key set.
      table.recycle();
      expect_sorted_visit(table, test::adversarial_keys(n, seed + 1000),
                          seed);
    }
  }
}

TEST(KvCombineTable, ReplaceRewritesInPlace) {
  KvCombineTable table;
  for (int i = 0; i < 100; ++i) table.append("hot", std::to_string(i));
  const std::size_t before = table.bytes_used();
  const std::vector<std::string> combined = {"4950"};
  table.replace("hot", combined);
  EXPECT_LT(table.bytes_used(), before);
  EXPECT_EQ(values_of(table, "hot"), combined);
  auto entry = table.find("hot");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->value_count, 1u);
  // Appends after a replace continue the (reused) chain.
  table.append("hot", "1");
  EXPECT_EQ(values_of(table, "hot"), (std::vector<std::string>{"4950", "1"}));
  EXPECT_THROW(table.replace("absent", combined), std::logic_error);
}

TEST(KvCombineTable, GrowthPreservesEverything) {
  KvCombineTable::Options opts;
  opts.initial_slots = 8;
  KvCombineTable table(opts);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    table.append("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  EXPECT_EQ(table.size(), static_cast<std::size_t>(n));
  EXPECT_GT(table.counters().rehashes, 0u);
  for (int i = 0; i < n; i += 97) {
    const auto key = "key-" + std::to_string(i);
    EXPECT_EQ(values_of(table, key),
              (std::vector<std::string>{"value-" + std::to_string(i)}));
  }
}

TEST(KvCombineTable, OversizeKeysAndValues) {
  KvCombineTable::Options opts;
  opts.key_arena_chunk_bytes = 64;
  opts.value_block_bytes = 16;
  opts.slab_chunk_bytes = 64;
  KvCombineTable table(opts);
  const std::string big_key(1000, 'k');
  const std::string big_value(5000, 'v');
  table.append(big_key, big_value);
  table.append(big_key, "small");
  table.append("small-key", big_value);
  EXPECT_EQ(values_of(table, big_key),
            (std::vector<std::string>{big_value, "small"}));
  EXPECT_EQ(values_of(table, "small-key"),
            (std::vector<std::string>{big_value}));
}

TEST(KvCombineTable, RecycleKeepsMemoryDropsContents) {
  KvCombineTable table;
  for (int i = 0; i < 1000; ++i) {
    table.append("key-" + std::to_string(i % 37), std::to_string(i));
  }
  EXPECT_GT(table.bytes_used(), 0u);
  const auto peak = table.bytes_peak();
  table.recycle();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.bytes_used(), 0u);
  EXPECT_EQ(table.bytes_peak(), peak);  // peak survives the recycle
  EXPECT_EQ(table.counters().recycles, 1u);
  std::vector<std::string> none;
  EXPECT_FALSE(table.collect("key-0", none));
  // Refilling after recycle behaves like a fresh table.
  table.append("key-0", "fresh");
  EXPECT_EQ(values_of(table, "key-0"), (std::vector<std::string>{"fresh"}));
}

TEST(KvCombineTable, FrameBytesMatchKvListWriter) {
  // frame_bytes must be the exact serialized size of the entry as a
  // KvListWriter group — the spill reservation bound depends on it.
  KvCombineTable table;
  Xoshiro256StarStar rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto key = "key-" + std::to_string(rng.next_below(40));
    table.append(key, std::string(rng.next_below(300), 'x'));
  }
  std::size_t max_entry = 0;
  table.for_each(false, [&](const KvCombineTable::EntryView& e) {
    KvListWriter writer;
    writer.begin_group(e.key, e.value_count);
    auto cursor = e.values;
    while (auto v = cursor.next()) writer.add_value(*v);
    EXPECT_EQ(writer.byte_size(), e.frame_bytes);
    // The raw block drain must produce byte-identical output to the
    // per-value path — the slabs hold the writer's exact wire format.
    KvListWriter raw;
    raw.begin_group(e.key, e.value_count);
    auto raw_cursor = e.values;
    raw_cursor.drain_to(raw);
    EXPECT_EQ(raw.buffer(), writer.buffer());
    max_entry = std::max(max_entry, e.frame_bytes);
  });
  EXPECT_GE(table.max_entry_frame_bytes(), max_entry);
}

TEST(KvCombineTable, MatchesReferenceUnderRandomStream) {
  KvCombineTable table;
  std::map<std::string, std::vector<std::string>> reference;
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto key = "k" + std::to_string(rng.next_below(500));
    const auto value = std::to_string(rng.next_below(1000000));
    table.append(key, value);
    reference[key].push_back(value);
  }
  EXPECT_EQ(table.size(), reference.size());
  std::size_t visited = 0;
  table.for_each(true, [&](const KvCombineTable::EntryView& e) {
    const auto it = reference.find(std::string(e.key));
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(e.value_count, it->second.size());
    std::vector<std::string> got;
    auto cursor = e.values;
    while (auto v = cursor.next()) got.emplace_back(*v);
    EXPECT_EQ(got, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(KvCombineTable, SteadyStateReusesSlabBlocks) {
  // After one spill round sizes the arenas, subsequent identical rounds
  // must not grow them: bytes_peak stays flat across rounds.
  KvCombineTable table;
  auto round = [&] {
    for (int i = 0; i < 5000; ++i) {
      table.append("key-" + std::to_string(i % 200), "0123456789");
    }
    table.recycle();
  };
  round();
  const auto peak_after_first = table.bytes_peak();
  for (int r = 0; r < 5; ++r) round();
  EXPECT_EQ(table.bytes_peak(), peak_after_first);
  EXPECT_EQ(table.counters().recycles, 6u);
}

TEST(BumpArena, AllocatesAlignedAndRecycles) {
  BumpArena arena(64);
  auto* a = arena.allocate(10, 8);
  auto* b = arena.allocate(10, 8);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  auto* big = arena.allocate(1000, 8);  // oversize: dedicated chunk
  EXPECT_NE(big, nullptr);
  const auto reserved = arena.bytes_reserved();
  arena.recycle();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // Recycled chunks are reused, not reallocated.
  (void)arena.allocate(10, 8);
  (void)arena.allocate(1000, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

}  // namespace
}  // namespace mpid::common
