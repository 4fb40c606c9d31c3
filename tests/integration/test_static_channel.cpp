// The chain's pinned static channel (mapred::StaticTables), checked two
// ways: table by table against a naive map-of-vectors built the way the
// channel's contract reads (each key's values in input order, on the
// partition the job's partitioner picks), and end to end by running the
// jobbench-shaped connected-components chain many times back to back on
// both runtimes, every run against the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/input.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/shuffle/partition.hpp"
#include "mpid/workloads/graph.hpp"

namespace mpid {
namespace {

using mapred::KvVec;
using mapred::StaticTables;
using NaiveTable = std::map<std::string, std::vector<std::string>>;

/// The channel as a map-of-vectors: one table per partition, each key's
/// values pushed back in input order.
std::vector<NaiveTable> naive_tables(const KvVec& input, int partitions,
                                     const core::Partitioner& fn) {
  std::vector<NaiveTable> tables(static_cast<std::size_t>(partitions));
  const shuffle::Partitioner part(static_cast<std::uint32_t>(partitions), fn);
  for (const auto& [key, value] : input) {
    tables[part(key)][key].push_back(value);
  }
  return tables;
}

std::vector<std::string> as_vector(std::span<const std::string> values) {
  return {values.begin(), values.end()};
}

/// Every key of every naive table is found on its own partition with the
/// same values, is absent from every other partition, and the byte
/// accounting is key + value bytes per pair.
void expect_matches(const StaticTables& tables, const KvVec& input,
                    int partitions, const core::Partitioner& fn = {}) {
  const auto naive = naive_tables(input, partitions, fn);
  ASSERT_EQ(tables.partitions(), partitions);
  std::uint64_t total = 0;
  for (int p = 0; p < partitions; ++p) {
    std::uint64_t bytes = 0;
    for (const auto& [key, values] : naive[static_cast<std::size_t>(p)]) {
      EXPECT_EQ(as_vector(tables.find(p, key)), values) << "key " << key;
      for (const auto& v : values) bytes += key.size() + v.size();
      for (int other = 0; other < partitions; ++other) {
        if (other == p) continue;
        EXPECT_TRUE(tables.find(other, key).empty()) << key;
      }
    }
    EXPECT_EQ(tables.partition_bytes(p), bytes) << "partition " << p;
    total += bytes;
  }
  EXPECT_EQ(tables.total_bytes(), total);
}

/// `pairs` random pairs over `distinct` keys that share a long prefix and
/// differ only in their last characters; values repeat, so duplicate
/// (key, value) pairs occur.
KvVec random_input(std::size_t pairs, std::size_t distinct,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string prefix(40, 'k');
  KvVec input;
  for (std::size_t i = 0; i < pairs; ++i) {
    input.emplace_back(prefix + std::to_string(rng() % distinct),
                       "v" + std::to_string(rng() % 5));
  }
  return input;
}

TEST(StaticTables, MatchesNaiveTablesAcrossPartitionCounts) {
  for (const int partitions : {1, 2, 5}) {
    for (const std::size_t distinct : {1, 7, 300, 5000}) {
      const auto input = random_input(3000, distinct, 17 + distinct);
      const StaticTables tables(input, partitions, {});
      expect_matches(tables, input, partitions);
    }
  }
}

TEST(StaticTables, KeepsInputOrderAndDuplicatePairs) {
  const KvVec input = {{"a", "3"}, {"b", "x"}, {"a", "1"}, {"a", "3"},
                       {"a", "2"}, {"b", "x"}, {"", "empty-key"}};
  const StaticTables tables(input, 1, {});
  EXPECT_EQ(as_vector(tables.find(0, "a")),
            (std::vector<std::string>{"3", "1", "3", "2"}));
  EXPECT_EQ(as_vector(tables.find(0, "b")),
            (std::vector<std::string>{"x", "x"}));
  EXPECT_EQ(as_vector(tables.find(0, "")),
            (std::vector<std::string>{"empty-key"}));
  expect_matches(tables, input, 1);
}

TEST(StaticTables, MissingKeyGivesAnEmptySpan) {
  const auto input = random_input(500, 50, 3);
  const StaticTables tables(input, 2, {});
  const std::string prefix(40, 'k');
  for (int p = 0; p < 2; ++p) {
    EXPECT_TRUE(tables.find(p, prefix + "50").empty());
    EXPECT_TRUE(tables.find(p, prefix).empty());
    EXPECT_TRUE(tables.find(p, prefix + "1x").empty());
    EXPECT_TRUE(tables.find(p, "").empty());
  }
  EXPECT_TRUE(tables.find(-1, prefix + "1").empty());
  EXPECT_TRUE(tables.find(2, prefix + "1").empty());
  EXPECT_EQ(tables.partition_bytes(2), 0u);
}

TEST(StaticTables, LongSharedPrefixesStayDistinct) {
  // Keys that differ only in one byte deep inside a long prefix, or only
  // in length.
  KvVec input;
  const std::string base(200, 'p');
  for (int i = 0; i < 64; ++i) {
    std::string key = base;
    key[150] = static_cast<char>('A' + i % 26);
    key += std::string(static_cast<std::size_t>(i / 26), 'q');
    input.emplace_back(key, std::to_string(i));
    input.emplace_back(base.substr(0, 100 + static_cast<std::size_t>(i)),
                       std::to_string(-i));
  }
  for (const int partitions : {1, 2, 5}) {
    expect_matches(StaticTables(input, partitions, {}), input, partitions);
  }
}

TEST(StaticTables, CustomPartitionerPlacesKeys) {
  const core::Partitioner by_length = [](std::string_view key,
                                         std::uint32_t parts) {
    return static_cast<std::uint32_t>(key.size() % parts);
  };
  KvVec input;
  std::mt19937_64 rng(9);
  for (int i = 0; i < 2000; ++i) {
    input.emplace_back(std::string(1 + rng() % 9, 'x') +
                           std::to_string(rng() % 40),
                       std::to_string(i));
  }
  for (const int partitions : {1, 2, 5}) {
    const StaticTables tables(input, partitions, by_length);
    expect_matches(tables, input, partitions, by_length);
  }
}

TEST(StaticTables, EmptyInputAndDefaultTables) {
  const StaticTables empty({}, 3, {});
  EXPECT_EQ(empty.partitions(), 3);
  EXPECT_EQ(empty.total_bytes(), 0u);
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(empty.find(p, "k").empty());
    EXPECT_EQ(empty.partition_bytes(p), 0u);
  }
  const StaticTables none;
  EXPECT_EQ(none.partitions(), 0);
  EXPECT_TRUE(none.find(0, "k").empty());
  EXPECT_THROW(StaticTables({}, 0, {}), std::invalid_argument);
}

TEST(StaticTables, MoveAssignedTablesKeepTheirEntries) {
  const auto input = random_input(1000, 120, 21);
  StaticTables tables;
  tables = StaticTables(input, 2, {});
  expect_matches(tables, input, 2);
}

TEST(StaticTables, ConcurrentReadersSeeTheSameValues) {
  const auto input = random_input(20000, 2000, 33);
  const StaticTables tables(input, 2, {});
  const auto naive = naive_tables(input, 2, {});
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int pass = 0; pass < 5; ++pass) {
        for (int p = 0; p < 2; ++p) {
          for (const auto& [key, values] : naive[static_cast<std::size_t>(p)]) {
            if (as_vector(tables.find(p, key)) != values) ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

// ---------------------------------------------------------------- cc runs --

constexpr int kPartitions = 2;
constexpr int kRounds = 9;

/// The chain's round count by synchronous min-label rounds: every vertex
/// adopts the least label among itself and its neighbours, and the chain
/// stops after the first round that changes nothing.
int serial_cc_rounds(const std::string& edge_text) {
  std::unordered_map<std::string, std::size_t> ids;
  std::vector<std::string> labels;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  auto id_of = [&](std::string_view name) {
    const auto [it, fresh] = ids.emplace(std::string(name), labels.size());
    if (fresh) labels.emplace_back(name);
    return it->second;
  };
  mapred::LineReader lines(edge_text);
  while (const auto line = lines.next()) {
    const auto a = line->find(' ');
    if (a == std::string_view::npos) continue;
    const auto b = line->find(' ', a + 1);
    edges.emplace_back(id_of(line->substr(0, a)),
                       id_of(line->substr(a + 1, b - a - 1)));
  }
  for (int rounds = 1;; ++rounds) {
    std::vector<std::string> next = labels;
    for (const auto& [u, v] : edges) {
      next[u] = std::min(next[u], labels[v]);
      next[v] = std::min(next[v], labels[u]);
    }
    if (next == labels) return rounds;
    labels = std::move(next);
  }
}

/// A 2,000-vertex, 2,400-edge, 4-component graph whose chain runs
/// kRounds rounds: the jobbench cc job's shape.
std::string nine_round_graph() {
  workloads::GraphSpec spec{.vertices = 2000, .edges = 2400, .components = 4};
  for (spec.seed = 1;; ++spec.seed) {
    std::string text = workloads::generate_graph(spec);
    if (serial_cc_rounds(text) == kRounds) return text;
  }
}

KvVec parse_parts(dfs::MiniDfs& fs, const std::vector<std::string>& files) {
  KvVec pairs;
  for (const auto& file : files) {
    const std::string body = fs.read(file);
    mapred::LineReader lines(body);
    while (const auto line = lines.next()) {
      const auto tab = line->find('\t');
      if (tab == std::string_view::npos) continue;
      pairs.emplace_back(std::string(line->substr(0, tab)),
                         std::string(line->substr(tab + 1)));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(CcRepeatRun, EveryBackToBackRunMatchesTheReference) {
  const std::string text = nine_round_graph();
  const KvVec expected = workloads::cc_reference(text);
  const auto job = workloads::cc_job(text);

  for (const bool resilient : {false, true}) {
    for (int run = 0; run < 30; ++run) {
      auto tuned = job;
      tuned.tuning.resilient_shuffle = resilient;
      const auto result =
          mapred::JobChain(kPartitions).run_on_text(tuned, text);
      ASSERT_EQ(result.outputs, expected)
          << (resilient ? "resilient" : "plain") << " run " << run;
      ASSERT_EQ(result.rounds.size(), static_cast<std::size_t>(kRounds))
          << (resilient ? "resilient" : "plain") << " run " << run;
    }
  }

  dfs::MiniDfs fs(kPartitions);
  fs.create("/cc/in", text);
  minihadoop::MiniCluster cluster(fs, kPartitions);
  for (int run = 0; run < 3; ++run) {
    minihadoop::MiniChainConfig config;
    config.ingest = job.ingest;
    config.stages = job.stages;
    config.static_input = job.static_input;
    config.input_path = "/cc/in";
    config.output_prefix = "/cc/out" + std::to_string(run);
    config.map_tasks = kPartitions;
    config.reduce_tasks = kPartitions;
    const auto summary = cluster.run_chain(config);
    ASSERT_EQ(parse_parts(fs, summary.output_files), expected)
        << "minihadoop run " << run;
    ASSERT_EQ(summary.rounds.size(), static_cast<std::size_t>(kRounds))
        << "minihadoop run " << run;
  }
}

}  // namespace
}  // namespace mpid
