// Microbenchmark of the map-side combine buffer: KvCombineTable (flat
// slots + key arena + value slabs) against the legacy node-based
// unordered_map, over the full spill duty cycle both runtimes drive —
// append pairs, combine incrementally, drain into partition frames,
// recycle, repeat.
//
// The key streams are pre-generated (uniform and Zipf-1.0 over the same
// key space) so the loop times only the buffer, and every stream is
// seeded — the flat/legacy comparison sees identical input.
#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/common/kvtable.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/common/zipf.hpp"

namespace {

using namespace mpid;

constexpr std::size_t kPairs = 256 * 1024;  // one duty cycle
constexpr std::size_t kSpillEvery = 128 * 1024;  // ~runtime spill cadence
constexpr std::uint64_t kKeySpace = 100000;  // WordCount-scale vocabulary
constexpr std::uint32_t kPartitions = 4;
constexpr std::size_t kCombineThreshold = 64;  // the runtimes' default

std::vector<std::string> make_stream(bool zipf, std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  common::ZipfSampler sampler(kKeySpace, 1.0);
  std::vector<std::string> keys;
  keys.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto rank = zipf ? sampler(rng) : 1 + rng.next_below(kKeySpace);
    keys.push_back("key-" + std::to_string(rank));
  }
  return keys;
}

std::vector<std::string> sum_combine(std::string_view,
                                     std::vector<std::string>&& values) {
  // Hand-rolled decimal sum: the benchmark measures the buffer, so the
  // combiner itself stays minimal (std::stoull's locale machinery would
  // dominate and mask the per-pair cost difference).
  std::uint64_t total = 0;
  for (const auto& v : values) {
    std::uint64_t n = 0;
    for (const char c : v) n = n * 10 + static_cast<std::uint64_t>(c - '0');
    total += n;
  }
  return {std::to_string(total)};
}

/// Legacy buffer: the node-based map both runtimes used before the flat
/// table, driven with the same incremental-combine/spill discipline.
void BM_LegacyUnorderedMap(benchmark::State& state) {
  const bool zipf = state.range(0) != 0;
  const bool combine = state.range(1) != 0;
  const auto keys = make_stream(zipf, 1234);

  // The runtime's legacy entry (MpiD::ValueList): the value vector plus a
  // running byte count that feeds the spill-threshold accounting.
  struct ValueList {
    std::vector<std::string> values;
    std::size_t bytes = 0;
  };
  std::unordered_map<std::string, ValueList, common::TransparentStringHash,
                     common::TransparentStringEq>
      buffer;
  std::vector<common::KvListWriter> writers(kPartitions);
  std::size_t buffered_bytes = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPairs; ++i) {
      const auto& key = keys[i];
      auto& list = buffer[key];
      if (list.values.empty()) buffered_bytes += key.size() + 64;
      list.values.emplace_back("1");
      list.bytes += 1;
      buffered_bytes += 1;
      if (combine && list.values.size() >= kCombineThreshold) {
        // MpiD::run_combiner: combine, then recount the entry's bytes.
        const std::size_t before = list.bytes;
        list.values = sum_combine(key, std::move(list.values));
        list.bytes = 0;
        for (const auto& v : list.values) list.bytes += v.size();
        buffered_bytes -= std::min(buffered_bytes, before - list.bytes);
      }
      if ((i + 1) % kSpillEvery == 0) {
        // The legacy spill discipline (MpiD::spill_legacy): drain the map
        // into a vector, then combine and realign each entry.
        std::vector<std::pair<std::string, ValueList>> entries;
        entries.reserve(buffer.size());
        for (auto& [k, list_] : buffer) {
          entries.emplace_back(k, std::move(list_));
        }
        buffer.clear();
        benchmark::DoNotOptimize(buffered_bytes);
        buffered_bytes = 0;
        for (auto& [k, list_] : entries) {
          auto values = std::move(list_.values);
          if (combine) values = sum_combine(k, std::move(values));
          auto& w = writers[common::fnv1a64(k) % kPartitions];
          w.begin_group(k, values.size());
          for (const auto& v : values) w.add_value(v);
        }
        std::size_t bytes = 0;
        for (auto& w : writers) {
          bytes += w.byte_size();
          w.clear();
        }
        benchmark::DoNotOptimize(bytes);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
}
BENCHMARK(BM_LegacyUnorderedMap)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"zipf", "combiner"});

/// The flat table over the identical stream and discipline.
void BM_KvCombineTable(benchmark::State& state) {
  const bool zipf = state.range(0) != 0;
  const bool combine = state.range(1) != 0;
  const auto keys = make_stream(zipf, 1234);

  common::KvCombineTable table;
  std::vector<std::string> scratch;
  std::vector<common::KvListWriter> writers(kPartitions);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPairs; ++i) {
      const auto& key = keys[i];
      const auto count = table.append(key, "1");
      if (combine && count >= kCombineThreshold) {
        // MpiD::combine_flat_entry: the append's dense index addresses
        // the combine cycle, so it costs no further probes.
        const auto index = table.last_index();
        scratch.clear();
        auto cursor = table.entry_at(index).values;
        while (auto v = cursor.next()) scratch.emplace_back(*v);
        scratch = sum_combine(key, std::move(scratch));
        table.replace_at(index, scratch);
      }
      if ((i + 1) % kSpillEvery == 0) {
        // The flat spill discipline (MpiD::spill_flat): stream each entry
        // from its slab chain, materializing only when a combiner runs.
        table.for_each(false, [&](const common::KvCombineTable::EntryView& e) {
          auto& w = writers[e.key_hash % kPartitions];
          if (combine && e.value_count > 1) {
            scratch.clear();
            auto cursor = e.values;
            while (auto v = cursor.next()) scratch.emplace_back(*v);
            scratch = sum_combine(e.key, std::move(scratch));
            w.begin_group(e.key, scratch.size());
            for (const auto& v : scratch) w.add_value(v);
          } else {
            w.begin_group(e.key, e.value_count);
            auto cursor = e.values;
            cursor.drain_to(w);  // raw block copy: slabs are wire format
          }
        });
        table.recycle();
        std::size_t bytes = 0;
        for (auto& w : writers) {
          bytes += w.byte_size();
          w.clear();
        }
        benchmark::DoNotOptimize(bytes);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPairs));
  state.counters["table_bytes_peak"] = static_cast<double>(table.bytes_peak());
  state.counters["rehashes"] =
      static_cast<double>(table.counters().rehashes);
  state.counters["block_reuses"] =
      static_cast<double>(table.counters().block_reuses);
}
BENCHMARK(BM_KvCombineTable)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"zipf", "combiner"});

/// TeraSort-shaped map output: unique 10-byte printable keys, 90-byte
/// values, one spill's worth (~1.6 MB).
constexpr std::size_t kSortRecords = 16 * 1024;

std::vector<std::pair<std::string, std::string>> make_sort_records(
    std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  const auto printable = [&](std::size_t n) {
    std::string s(n, ' ');
    for (auto& c : s) c = static_cast<char>(' ' + rng.next_below(95));
    return s;
  };
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(kSortRecords);
  for (std::size_t i = 0; i < kSortRecords; ++i) {
    auto key = printable(10);  // before the value: argument order is free
    records.emplace_back(std::move(key), printable(90));
  }
  return records;
}

/// Sorted drain (Hadoop-style spills): the prefix sort is the only extra
/// work, entries never move. unique:0 is the Zipf WordCount stream
/// (short keys, many repeats); unique:1 is TeraSort-shaped.
void BM_KvCombineTableSortedSpill(benchmark::State& state) {
  const bool unique = state.range(0) != 0;
  std::vector<std::pair<std::string, std::string>> pairs;
  if (unique) {
    pairs = make_sort_records(77);
  } else {
    for (auto& key : make_stream(true, 77)) pairs.emplace_back(key, "1");
  }
  common::KvCombineTable table;
  common::KvListWriter writer;
  for (auto _ : state) {
    for (const auto& [key, value] : pairs) table.append(key, value);
    table.for_each(true, [&](const common::KvCombineTable::EntryView& e) {
      writer.begin_group(e.key, e.value_count);
      auto cursor = e.values;
      cursor.drain_to(writer);
    });
    table.recycle();
    benchmark::DoNotOptimize(writer.byte_size());
    writer.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_KvCombineTableSortedSpill)->Arg(0)->Arg(1)->ArgName("unique");

}  // namespace

MPID_BENCHMARK_MAIN_JSON("micro_kvtable")
