// Microbenchmarks of the real MPI-D library internals. These calibrate
// the cost constants of the cluster-scale mpidsim model: the map+combine
// throughput (map_cpu_bytes_per_second), the data-realignment rate
// (realign_bytes_per_second), and the end-to-end WordCount rate of the
// full library on in-process ranks.
#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/core/merge.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/workloads/text.hpp"

namespace {

using namespace mpid;

/// Data-realignment rate: serializing (key, value-list) groups into a
/// contiguous partition frame, the core of MPI_D_Send's spill path.
void BM_RealignKvList(benchmark::State& state) {
  const int groups = 2000;
  const int values_per_group = 8;
  std::vector<std::string> keys;
  keys.reserve(groups);
  for (int g = 0; g < groups; ++g) keys.push_back("key-" + std::to_string(g));
  const std::string value = "12345678";

  std::int64_t bytes = 0;
  for (auto _ : state) {
    common::KvListWriter writer;
    for (int g = 0; g < groups; ++g) {
      writer.begin_group(keys[static_cast<std::size_t>(g)], values_per_group);
      for (int v = 0; v < values_per_group; ++v) writer.add_value(value);
    }
    bytes += static_cast<std::int64_t>(writer.byte_size());
    benchmark::DoNotOptimize(writer.buffer().data());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_RealignKvList);

/// Reverse realignment: streaming groups back out of a frame.
void BM_ReverseRealign(benchmark::State& state) {
  common::KvListWriter writer;
  for (int g = 0; g < 2000; ++g) {
    writer.begin_group("key-" + std::to_string(g), 8);
    for (int v = 0; v < 8; ++v) writer.add_value("12345678");
  }
  const auto frame = writer.take();
  for (auto _ : state) {
    common::KvListReader reader(frame);
    std::size_t n = 0;
    while (auto group = reader.next()) n += group->values.size();
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ReverseRealign);

/// Reducer-side k-way merge rate over sorted frames (the merge phase).
void BM_SortedMerge(benchmark::State& state) {
  const int frames = static_cast<int>(state.range(0));
  std::vector<std::vector<std::byte>> prototypes;
  std::size_t total_bytes = 0;
  for (int f = 0; f < frames; ++f) {
    common::KvListWriter writer;
    for (int g = 0; g < 1000; ++g) {
      writer.begin_group("key-" + std::to_string(10000 + g * frames + f), 2);
      writer.add_value("v1");
      writer.add_value("v2");
    }
    prototypes.push_back(writer.take());
    total_bytes += prototypes.back().size();
  }
  for (auto _ : state) {
    core::SortedFrameMerger merger;
    for (const auto& frame : prototypes) {
      merger.add_frame(frame);  // copy: merger takes ownership
    }
    std::string key;
    std::vector<std::string> values;
    std::size_t groups = 0;
    while (merger.next_group(key, values)) ++groups;
    benchmark::DoNotOptimize(groups);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_bytes));
}
BENCHMARK(BM_SortedMerge)->Arg(2)->Arg(8)->Arg(32);

mapred::JobDef wordcount(bool with_combiner) {
  mapred::JobDef job;
  job.map = [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
      start = end + 1;
    }
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  mapred::ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
  if (with_combiner) {
    job.combiner = [](std::string_view, std::vector<std::string>&& values) {
      std::uint64_t total = 0;
      for (const auto& v : values) total += std::stoull(v);
      return std::vector<std::string>{std::to_string(total)};
    };
  }
  return job;
}

/// End-to-end WordCount through the real MPI-D library (threads, real
/// data): the map+combine throughput this reports is the basis for
/// SystemSpec::map_cpu_bytes_per_second (scaled for the 2011 testbed).
void BM_MpidWordCount(benchmark::State& state) {
  const bool combine = state.range(0) != 0;
  const auto threads = static_cast<std::size_t>(state.range(1));
  workloads::TextSpec text_spec;
  const std::uint64_t bytes = 4 * 1024 * 1024;
  const auto text = workloads::generate_text(text_spec, bytes, 42);
  const mapred::JobRunner runner(4, 2);
  auto job = wordcount(combine);
  job.tuning.map_threads = threads;

  std::uint64_t sent_bytes = 0, sent_pairs = 0, stall_ns = 0;
  std::uint64_t combine_ns = 0, spill_ns = 0, table_peak = 0;
  for (auto _ : state) {
    const auto result = runner.run_on_text(job, text);
    benchmark::DoNotOptimize(result.outputs.size());
    sent_bytes = result.report.totals.bytes_sent;
    sent_pairs = result.report.totals.pairs_after_combine;
    stall_ns += result.report.totals.flush_wait_ns;
    combine_ns += result.report.totals.combine_ns;
    spill_ns += result.report.totals.spill_ns;
    table_peak = result.report.totals.table_bytes_peak;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["intermediate_bytes"] = static_cast<double>(sent_bytes);
  state.counters["pairs_transmitted"] = static_cast<double>(sent_pairs);
  state.counters["mapper_stall_s"] = static_cast<double>(stall_ns) * 1e-9;
  state.counters["combine_s"] = static_cast<double>(combine_ns) * 1e-9;
  state.counters["spill_s"] = static_cast<double>(spill_ns) * 1e-9;
  state.counters["table_bytes_peak"] = static_cast<double>(table_peak);
}
BENCHMARK(BM_MpidWordCount)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4})
    ->ArgNames({"combiner", "threads"})
    ->Unit(benchmark::kMillisecond);

/// The same WordCount under a tight mpid::store memory budget (~1/10 of
/// the intermediate working set): map buffers drain under pressure and
/// the streaming-merge reducers spill to sorted runs, compact, and
/// external-merge from disk. The delta against BM_MpidWordCount is the
/// price of bounded RAM; the spill counters land in the JSON artifact.
void BM_MpidWordCountBudgeted(benchmark::State& state) {
  const auto text = workloads::generate_text({}, 4 * 1024 * 1024, 42);
  const mapred::JobRunner runner(4, 2);
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "mpid-bench-XXXXXX");
  const std::string spill_dir = ::mkdtemp(tmpl.data());

  auto job = wordcount(true);
  job.tuning.memory_budget_bytes = 64 * 1024;
  job.tuning.spill_dir = spill_dir;
  job.tuning.spill_page_bytes = shuffle::ShuffleOptions::kMinSpillPageBytes;

  core::Stats totals;
  for (auto _ : state) {
    const auto result = runner.run_on_text(job, text);
    benchmark::DoNotOptimize(result.outputs.size());
    totals = result.report.totals;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["spilled_disk_bytes"] =
      static_cast<double>(totals.bytes_spilled_disk);
  state.counters["spill_files"] = static_cast<double>(totals.spill_files);
  state.counters["merge_passes"] =
      static_cast<double>(totals.external_merge_passes);
  state.counters["spill_s"] = static_cast<double>(totals.spill_ns) * 1e-9;
  std::filesystem::remove_all(spill_dir);
}
BENCHMARK(BM_MpidWordCountBudgeted)->Unit(benchmark::kMillisecond);

/// The same WordCount through the hierarchical node-local aggregation
/// stage (DESIGN.md §14): 8 mappers at ranks_per_node per modeled node,
/// co-located streams merged by the leaders' combine trees before the
/// fabric. The merge rate this reports (bytes_pre_node_agg over
/// node_agg_merge_ns) calibrates
/// SystemSpec::node_agg_merge_bytes_per_second; the pre/post cut is the
/// structural traffic reduction at this corpus shape.
void BM_MpidWordCountNodeAgg(benchmark::State& state) {
  const auto ranks_per_node = static_cast<std::size_t>(state.range(0));
  workloads::TextSpec text_spec;
  text_spec.vocabulary = 1000;  // combiner-friendly: splits share the vocab
  const auto text = workloads::generate_text(text_spec, 4 * 1024 * 1024, 42);
  const mapred::JobRunner runner(8, 2);
  auto job = wordcount(true);
  job.tuning.node_aggregation = ranks_per_node > 1;
  job.tuning.ranks_per_node = ranks_per_node;

  core::Stats totals;
  for (auto _ : state) {
    const auto result = runner.run_on_text(job, text);
    benchmark::DoNotOptimize(result.outputs.size());
    totals = result.report.totals;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["fabric_bytes"] = static_cast<double>(totals.bytes_sent);
  state.counters["bytes_pre_node_agg"] =
      static_cast<double>(totals.bytes_pre_node_agg);
  state.counters["bytes_post_node_agg"] =
      static_cast<double>(totals.bytes_post_node_agg);
  state.counters["node_agg_merge_s"] =
      static_cast<double>(totals.node_agg_merge_ns) * 1e-9;
}
BENCHMARK(BM_MpidWordCountNodeAgg)
    ->Arg(1)
    ->Arg(4)
    ->ArgNames({"ranks_per_node"})
    ->Unit(benchmark::kMillisecond);

/// The same WordCount over the resilient shuffle while the transport
/// drops the given permille of data frames: the price of MPI-D fault
/// tolerance, with the recovery counters in the JSON artifact.
void BM_MpidWordCountResilient(benchmark::State& state) {
  const double drop = static_cast<double>(state.range(0)) / 1000.0;
  const auto text = workloads::generate_text({}, 2 * 1024 * 1024, 43);
  const mapred::JobRunner runner(4, 2);

  core::Stats totals;
  std::uint64_t faults = 0;
  for (auto _ : state) {
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.message_drop_prob = drop;
    auto inj = std::make_shared<fault::FaultInjector>(plan);
    auto job = wordcount(true);
    job.tuning.resilient_shuffle = true;
    job.tuning.fault_injector = inj;
    job.tuning.partition_frame_bytes = 4 * 1024;  // several frames per lane
    const auto result = runner.run_on_text(job, text);
    benchmark::DoNotOptimize(result.outputs.size());
    totals += result.report.totals;
    faults += inj->log().total();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.counters["mapper_stall_s"] =
      static_cast<double>(totals.flush_wait_ns) * 1e-9;
  state.counters["frames_retransmitted"] =
      static_cast<double>(totals.frames_retransmitted);
  state.counters["retransmit_requests"] =
      static_cast<double>(totals.retransmit_requests);
  state.counters["task_restarts"] = static_cast<double>(totals.task_restarts);
  state.counters["recovery_wall_s"] =
      static_cast<double>(totals.recovery_wall_ns) * 1e-9;
  state.counters["injected_faults"] = static_cast<double>(faults);
}
BENCHMARK(BM_MpidWordCountResilient)
    ->Arg(0)
    ->Arg(20)
    ->Arg(50)
    ->ArgNames({"drop_permille"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MPID_BENCHMARK_MAIN_JSON("micro_mpid")
