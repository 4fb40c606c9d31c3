// Hierarchical node aggregation end to end (DESIGN.md §14): the same
// job runs with the in-node combine tree off and on, on BOTH runtimes —
// MPI-D (co-located ranks stage through their node leader) and
// MiniHadoop (the tasktracker servlet serves one merged stream per
// reducer). Aggregated output must be byte-identical to the direct
// shuffle, the structural counters must show bytes leaving the node
// shrinking (bytes_post_node_agg < bytes_pre_node_agg), and the cut must
// survive composition with compression, map threads, value-order-
// sensitive merges and reducer restart. A composition matrix runs a
// value-order-sensitive sort job through every cell of compression ×
// node aggregation × map threads against its serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/input.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid {
namespace {

mapred::MapFn wordcount_map() {
  return [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
      start = end + 1;
    }
  };
}

mapred::ReduceFn wordcount_reduce() {
  return [](std::string_view key, std::span<const std::string> values,
            mapred::ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
}

shuffle::Combiner wordcount_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// Value-order sensitive: each mapper tags every word with its own index
/// and the reduce sorts the tags, so a merge that interleaves the mappers'
/// values differently from the serial order still matches it.
mapred::MapFn tagging_map() {
  return [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) {
        ctx.emit(line.substr(start, end - start),
                 std::to_string(ctx.mapper_index()));
      }
      start = end + 1;
    }
  };
}

mapred::ReduceFn sorting_reduce() {
  return [](std::string_view key, std::span<const std::string> values,
            mapred::ReduceContext& ctx) {
    std::vector<std::string> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& v : sorted) ctx.emit(key, v);
  };
}

/// The tagging sort job run serially over the splits JobRunner::run_on_text
/// hands its `mappers` mappers.
mapred::KvVec tagging_reference(std::string_view text, int mappers) {
  const auto map = tagging_map();
  const auto reduce = sorting_reduce();
  std::map<std::string, std::vector<std::string>, std::less<>> groups;
  const auto splits = mapred::split_text(text, mappers);
  for (std::size_t m = 0; m < splits.size(); ++m) {
    mapred::MapContext ctx(
        [&](std::string_view k, std::string_view v) {
          groups[std::string(k)].emplace_back(v);
        },
        static_cast<int>(m));
    mapred::LineReader lines(splits[m]);
    while (auto line = lines.next()) map(*line, ctx);
  }
  mapred::ReduceContext reduce_ctx(0);
  for (const auto& [key, values] : groups) reduce(key, values, reduce_ctx);
  mapred::KvVec out = reduce_ctx.take_emitted();
  std::sort(out.begin(), out.end());
  return out;
}

/// A combiner-friendly corpus: a small vocabulary so every split covers
/// most of it and co-located mappers genuinely share keys.
std::string corpus(std::uint64_t seed) {
  workloads::TextSpec spec;
  spec.vocabulary = 500;
  return workloads::generate_text(spec, 64 * 1024, seed);
}

struct Variant {
  shuffle::ShuffleCompression compression;
  // gtest names each case by printing the parameter's bytes, so the
  // padding is an explicit zero field: left implicit, it held whatever
  // was on the stack and the case names changed from run to run.
  std::uint32_t padding = 0;
  std::size_t map_threads;
};
static_assert(std::has_unique_object_representations_v<Variant>);

class NodeAggParityTest : public ::testing::TestWithParam<Variant> {};
INSTANTIATE_TEST_SUITE_P(
    Matrix, NodeAggParityTest,
    ::testing::Values(
        Variant{.compression = shuffle::ShuffleCompression::kOff,
                .map_threads = 1},
        Variant{.compression = shuffle::ShuffleCompression::kOff,
                .map_threads = 4},
        Variant{.compression = shuffle::ShuffleCompression::kAuto,
                .map_threads = 1},
        Variant{.compression = shuffle::ShuffleCompression::kOn,
                .map_threads = 1},
        Variant{.compression = shuffle::ShuffleCompression::kOn,
                .map_threads = 4}));

TEST_P(NodeAggParityTest, MpidAggregatedOutputIsByteIdentical) {
  const auto v = GetParam();
  const auto text = corpus(801);

  mapred::JobDef job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.combiner = wordcount_combiner();
  job.tuning.shuffle_compression = v.compression;
  job.tuning.map_threads = v.map_threads;
  mapred::JobRunner runner(/*mappers=*/4, /*reducers=*/2);
  const auto direct = runner.run_on_text(job, text);
  EXPECT_EQ(direct.report.totals.bytes_pre_node_agg, 0u);

  job.tuning.node_aggregation = true;
  job.tuning.ranks_per_node = 2;  // 4 ranks = 2 modeled nodes
  const auto aggregated = runner.run_on_text(job, text);

  EXPECT_EQ(aggregated.outputs, direct.outputs);
  EXPECT_GT(aggregated.report.totals.bytes_pre_node_agg, 0u);
  EXPECT_GT(aggregated.report.totals.bytes_pre_node_agg,
            aggregated.report.totals.bytes_post_node_agg)
      << "co-located mappers share keys, so the merge must shrink bytes";
  EXPECT_GT(aggregated.report.totals.node_agg_merge_ns, 0u);
}

TEST_P(NodeAggParityTest, MiniHadoopAggregatedOutputIsByteIdentical) {
  const auto v = GetParam();
  const auto text = corpus(802);

  dfs::MiniDfs dfs(2);
  dfs.create("/in", text);
  minihadoop::MiniCluster cluster(dfs, /*trackers=*/2);
  minihadoop::MiniJobConfig config;
  config.map = wordcount_map();
  config.reduce = wordcount_reduce();
  config.combiner = wordcount_combiner();
  config.input_path = "/in";
  config.map_tasks = 4;
  config.reduce_tasks = 2;
  config.shuffle_compression = v.compression;
  config.map_threads = v.map_threads;

  config.output_prefix = "/direct";
  const auto direct = cluster.run(config);
  EXPECT_EQ(direct.bytes_pre_node_agg, 0u);

  config.node_aggregation = true;
  config.output_prefix = "/aggregated";
  const auto aggregated = cluster.run(config);

  ASSERT_EQ(aggregated.output_files.size(), direct.output_files.size());
  for (std::size_t i = 0; i < aggregated.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(aggregated.output_files[i]),
              dfs.read(direct.output_files[i]));
  }
  EXPECT_GT(aggregated.bytes_pre_node_agg, aggregated.bytes_post_node_agg);
  // One merged stream per (tracker serving maps, reducer) instead of one
  // per (map, reducer). Which trackers ran maps is up to scheduling, so
  // the count follows the reported placement.
  EXPECT_GE(aggregated.map_trackers, 1u);
  EXPECT_LE(aggregated.map_trackers, 2u);
  EXPECT_EQ(aggregated.shuffle_requests,
            aggregated.map_trackers * config.reduce_tasks);
  EXPECT_EQ(direct.shuffle_requests, 4u * 2u);
}

TEST(NodeAggParityTest, MiniHadoopSingleTrackerFetchesOneStreamPerReducer) {
  // The placement the two-tracker case can fall into when one tracker
  // takes every map: all four segments come back as one merged stream
  // per reducer.
  const auto text = corpus(804);
  dfs::MiniDfs dfs(2);
  dfs.create("/in", text);
  minihadoop::MiniCluster cluster(dfs, /*trackers=*/1);
  minihadoop::MiniJobConfig config;
  config.map = wordcount_map();
  config.reduce = wordcount_reduce();
  config.combiner = wordcount_combiner();
  config.input_path = "/in";
  config.map_tasks = 4;
  config.reduce_tasks = 2;
  config.output_prefix = "/direct";
  const auto direct = cluster.run(config);
  config.node_aggregation = true;
  config.output_prefix = "/aggregated";
  const auto aggregated = cluster.run(config);

  ASSERT_EQ(aggregated.output_files.size(), direct.output_files.size());
  for (std::size_t i = 0; i < aggregated.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(aggregated.output_files[i]),
              dfs.read(direct.output_files[i]));
  }
  EXPECT_EQ(direct.map_trackers, 1u);
  EXPECT_EQ(aggregated.map_trackers, 1u);
  EXPECT_EQ(aggregated.shuffle_requests, 2u);
  EXPECT_EQ(direct.shuffle_requests, 4u * 2u);
}

TEST(NodeAggParityTest, SortJobStaysByteIdenticalWhenValuesAreOrdered) {
  // Aggregation concatenates a key's values in member order, which is a
  // DIFFERENT interleaving than per-mapper fetch order — exactly the
  // hazard a value-order-sensitive job exposes. A reduce that orders its
  // values (the documented contract for aggregation-safe jobs) must get
  // byte-identical output on both runtimes.
  const auto text = corpus(803);
  const auto sort_map = tagging_map();
  const auto sort_reduce = sorting_reduce();

  // MPI-D.
  mapred::JobDef job;
  job.map = sort_map;
  job.reduce = sort_reduce;
  mapred::JobRunner runner(4, 2);
  const auto direct = runner.run_on_text(job, text);
  job.tuning.node_aggregation = true;
  job.tuning.ranks_per_node = 2;
  const auto aggregated = runner.run_on_text(job, text);
  EXPECT_EQ(aggregated.outputs, direct.outputs);
  // No combiner: the merge only dedups key bytes, but it must not grow.
  EXPECT_GE(aggregated.report.totals.bytes_pre_node_agg,
            aggregated.report.totals.bytes_post_node_agg);

  // MiniHadoop.
  dfs::MiniDfs dfs(2);
  dfs.create("/in", text);
  minihadoop::MiniCluster cluster(dfs, 2);
  minihadoop::MiniJobConfig config;
  config.map = sort_map;
  config.reduce = sort_reduce;
  config.input_path = "/in";
  config.map_tasks = 4;
  config.reduce_tasks = 2;
  config.output_prefix = "/direct";
  const auto h_direct = cluster.run(config);
  config.node_aggregation = true;
  config.output_prefix = "/aggregated";
  const auto h_aggregated = cluster.run(config);
  ASSERT_EQ(h_aggregated.output_files.size(), h_direct.output_files.size());
  for (std::size_t i = 0; i < h_aggregated.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(h_aggregated.output_files[i]),
              dfs.read(h_direct.output_files[i]));
  }
}

TEST(NodeAggParityTest, MpidReducerRestartRepullsAggregatedLanes) {
  // A reducer dies mid-shuffle with aggregation on: the restarted
  // attempt re-pulls ONLY the node leaders' lanes (the retained merged
  // frames), and must converge to the clean aggregated output.
  const auto text = corpus(804);

  mapred::JobDef job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.combiner = wordcount_combiner();
  job.tuning.node_aggregation = true;
  job.tuning.ranks_per_node = 2;
  mapred::JobRunner runner(/*mappers=*/4, /*reducers=*/2);
  const auto clean = runner.run_on_text(job, text);

  fault::FaultPlan plan;
  plan.seed = 43;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  job.tuning.resilient_shuffle = true;
  job.tuning.fault_injector = inj;
  job.tuning.partition_frame_bytes = 4 * 1024;  // several frames per lane
  const auto recovered = runner.run_on_text(job, text);

  EXPECT_EQ(recovered.outputs, clean.outputs);
  EXPECT_GE(recovered.report.totals.task_restarts, 1u);
  EXPECT_EQ(inj->log().count(fault::Kind::kTaskCrash), 1u);
  EXPECT_GT(recovered.report.totals.bytes_pre_node_agg,
            recovered.report.totals.bytes_post_node_agg);
}

// (compression, node_aggregation, map_threads, reducers)
using Composition =
    std::tuple<shuffle::ShuffleCompression, bool, std::size_t, int>;

std::string composition_name(
    const ::testing::TestParamInfo<Composition>& info) {
  const auto [compression, node_agg, threads, reducers] = info.param;
  const char* codec = compression == shuffle::ShuffleCompression::kOff ? "off"
                      : compression == shuffle::ShuffleCompression::kAuto
                          ? "auto"
                          : "on";
  return std::string("codec_") + codec + (node_agg ? "_agg" : "_direct") +
         "_threads" + std::to_string(threads) + "_reducers" +
         std::to_string(reducers);
}

class CompositionParityTest : public ::testing::TestWithParam<Composition> {};
INSTANTIATE_TEST_SUITE_P(
    Matrix, CompositionParityTest,
    ::testing::Combine(
        ::testing::Values(shuffle::ShuffleCompression::kOff,
                          shuffle::ShuffleCompression::kAuto,
                          shuffle::ShuffleCompression::kOn),
        ::testing::Bool(), ::testing::Values(std::size_t{1}, std::size_t{4}),
        // Fewer reducers than mappers, and more.
        ::testing::Values(2, 6)),
    composition_name);

TEST_P(CompositionParityTest, SortJobMatchesSerialReference) {
  const auto [compression, node_agg, threads, reducers] = GetParam();
  const auto text = corpus(901);

  mapred::JobDef job;
  job.map = tagging_map();
  job.reduce = sorting_reduce();
  job.tuning.shuffle_compression = compression;
  job.tuning.map_threads = threads;
  if (node_agg) {
    job.tuning.node_aggregation = true;
    job.tuning.ranks_per_node = 2;  // 4 mappers = 2 modeled nodes
  }
  constexpr int kMappers = 4;
  mapred::JobRunner runner(kMappers, reducers);
  const auto result = runner.run_on_text(job, text);

  EXPECT_EQ(result.outputs, tagging_reference(text, kMappers));
  // No combiner: every pair a mapper sends reaches a reduce.
  EXPECT_GT(result.report.totals.pairs_sent, 0u);
  EXPECT_EQ(result.report.totals.pairs_received,
            result.report.totals.pairs_sent);
  ASSERT_EQ(result.report.round_totals.size(), 1u);
  EXPECT_EQ(result.report.round_totals[0].pairs_received,
            result.report.totals.pairs_received);
  if (node_agg) {
    EXPECT_GE(result.report.totals.bytes_pre_node_agg,
              result.report.totals.bytes_post_node_agg);
  }
}

}  // namespace
}  // namespace mpid
