// The two-tier store end to end (DESIGN.md §13): the same WordCount runs
// unbounded and under a memory budget ~1/10 of the working set on BOTH
// runtimes — MPI-D (per-rank budgets, reducer external merge) and
// MiniHadoop (one shared budget across the tasktracker threads, SegmentStore
// disk tier + reducer external merge). Budgeted output must be
// byte-identical to unbounded output, real spilling must happen
// (bytes_spilled_disk > 0, multi-pass compaction when fanin is pinned
// low), and the spill directory must scan clean afterward — on success
// AND on the reducer-restart recovery path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "mpid-parity-XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { fs::remove_all(path); }
  std::size_t file_count() const {
    return static_cast<std::size_t>(
        std::distance(fs::directory_iterator(path), fs::directory_iterator{}));
  }
};

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

/// The budget every tight run uses: far below the ~100 KiB working set,
/// with the page floor so spills stay small, and fanin 2 so the run count
/// exceeds the final merge's fan-in and compaction passes actually run.
void arm_tight_budget(shuffle::ShuffleOptions& opts, const std::string& dir) {
  opts.memory_budget_bytes = 16 * 1024;
  opts.spill_dir = dir;
  opts.spill_page_bytes = shuffle::ShuffleOptions::kMinSpillPageBytes;
  opts.spill_merge_fanin = 2;
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

class SpillParityTest : public ::testing::TestWithParam<Variant> {};
INSTANTIATE_TEST_SUITE_P(
    Matrix, SpillParityTest,
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

TEST_P(SpillParityTest, MpidBudgetedOutputIsByteIdentical) {
  const auto v = GetParam();
  const auto text = workloads::generate_text({}, 96 * 1024, 777);

  mapred::JobDef job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.tuning.shuffle_compression = v.compression;
  job.tuning.map_threads = v.map_threads;
  mapred::JobRunner runner(/*mappers=*/4, /*reducers=*/2);
  const auto unbounded = runner.run_on_text(job, text);
  EXPECT_EQ(unbounded.report.totals.bytes_spilled_disk, 0u);

  TempDir dir;
  arm_tight_budget(job.tuning, dir.path);
  const auto budgeted = runner.run_on_text(job, text);

  EXPECT_EQ(budgeted.outputs, unbounded.outputs);
  EXPECT_GT(budgeted.report.totals.bytes_spilled_disk, 0u);
  EXPECT_GT(budgeted.report.totals.spill_files, 0u);
  EXPECT_GT(budgeted.report.totals.external_merge_passes, 0u);
  // Map buffers charge the budget at every thread count, so its pressure
  // spills them early.
  EXPECT_GT(budgeted.report.totals.spills, unbounded.report.totals.spills);
  // Temp-file hygiene: every run was removed when its reducer finished.
  EXPECT_EQ(dir.file_count(), 0u);
}

TEST_P(SpillParityTest, MiniHadoopBudgetedOutputIsByteIdentical) {
  const auto v = GetParam();
  const auto text = workloads::generate_text({}, 96 * 1024, 778);

  dfs::MiniDfs dfs(2);
  dfs.create("/in", text);
  minihadoop::MiniCluster cluster(dfs, /*trackers=*/2);
  minihadoop::MiniJobConfig config;
  config.map = wordcount_map();
  config.reduce = wordcount_reduce();
  config.input_path = "/in";
  config.map_tasks = 4;
  config.reduce_tasks = 2;
  config.shuffle_compression = v.compression;
  config.map_threads = v.map_threads;

  config.output_prefix = "/unbounded";
  const auto unbounded = cluster.run(config);
  EXPECT_EQ(unbounded.bytes_spilled_disk, 0u);

  TempDir dir;
  arm_tight_budget(config, dir.path);
  config.output_prefix = "/budgeted";
  const auto budgeted = cluster.run(config);

  ASSERT_EQ(budgeted.output_files.size(), unbounded.output_files.size());
  for (std::size_t i = 0; i < budgeted.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(budgeted.output_files[i]),
              dfs.read(unbounded.output_files[i]));
  }
  // One shared budget covers map buffers, the segment store and the
  // reducers, so something in that chain must have hit the disk tier.
  EXPECT_GT(budgeted.bytes_spilled_disk, 0u);
  EXPECT_GT(budgeted.spill_files, 0u);
  EXPECT_GT(budgeted.spills, unbounded.spills);
  EXPECT_EQ(dir.file_count(), 0u);
}

TEST(SpillParityTest, SortJobStaysByteIdenticalUnderBudget) {
  // The paper's other Figure-6-class workload: a sort. Identity-style
  // map (every word keyed by itself, valued by its source mapper) and
  // identity reduce; the merge phase does the actual sorting, so this
  // leans on the external merge's ordering contract much harder than
  // WordCount's commutative sums do.
  const auto text = workloads::generate_text({}, 64 * 1024, 781);
  const auto sort_map = [](std::string_view line, mapred::MapContext& ctx) {
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
  const auto sort_reduce = [](std::string_view key,
                              std::span<const std::string> values,
                              mapred::ReduceContext& ctx) {
    for (const auto& v : values) ctx.emit(key, v);
  };

  // MPI-D.
  mapred::JobDef job;
  job.map = sort_map;
  job.reduce = sort_reduce;
  mapred::JobRunner runner(4, 2);
  const auto unbounded = runner.run_on_text(job, text);
  TempDir dir;
  arm_tight_budget(job.tuning, dir.path);
  const auto budgeted = runner.run_on_text(job, text);
  EXPECT_EQ(budgeted.outputs, unbounded.outputs);
  EXPECT_GT(budgeted.report.totals.bytes_spilled_disk, 0u);
  EXPECT_EQ(dir.file_count(), 0u);

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
  config.output_prefix = "/unbounded";
  const auto h_unbounded = cluster.run(config);
  TempDir hdir;
  arm_tight_budget(config, hdir.path);
  config.output_prefix = "/budgeted";
  const auto h_budgeted = cluster.run(config);
  ASSERT_EQ(h_budgeted.output_files.size(), h_unbounded.output_files.size());
  for (std::size_t i = 0; i < h_budgeted.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(h_budgeted.output_files[i]),
              dfs.read(h_unbounded.output_files[i]));
  }
  EXPECT_GT(h_budgeted.bytes_spilled_disk, 0u);
  EXPECT_EQ(hdir.file_count(), 0u);
}

TEST(SpillParityTest, MpidReducerRestartRereadsSpilledRuns) {
  // A reducer dies mid-shuffle with the disk tier engaged: the restarted
  // attempt re-arms a fresh merger (the crashed attempt's runs are
  // RAII-removed) and must still converge to the fault-free output.
  const auto text = workloads::generate_text({}, 96 * 1024, 779);

  mapred::JobDef job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  mapred::JobRunner runner(/*mappers=*/4, /*reducers=*/2);
  const auto clean = runner.run_on_text(job, text);

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  TempDir dir;
  arm_tight_budget(job.tuning, dir.path);
  job.tuning.resilient_shuffle = true;
  job.tuning.fault_injector = inj;
  job.tuning.partition_frame_bytes = 4 * 1024;  // several frames per lane
  const auto recovered = runner.run_on_text(job, text);

  EXPECT_EQ(recovered.outputs, clean.outputs);
  EXPECT_GE(recovered.report.totals.task_restarts, 1u);
  EXPECT_EQ(inj->log().count(fault::Kind::kTaskCrash), 1u);
  EXPECT_GT(recovered.report.totals.bytes_spilled_disk, 0u);
  EXPECT_EQ(dir.file_count(), 0u);
}

TEST(SpillParityTest, MiniHadoopRecoversUnderBudgetAndFaults) {
  // Tasktracker re-execution with the shared budget armed: spilled
  // segments from a committed map attempt keep serving fetches while a
  // crashed map and a crashed reduce re-execute.
  const auto text = workloads::generate_text({}, 96 * 1024, 780);

  dfs::MiniDfs dfs(2);
  dfs.create("/in", text);
  minihadoop::MiniCluster cluster(dfs, 2);
  minihadoop::MiniJobConfig config;
  config.map = wordcount_map();
  config.reduce = wordcount_reduce();
  config.input_path = "/in";
  config.map_tasks = 4;
  config.reduce_tasks = 2;
  config.output_prefix = "/clean";
  const auto clean = cluster.run(config);

  fault::FaultPlan plan;
  plan.seed = 77;
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 3});
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  TempDir dir;
  arm_tight_budget(config, dir.path);
  config.output_prefix = "/faulted";
  config.fault_injector = inj;
  const auto recovered = cluster.run(config);

  ASSERT_EQ(recovered.output_files.size(), clean.output_files.size());
  for (std::size_t i = 0; i < recovered.output_files.size(); ++i) {
    EXPECT_EQ(dfs.read(recovered.output_files[i]),
              dfs.read(clean.output_files[i]));
  }
  EXPECT_EQ(recovered.map_reexecutions, 1u);
  EXPECT_EQ(recovered.reduce_reexecutions, 1u);
  EXPECT_GT(recovered.bytes_spilled_disk, 0u);
  EXPECT_EQ(dir.file_count(), 0u);
}

}  // namespace
}  // namespace mpid
