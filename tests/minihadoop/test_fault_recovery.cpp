// MiniHadoop under injected faults: task crashes re-execute, stragglers
// get speculative twins, lost trackers are detected and drained, shuffle
// fetches retry — and in every case the job's DFS output is byte-identical
// to a fault-free run.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid::minihadoop {
namespace {

using namespace std::chrono_literals;

MiniJobConfig wordcount_config(const std::string& input,
                               const std::string& output_prefix) {
  MiniJobConfig job;
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
  job.input_path = input;
  job.output_prefix = output_prefix;
  job.map_tasks = 4;
  job.reduce_tasks = 2;
  return job;
}

/// Output bodies in part order — byte-exact job result.
std::vector<std::string> read_parts(dfs::MiniDfs& fs,
                                    const std::vector<std::string>& files) {
  std::vector<std::string> bodies;
  for (const auto& path : files) bodies.push_back(fs.read(path));
  return bodies;
}

TEST(MiniHadoopFaults, ScriptedMapAndReduceCrashMidJob) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 64 * 1024, 900));
  MiniCluster cluster(fs, 2);
  // A map attempt runs the same driver at every thread count; at 4 the
  // crash tick is shared by the chunks running on the worker pool.
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("map_threads=" + std::to_string(threads));
    auto clean_job = wordcount_config("/in", "/clean");
    clean_job.map_threads = threads;
    const auto clean = cluster.run(clean_job);

    fault::FaultPlan plan;
    plan.seed = 21;
    // Map 1 dies after 2 input lines; reduce 0 dies after fetching its
    // first segment — mid-shuffle. Both are requeued and re-executed.
    plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 2});
    plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 1});
    auto inj = std::make_shared<fault::FaultInjector>(plan);
    auto job = wordcount_config("/in", "/faulted");
    job.map_threads = threads;
    job.fault_injector = inj;
    const auto faulted = cluster.run(job);

    EXPECT_EQ(read_parts(fs, clean.output_files),
              read_parts(fs, faulted.output_files));
    EXPECT_EQ(faulted.map_reexecutions, 1u);
    EXPECT_EQ(faulted.reduce_reexecutions, 1u);
    EXPECT_EQ(inj->log().count(fault::Kind::kTaskCrash), 2u);
    EXPECT_GE(inj->log().count(fault::Kind::kTaskReexec), 2u);
    EXPECT_GT(faulted.recovery_wall_ns, 0u);
    EXPECT_EQ(clean.pairs_after_combine, faulted.pairs_after_combine);
  }
}

TEST(MiniHadoopFaults, SpeculativeTwinOutrunsStraggler) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 16 * 1024, 901));
  MiniCluster cluster(fs, 2);
  auto clean_job = wordcount_config("/in", "/clean");
  clean_job.map_tasks = 1;
  clean_job.reduce_tasks = 1;
  const auto clean = cluster.run(clean_job);

  fault::FaultPlan plan;
  plan.seed = 5;
  plan.straggler_prob = 1.0;  // attempt 0 of every task crawls...
  plan.straggle = 150ms;      // ...the speculative twin runs full speed
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  auto job = wordcount_config("/in", "/spec");
  job.map_tasks = 1;
  job.reduce_tasks = 1;
  job.fault_injector = inj;
  job.speculative_threshold = 10ms;
  const auto faulted = cluster.run(job);

  EXPECT_EQ(read_parts(fs, clean.output_files),
            read_parts(fs, faulted.output_files));
  EXPECT_GE(faulted.speculative_launches, 1u);
  EXPECT_GE(inj->log().count(fault::Kind::kSpeculativeLaunch), 1u);
  EXPECT_GT(inj->log().count(fault::Kind::kTaskStraggle), 0u);
  // Exactly one attempt per task committed: counters must not double.
  EXPECT_EQ(clean.pairs_after_combine, faulted.pairs_after_combine);
  EXPECT_EQ(clean.shuffle_requests, faulted.shuffle_requests);
}

TEST(MiniHadoopFaults, ShuffleFetchErrorsRetryAndRecover) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 48 * 1024, 902));
  MiniCluster cluster(fs, 2);
  // Both fetch shapes share one retry loop: a GET per map segment, and
  // with node aggregation a GET per (tracker, reduce) merged stream.
  for (const bool node_aggregation : {false, true}) {
    SCOPED_TRACE(node_aggregation ? "node_aggregation" : "per-map fetch");
    auto clean_job = wordcount_config("/in", "/clean");
    clean_job.node_aggregation = node_aggregation;
    const auto clean = cluster.run(clean_job);

    fault::FaultPlan plan;
    plan.seed = 31;
    // Which maps share a tracker varies from run to run, so the aggregated
    // shape may fetch only map 0's group per reduce. At this seed the
    // first fetch of map 0 for reduce 0 fails at 0.5 (not at 0.4), so
    // both shapes retry on every run.
    plan.fetch_error_prob = node_aggregation ? 0.5 : 0.4;
    auto inj = std::make_shared<fault::FaultInjector>(plan);
    auto job = wordcount_config("/in", "/fetchy");
    job.node_aggregation = node_aggregation;
    job.fault_injector = inj;
    const auto faulted = cluster.run(job);

    EXPECT_EQ(read_parts(fs, clean.output_files),
              read_parts(fs, faulted.output_files));
    EXPECT_GT(faulted.shuffle_fetch_retries, 0u);
    EXPECT_GT(inj->log().count(fault::Kind::kFetchError), 0u);
    EXPECT_GT(inj->log().count(fault::Kind::kFetchRetry), 0u);
    // Only the GET that succeeds counts, and only its accounting folds.
    // The merged streams are compared through what grouping cannot change.
    const std::uint64_t sources =
        node_aggregation ? faulted.map_trackers
                         : static_cast<std::uint64_t>(job.map_tasks);
    EXPECT_EQ(faulted.shuffle_requests,
              sources * static_cast<std::uint64_t>(job.reduce_tasks));
    EXPECT_EQ(faulted.bytes_pre_node_agg, clean.bytes_pre_node_agg);
    if (node_aggregation) {
      EXPECT_GT(faulted.bytes_post_node_agg, 0u);
      EXPECT_EQ(faulted.shuffled_bytes, faulted.bytes_post_node_agg);
    }
  }
}

TEST(MiniHadoopFaults, DroppedHeartbeatsAreRetried) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 32 * 1024, 903));
  MiniCluster cluster(fs, 2);
  const auto clean = cluster.run(wordcount_config("/in", "/clean"));

  fault::FaultPlan plan;
  plan.seed = 41;
  plan.heartbeat_drop_prob = 0.3;
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  auto job = wordcount_config("/in", "/hb");
  job.fault_injector = inj;
  const auto faulted = cluster.run(job);

  EXPECT_EQ(read_parts(fs, clean.output_files),
            read_parts(fs, faulted.output_files));
  EXPECT_GT(faulted.heartbeat_errors, 0u);
  EXPECT_GT(inj->log().count(fault::Kind::kHeartbeatDrop), 0u);
}

TEST(MiniHadoopFaults, SilentTrackerIsDeclaredLostAndDrained) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 16 * 1024, 904));
  MiniCluster cluster(fs, 2);
  auto clean_job = wordcount_config("/in", "/clean");
  clean_job.map_tasks = 1;
  clean_job.reduce_tasks = 1;
  const auto clean = cluster.run(clean_job);

  // One tracker goes quiet: its only task straggles for 300ms, during
  // which it cannot heartbeat (the tracker loop is synchronous, like a
  // tasktracker wedged in user code). The 40ms expiry declares it lost
  // and the idle tracker re-executes the task.
  fault::FaultPlan plan;
  plan.seed = 51;
  plan.straggler_prob = 1.0;
  plan.straggle = 300ms;
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  auto job = wordcount_config("/in", "/lost");
  job.map_tasks = 1;
  job.reduce_tasks = 1;
  job.fault_injector = inj;
  job.tracker_timeout = 40ms;
  job.speculative_execution = false;  // isolate the lost-tracker path
  const auto faulted = cluster.run(job);

  EXPECT_EQ(read_parts(fs, clean.output_files),
            read_parts(fs, faulted.output_files));
  EXPECT_GE(faulted.trackers_timed_out, 1u);
  EXPECT_GE(faulted.map_reexecutions + faulted.reduce_reexecutions, 1u);
  EXPECT_GE(inj->log().count(fault::Kind::kLostTracker), 1u);
  EXPECT_EQ(clean.pairs_after_combine, faulted.pairs_after_combine);
}

TEST(MiniHadoopFaults, TaskExhaustingAttemptsFailsTheJob) {
  dfs::MiniDfs fs(2);
  fs.create("/in", workloads::generate_text({}, 8 * 1024, 905));
  MiniCluster cluster(fs, 2);

  fault::FaultPlan plan;
  plan.seed = 61;
  for (int attempt = 0; attempt < 4; ++attempt) {
    plan.scripted_crashes.push_back({fault::TaskKind::kMap, 0, attempt, 1});
  }
  auto job = wordcount_config("/in", "/doomed");
  job.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  job.max_task_attempts = 4;
  EXPECT_THROW(cluster.run(job), std::runtime_error);
}

}  // namespace
}  // namespace mpid::minihadoop
