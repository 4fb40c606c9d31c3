// MPI-D resilient shuffle under injected transport faults and task
// crashes: the job's output must be byte-identical to a fault-free run,
// and the recovery counters must show the machinery actually fired.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"

namespace mpid::mapred {
namespace {

JobDef wordcount_job() {
  JobDef job;
  job.map = [](std::string_view line, MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      const auto end = line.find(' ', start);
      const auto word = line.substr(
          start, end == std::string_view::npos ? line.size() - start
                                               : end - start);
      if (!word.empty()) ctx.emit(word, "1");
      if (end == std::string_view::npos) break;
      start = end + 1;
    }
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
  return job;
}

std::string synthetic_text(std::size_t lines, std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) {
    const int words = 3 + static_cast<int>(rng() % 6);
    for (int w = 0; w < words; ++w) {
      text += "word" + std::to_string(rng() % 40);
      text += w + 1 == words ? '\n' : ' ';
    }
  }
  return text;
}

JobDef resilient_job(std::shared_ptr<fault::FaultInjector> inj) {
  JobDef job = wordcount_job();
  job.tuning.resilient_shuffle = true;
  job.tuning.fault_injector = std::move(inj);
  // Small frames so one job ships many frames (more fault surface).
  job.tuning.partition_frame_bytes = 512;
  job.tuning.spill_threshold_bytes = 4 * 1024;
  return job;
}

TEST(ResilientShuffle, CleanRunMatchesPlainShuffle) {
  const auto text = synthetic_text(200, 1);
  JobRunner runner(3, 2);
  const auto plain = runner.run_on_text(wordcount_job(), text);

  JobDef job = wordcount_job();
  job.tuning.resilient_shuffle = true;
  const auto resilient = runner.run_on_text(job, text);
  EXPECT_EQ(plain.outputs, resilient.outputs);
  // No injector: the recovery counters stay zero.
  EXPECT_EQ(resilient.report.totals.frames_retransmitted, 0u);
  EXPECT_EQ(resilient.report.totals.task_restarts, 0u);
  EXPECT_EQ(resilient.report.totals.corrupt_frames_dropped, 0u);
}

TEST(ResilientShuffle, SurvivesDropDuplicateCorrupt) {
  const auto text = synthetic_text(400, 2);
  JobRunner runner(3, 2);
  const auto baseline = runner.run_on_text(wordcount_job(), text);

  fault::FaultPlan plan;
  plan.seed = 99;
  plan.message_drop_prob = 0.15;
  plan.message_duplicate_prob = 0.10;
  plan.message_corrupt_prob = 0.10;
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = runner.run_on_text(resilient_job(inj), text);

  EXPECT_EQ(baseline.outputs, faulted.outputs);
  // At these rates on many small frames something must have fired, and
  // every drop must have been repaired by a retransmission.
  EXPECT_GT(inj->log().count(fault::Kind::kMessageDrop), 0u);
  EXPECT_GT(faulted.report.totals.frames_retransmitted, 0u);
  EXPECT_GT(faulted.report.totals.retransmit_requests, 0u);
  EXPECT_GT(faulted.report.totals.corrupt_frames_dropped, 0u);
  EXPECT_GT(faulted.report.totals.duplicate_frames_dropped, 0u);
}

TEST(ResilientShuffle, DeterministicFaultHistory) {
  const auto text = synthetic_text(300, 3);
  JobRunner runner(2, 2);

  fault::FaultPlan plan;
  plan.seed = 4242;
  plan.message_drop_prob = 0.2;
  plan.message_corrupt_prob = 0.1;

  auto inj_a = std::make_shared<fault::FaultInjector>(plan);
  const auto run_a = runner.run_on_text(resilient_job(inj_a), text);
  auto inj_b = std::make_shared<fault::FaultInjector>(plan);
  const auto run_b = runner.run_on_text(resilient_job(inj_b), text);

  EXPECT_EQ(run_a.outputs, run_b.outputs);
  // Same plan, same traffic -> the same faults fired, independent of
  // thread scheduling (the injector draws per-lane, not globally).
  EXPECT_EQ(inj_a->log().canonical(), inj_b->log().canonical());
}

TEST(ResilientShuffle, ScriptedMapperAndReducerCrashMidShuffle) {
  const auto text = synthetic_text(400, 4);
  JobRunner runner(3, 2);
  const auto baseline = runner.run_on_text(wordcount_job(), text);

  fault::FaultPlan plan;
  plan.seed = 7;
  // Mapper 1 dies after 5 records; reducer 0 dies after receiving 2
  // frames. Both mid-shuffle, both recovered transparently.
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 5});
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = runner.run_on_text(resilient_job(inj), text);

  EXPECT_EQ(baseline.outputs, faulted.outputs);
  EXPECT_EQ(faulted.report.totals.task_restarts, 2u);
  EXPECT_EQ(inj->log().count(fault::Kind::kTaskCrash), 2u);
  EXPECT_GE(inj->log().count(fault::Kind::kTaskReexec), 1u);  // mapper
  EXPECT_GE(inj->log().count(fault::Kind::kRepull), 1u);      // reducer
  // The restarted reducer re-pulled every mapper's lane. (No assertion on
  // duplicate_frames_dropped: once every lane completes the reducer stops
  // reading, so late re-pulled copies may stay unread in the mailbox.)
  EXPECT_GT(faulted.report.totals.frames_retransmitted, 0u);
  EXPECT_GT(faulted.report.totals.recovery_wall_ns, 0u);
}

TEST(ResilientShuffle, ProbabilisticCrashesEventuallySucceed) {
  const auto text = synthetic_text(200, 5);
  JobRunner runner(2, 2);
  const auto baseline = runner.run_on_text(wordcount_job(), text);

  fault::FaultPlan plan;
  plan.seed = 11;
  plan.map_crash_prob = 1.0;
  plan.reduce_crash_prob = 1.0;
  plan.crash_tick_range = 4;
  plan.max_injected_attempts = 2;  // attempts 0 and 1 die, attempt 2 runs
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = runner.run_on_text(resilient_job(inj), text);

  EXPECT_EQ(baseline.outputs, faulted.outputs);
  // Every mapper and reducer died twice: 2 * (2 + 2) restarts.
  EXPECT_EQ(faulted.report.totals.task_restarts, 8u);
}

TEST(ResilientShuffle, FlatCombineTableSurvivesFaults) {
  // The arena-backed combine buffer must interact correctly with
  // recovery: a restarted mapper recycles its table and re-emits, and the
  // faulted run still matches a fault-free run.
  const auto text = synthetic_text(400, 8);
  JobRunner runner(3, 2);
  const auto baseline = runner.run_on_text(wordcount_job(), text);

  fault::FaultPlan plan;
  plan.seed = 21;
  plan.message_drop_prob = 0.1;
  plan.message_corrupt_prob = 0.05;
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 0, 0, 7});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = runner.run_on_text(resilient_job(inj), text);

  EXPECT_EQ(baseline.outputs, faulted.outputs);
  EXPECT_EQ(faulted.report.totals.task_restarts, 1u);
  // The small spill threshold forces spill rounds.
  EXPECT_GT(faulted.report.totals.spills, 0u);
  EXPECT_GT(faulted.report.totals.table_bytes_peak, 0u);
}

TEST(ResilientShuffle, StreamingMergePathSurvivesFaults) {
  const auto text = synthetic_text(300, 6);
  JobRunner runner(2, 2);
  const auto baseline = runner.run_on_text(wordcount_job(), text);

  fault::FaultPlan plan;
  plan.seed = 13;
  plan.message_drop_prob = 0.15;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 1});
  auto inj = std::make_shared<fault::FaultInjector>(plan);
  const auto faulted = runner.run_on_text(resilient_job(inj), text);

  EXPECT_EQ(baseline.outputs, faulted.outputs);
  EXPECT_EQ(faulted.report.totals.task_restarts, 1u);
  EXPECT_GT(faulted.report.totals.frames_retransmitted, 0u);
}

}  // namespace
}  // namespace mpid::mapred
