// JobChain tests: multi-round execution over resident partitions —
// convergence predicates, pinned statics, budget-forced resident spill,
// thread parity, mid-chain reducer restart, and exact outputs at every
// partition count. Parity with a fresh job per round (MiniHadoop's
// round-trip chain) is checked in tests/minihadoop and tests/integration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mpid/fault/fault.hpp"
#include "mpid/mapred/chain.hpp"

namespace mpid::mapred {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "mpid-chain-XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Countdown chain: every line is "key value"; each round decrements
/// every key's value toward zero; the stage converges when no key is
/// still positive. Keys are distinct per line, so each key holds exactly
/// one resident value per round.
ChainJob countdown_job(int max_rounds = 12) {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) return;
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  ChainStage stage;
  stage.name = "countdown";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    n = std::max(0L, n - 1);
    ctx.emit(key, std::to_string(n));
    if (n > 0) ctx.incr("active");
  };
  stage.max_rounds = max_rounds;
  stage.until = [](const RoundCounters& c) { return c.value("active") == 0; };
  job.stages.push_back(std::move(stage));
  return job;
}

/// 12 keys spread over all partitions; values 1..5 so the countdown
/// takes 5 rounds (round 1 decrements through ingest's reduce).
std::string countdown_text() {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += "key" + std::to_string(i) + " " + std::to_string(1 + i % 5) + "\n";
  }
  return text;
}

TEST(JobChain, ValidatesJobShape) {
  EXPECT_THROW(JobChain(0), std::invalid_argument);
  JobChain chain(2);

  ChainJob no_ingest = countdown_job();
  no_ingest.ingest = nullptr;
  EXPECT_THROW(chain.run_on_text(no_ingest, "a 1\n"), std::invalid_argument);

  ChainJob no_stage = countdown_job();
  no_stage.stages.clear();
  EXPECT_THROW(chain.run_on_text(no_stage, "a 1\n"), std::invalid_argument);

  ChainJob no_map = countdown_job();
  no_map.stages[0].map = nullptr;  // multi-round stage needs a map
  EXPECT_THROW(chain.run_on_text(no_map, "a 1\n"), std::invalid_argument);

  ChainJob with_combiner = countdown_job();
  with_combiner.tuning.combiner = [](std::string_view,
                                     std::vector<std::string>&& vs) {
    return std::move(vs);
  };
  EXPECT_THROW(chain.run_on_text(with_combiner, "a 1\n"),
               std::invalid_argument);

  EXPECT_THROW(chain.run(countdown_job(), std::vector<RecordSource>(1)),
               std::invalid_argument);
}

TEST(JobChain, ConvergesAndReportsRounds) {
  JobChain chain(3);
  auto result = chain.run_on_text(countdown_job(), countdown_text());

  // Every key counted down to zero.
  ASSERT_EQ(result.outputs.size(), 12u);
  for (const auto& [key, value] : result.outputs) EXPECT_EQ(value, "0");

  // Max initial value is 5 -> exactly 5 work rounds (round 5's reduce
  // leaves "active" at 0, firing the predicate before max_rounds).
  ASSERT_EQ(result.rounds.size(), 5u);
  EXPECT_EQ(result.rounds[0].counters.value("active"), 9u);  // 3 ones done
  EXPECT_EQ(result.rounds[4].counters.value("active"), 0u);
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].stage, 0);
    EXPECT_EQ(result.rounds[r].round_in_stage, static_cast<int>(r) + 1);
    EXPECT_EQ(result.rounds[r].resident_pairs_out, 12u);
  }

  // 5 work barriers + 1 empty teardown barrier (the stop decision is
  // only known after round 5's counters are aggregated).
  EXPECT_EQ(result.report.round_totals.size(), 6u);
  EXPECT_EQ(result.report.totals.chain_rounds, 6u);

  // The tentpole counters: external input enters once; rounds >= 2 map
  // resident pairs in place and re-ingest nothing.
  EXPECT_GT(result.report.totals.ingest_bytes, 0u);
  EXPECT_EQ(result.report.round_totals[0].ingest_bytes,
            result.report.totals.ingest_bytes);
  EXPECT_GT(result.report.totals.resident_pairs_in, 0u);
  for (std::size_t r = 1; r < result.report.round_totals.size(); ++r) {
    EXPECT_EQ(result.report.round_totals[r].ingest_bytes, 0u);
  }

  // Chains run no combiner, so each round's reduces receive every pair
  // its mappers sent; the teardown barrier moves none.
  for (std::size_t r = 0; r < result.report.round_totals.size(); ++r) {
    const auto& round = result.report.round_totals[r];
    EXPECT_EQ(round.pairs_received, round.pairs_sent) << "barrier " << r;
    EXPECT_EQ(round.pairs_received == 0, r == 5) << "barrier " << r;
  }
  EXPECT_EQ(result.report.totals.pairs_received,
            result.report.totals.pairs_sent);
}

TEST(JobChain, FixedRoundPlanSkipsTeardownBarrier) {
  ChainJob job = countdown_job(/*max_rounds=*/3);
  job.stages[0].until = nullptr;  // run the full static budget
  JobChain chain(2);
  auto result = chain.run_on_text(job, countdown_text());
  // A statically-last round finalizes directly: 3 rounds, 3 barriers.
  EXPECT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.report.round_totals.size(), 3u);
  EXPECT_EQ(result.report.totals.chain_rounds, 3u);
}

TEST(JobChain, ChainedAndUnchainedAreByteIdentical) {
  // The resident chain must compute exactly what one fresh job per round
  // computes. For the countdown that is derivable by hand: key i starts
  // at 1 + i % 5 and loses 1 per round, so every key ends at 0 and the
  // "active" trail is 9, 6, 4, 2, then none.
  const auto text = countdown_text();
  const auto chained = JobChain(3).run_on_text(countdown_job(), text);

  KvVec want;
  for (int i = 0; i < 12; ++i) {
    want.emplace_back("key" + std::to_string(i), "0");
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(chained.outputs, want);

  const std::vector<std::uint64_t> active = {9, 6, 4, 2, 0};
  ASSERT_EQ(chained.rounds.size(), active.size());
  for (std::size_t r = 0; r < active.size(); ++r) {
    EXPECT_EQ(chained.rounds[r].counters.value("active"), active[r]) << r;
    // 12 keys (50 key bytes) with one single-digit value each.
    EXPECT_EQ(chained.rounds[r].resident_bytes_out, 62u) << r;
  }
  // The last work round incremented nothing.
  EXPECT_TRUE(chained.rounds.back().counters.empty());

  // External input enters once (record bytes: the 12 newlines are not
  // part of any record); 5 work barriers plus the one empty teardown
  // barrier that dynamic convergence costs.
  EXPECT_EQ(chained.report.totals.ingest_bytes, text.size() - 12);
  EXPECT_EQ(chained.report.totals.chain_rounds, 6u);
}

TEST(JobChain, FinalOutputsAreSortedAndMatchTheAblationAtEveryWidth) {
  // Each round re-emits a key's distinct values in descending order plus
  // a count, so every sealed partition arrives out of (key, value) order,
  // and at five partitions some of the four keys' partitions are empty.
  // The expected outputs are worked by hand, one job per round: '#'
  // sorts before the digits, so round 2's "a" group {3, 2, 1, #3} gains
  // #4, and round 3's {3, 2, 1, #4, #3} gains #5.
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  ChainStage stage;
  stage.name = "fanout";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    std::sort(values.begin(), values.end(), std::greater<>());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (const auto& v : values) ctx.emit(key, v);
    ctx.emit(key, "#" + std::to_string(values.size()));
  };
  stage.max_rounds = 3;
  job.stages.push_back(std::move(stage));
  const std::string text = "a 3\na 1\na 2\nb 5\nb 4\nc 9\nd 0\n";

  const KvVec want = {
      {"a", "#3"}, {"a", "#4"}, {"a", "#5"}, {"a", "1"}, {"a", "2"},
      {"a", "3"},  {"b", "#2"}, {"b", "#3"}, {"b", "#4"}, {"b", "4"},
      {"b", "5"},  {"c", "#1"}, {"c", "#2"}, {"c", "#3"}, {"c", "9"},
      {"d", "#1"}, {"d", "#2"}, {"d", "#3"}, {"d", "0"}};
  for (const int partitions : {1, 2, 3, 5}) {
    const auto chained = JobChain(partitions).run_on_text(job, text);
    EXPECT_EQ(chained.outputs, want) << partitions;
    EXPECT_EQ(chained.rounds.size(), 3u) << partitions;
  }
}

/// Statics chain: each key's static weight is added every round for a
/// fixed 3 rounds: final = initial + 3 * weight (round 1 reduces the
/// ingested pairs, rounds 2..3 the resident ones).
ChainJob statics_job() {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) return;
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  ChainStage stage;
  stage.name = "accumulate";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) {
    // The map side must see the pinned table too.
    if (ctx.statics(key).empty()) {
      ctx.emit(key, "missing-static");
      return;
    }
    ctx.emit(key, value);
  };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    const auto weights = ctx.statics(key);
    long w = weights.empty() ? 0 : std::stol(weights.front());
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    ctx.emit(key, std::to_string(n + w));
  };
  stage.max_rounds = 3;
  job.stages.push_back(std::move(stage));
  for (int i = 0; i < 8; ++i) {
    job.static_input.emplace_back("key" + std::to_string(i),
                                  std::to_string(10 * (i + 1)));
  }
  return job;
}

TEST(JobChain, StaticsArePinnedOnceAndReshuffledNever) {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "key" + std::to_string(i) + " 1\n";

  JobChain chain(3);
  auto chained = chain.run_on_text(statics_job(), text);
  ASSERT_EQ(chained.outputs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chained.outputs[static_cast<std::size_t>(i)].second,
              std::to_string(1 + 3 * 10 * (i + 1)));
  }

  // Pinned once (round 1), never re-realigned. MiniHadoop's round-trip
  // chain, which re-realigns them every later round, is checked in
  // MiniChain.RoundTripReshufflesStaticsEveryLaterRound.
  EXPECT_GT(chained.report.totals.static_bytes_pinned, 0u);
  EXPECT_EQ(chained.report.totals.static_bytes_reshuffled, 0u);
  EXPECT_EQ(chained.report.round_totals[1].static_bytes_pinned, 0u);
}

TEST(JobChain, MultiStagePlansAdvanceThroughResidentOutput) {
  // Stage 0 (1 round, ingest only): sum per-key values. Stage 1 (1
  // round): reformat the resident sums. Exercises the stage hand-off —
  // stage 1's first round maps stage 0's resident partitions.
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  ChainStage sum;
  sum.name = "sum";
  sum.reduce = [](std::string_view key, std::vector<std::string>& values,
                  ChainReduceContext& ctx) {
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    ctx.emit(key, std::to_string(n));
  };
  ChainStage fmt;
  fmt.name = "format";
  fmt.map = [](std::string_view key, std::string_view value,
               ChainMapContext& ctx) { ctx.emit(key, value); };
  fmt.reduce = [](std::string_view key, std::vector<std::string>& values,
                  ChainReduceContext& ctx) {
    ctx.emit(key, "total=" + values.front());
  };
  job.stages = {std::move(sum), std::move(fmt)};

  JobChain chain(2);
  auto result = chain.run_on_text(job, "a 1\nb 2\na 3\nb 4\na 5\n");
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds[0].stage, 0);
  EXPECT_EQ(result.rounds[1].stage, 1);
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_EQ(result.outputs[0],
            (KvPair{"a", "total=9"}));
  EXPECT_EQ(result.outputs[1],
            (KvPair{"b", "total=6"}));
}

TEST(JobChain, MapThreadsDoNotChangeOutputs) {
  const auto text = countdown_text();
  JobChain chain(2);
  auto serial = chain.run_on_text(countdown_job(), text);

  ChainJob threaded = countdown_job();
  threaded.tuning.map_threads = 4;
  auto parallel = chain.run_on_text(threaded, text);
  EXPECT_EQ(serial.outputs, parallel.outputs);
  EXPECT_EQ(serial.rounds.size(), parallel.rounds.size());
}

/// Fixed 3-round identity chain over fat values: 64 keys x 8 KiB per
/// partition-pair, enough to overflow a small shared budget.
ChainJob bigval_job() {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  ChainStage stage;
  stage.name = "identity";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    ctx.emit(key, values.front());
  };
  stage.max_rounds = 3;
  job.stages.push_back(std::move(stage));
  return job;
}

std::string bigval_text() {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "key" + std::to_string(i) + " " +
            std::string(8192, static_cast<char>('a' + i % 26)) + "\n";
  }
  return text;
}

TEST(JobChain, BudgetRefusalSpillsResidentPartitions) {
  TempDir dir;
  const auto text = bigval_text();
  JobChain chain(2);
  auto in_memory = chain.run_on_text(bigval_job(), text);
  EXPECT_EQ(in_memory.report.totals.resident_bytes_spilled, 0u);

  // ~512 KiB of resident pairs against a 64 KiB arbiter: every seal is
  // refused, the partitions live on disk between rounds, and the chain
  // still produces byte-identical outputs.
  ChainJob tight = bigval_job();
  tight.tuning.memory_budget = std::make_shared<store::MemoryBudget>(64 * 1024);
  tight.tuning.spill_dir = dir.path;
  auto spilled = chain.run_on_text(tight, text);
  EXPECT_EQ(in_memory.outputs, spilled.outputs);
  EXPECT_EQ(in_memory.rounds.size(), spilled.rounds.size());
  EXPECT_GT(spilled.report.totals.resident_bytes_spilled, 0u);
  // The scratch dir is clean afterwards: seals unlink their spill files.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path),
                          fs::directory_iterator{}),
            0);

  // No spill_dir -> a refused seal is a hard error, not silent retention.
  store::MemoryBudget one_byte(1);
  ResidentPartition part;
  EXPECT_THROW(part.seal({{"k", "vvvv"}}, &one_byte, ""), std::runtime_error);
}

TEST(JobChain, ResidentPartitionSealSortsAndRoundTrips) {
  TempDir dir;
  KvVec pairs = {{"b", "2"}, {"a", "9"}, {"a", "1"}, {"c", "3"}};
  const KvVec sorted = {{"a", "1"}, {"a", "9"}, {"b", "2"}, {"c", "3"}};

  ResidentPartition in_memory;
  in_memory.seal(pairs, nullptr, "");
  EXPECT_FALSE(in_memory.spilled());
  EXPECT_EQ(in_memory.pair_count(), 4u);
  EXPECT_EQ(in_memory.load(), sorted);

  store::MemoryBudget tiny(1);
  ResidentPartition on_disk;
  on_disk.seal(pairs, &tiny, dir.path);
  EXPECT_TRUE(on_disk.spilled());
  EXPECT_EQ(on_disk.pair_count(), 4u);
  EXPECT_EQ(on_disk.byte_count(), in_memory.byte_count());
  EXPECT_EQ(on_disk.load(), sorted);
  KvVec streamed;
  on_disk.for_each([&](std::string_view k, std::string_view v) {
    streamed.emplace_back(std::string(k), std::string(v));
  });
  EXPECT_EQ(streamed, sorted);
  EXPECT_EQ(on_disk.take(), sorted);
  EXPECT_EQ(on_disk.pair_count(), 0u);
}

TEST(JobChain, ReducerRestartMidChainKeepsOutputsIdentical) {
  const auto text = countdown_text();
  JobChain chain(3);
  const auto baseline = chain.run_on_text(countdown_job(), text);

  // progress_ticks_ accumulate across rounds (rearm keeps them), so a
  // tick budget past round 1's frame count fires the crash in a LATER
  // round — the restart re-pulls retained round-N frames mid-chain.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 5});
  ChainJob faulted = countdown_job();
  faulted.tuning.resilient_shuffle = true;
  faulted.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  auto result = chain.run_on_text(faulted, text);

  EXPECT_EQ(baseline.outputs, result.outputs);
  EXPECT_EQ(result.report.totals.task_restarts, 1u);
  // The restart fired in a round >= 2 of the chain.
  std::size_t restart_round = 0;
  for (std::size_t r = 0; r < result.report.round_totals.size(); ++r) {
    if (result.report.round_totals[r].task_restarts > 0) restart_round = r;
  }
  EXPECT_GE(restart_round, 1u);
}

TEST(JobChain, MapperCrashRetriesResidentRound) {
  const auto text = countdown_text();
  JobChain chain(2);
  const auto baseline = chain.run_on_text(countdown_job(), text);

  fault::FaultPlan plan;
  plan.seed = 12;
  // Mapper 0 dies 3 records into attempt 0. The chain materializes the
  // resident partition for the retry, so the re-run replays the same
  // deterministic input.
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 0, 0, 3});
  ChainJob faulted = countdown_job();
  faulted.tuning.resilient_shuffle = true;
  faulted.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  auto result = chain.run_on_text(faulted, text);

  EXPECT_EQ(baseline.outputs, result.outputs);
  EXPECT_EQ(result.report.totals.task_restarts, 1u);
}

TEST(JobChain, TakeOutputsMovesPairsOut) {
  JobChain chain(2);
  auto result = chain.run_on_text(countdown_job(), countdown_text());
  const auto copied = result.outputs;
  auto moved = result.take_outputs();
  EXPECT_EQ(moved, copied);
  EXPECT_TRUE(result.outputs.empty());
}

}  // namespace
}  // namespace mpid::mapred
