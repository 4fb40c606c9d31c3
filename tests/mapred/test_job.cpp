// JobRunner tests: WordCount semantics, grouping, the merge reduce's key
// order, input splitting, agreement between the MPI-D path and a serial
// reference, a failing reduce, and back-to-back runs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/workloads/text.hpp"

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
  job.combiner = [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
  return job;
}

TEST(JobRunner, ValidatesArguments) {
  EXPECT_THROW(JobRunner(0, 1), std::invalid_argument);
  EXPECT_THROW(JobRunner(1, 0), std::invalid_argument);
  JobRunner runner(2, 1);
  JobDef empty;
  EXPECT_THROW(runner.run(empty, {}), std::invalid_argument);
  JobDef job = wordcount_job();
  EXPECT_THROW(runner.run(job, std::vector<RecordSource>(1)),
               std::invalid_argument);  // wrong input count
}

TEST(JobRunner, WordCountOnText) {
  JobRunner runner(3, 2);
  const std::string text =
      "the quick brown fox\n"
      "the lazy dog\n"
      "the quick dog\n"
      "fox and dog\n";
  const auto result = runner.run_on_text(wordcount_job(), text);

  std::map<std::string, std::string> counts(result.outputs.begin(),
                                            result.outputs.end());
  EXPECT_EQ(counts.at("the"), "3");
  EXPECT_EQ(counts.at("quick"), "2");
  EXPECT_EQ(counts.at("dog"), "3");
  EXPECT_EQ(counts.at("fox"), "2");
  EXPECT_EQ(counts.at("and"), "1");
  EXPECT_EQ(counts.at("brown"), "1");
  EXPECT_EQ(counts.at("lazy"), "1");
  EXPECT_EQ(counts.size(), 7u);
  EXPECT_EQ(result.report.mappers_completed, 3);
  EXPECT_EQ(result.report.reducers_completed, 2);
}

TEST(JobRunner, OutputsSortedByKey) {
  JobRunner runner(2, 2);
  const auto result =
      runner.run_on_text(wordcount_job(), "b c a\nc b a\na a\n");
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0].first, "a");
  EXPECT_EQ(result.outputs[1].first, "b");
  EXPECT_EQ(result.outputs[2].first, "c");
}

TEST(JobRunner, GroupingFoldsAcrossMappersAndSpills) {
  // With a tiny spill threshold and no combiner, the same key reaches the
  // reducer in many segments; reduce must still see one merged group.
  JobDef job = wordcount_job();
  job.combiner = nullptr;
  job.tuning.spill_threshold_bytes = 32;
  job.tuning.partition_frame_bytes = 32;
  int group_sizes_seen = 0;
  job.reduce = [&](std::string_view key, std::span<const std::string> values,
                   ReduceContext& ctx) {
    if (key == "x") {
      EXPECT_EQ(values.size(), 60u);  // 3 mappers x 20 each, one group
      ++group_sizes_seen;
    }
    ctx.emit(key, std::to_string(values.size()));
  };
  std::vector<RecordSource> inputs;
  for (int m = 0; m < 3; ++m) {
    std::vector<std::string> records(20, "x");
    inputs.push_back(vector_source(std::move(records)));
  }
  const auto result = JobRunner(3, 1).run(job, std::move(inputs));
  EXPECT_EQ(group_sizes_seen, 1);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], (std::pair<std::string, std::string>{"x", "60"}));
}

TEST(JobRunner, MatchesSerialReferenceOnRandomCorpus) {
  // Generate a random corpus, count words serially, and require the
  // distributed job to agree exactly for several cluster shapes.
  common::Xoshiro256StarStar rng(2024);
  std::ostringstream corpus;
  std::map<std::string, std::uint64_t> reference;
  for (int line = 0; line < 300; ++line) {
    const auto words = rng.next_in(0, 12);
    for (std::uint64_t w = 0; w < words; ++w) {
      std::string word = "w" + std::to_string(rng.next_below(50));
      ++reference[word];
      corpus << word << ' ';
    }
    corpus << '\n';
  }
  const std::string text = corpus.str();

  for (const auto& [mappers, reducers] :
       {std::pair{1, 1}, std::pair{4, 2}, std::pair{7, 3}}) {
    const auto result =
        JobRunner(mappers, reducers).run_on_text(wordcount_job(), text);
    std::map<std::string, std::uint64_t> got;
    for (const auto& [k, v] : result.outputs) got[k] = std::stoull(v);
    EXPECT_EQ(got, reference) << mappers << "x" << reducers;
  }
}

// --- the output contract -------------------------------------------------
//
// JobRunner outputs are sorted by (key, value) and equal a serial run of
// the same map and reduce functions, whatever the reducer count, reduce
// order or memory budget. Each reducer hands back one run and the runner
// merges them, so these cases cover odd merge fan-in, empty runs and runs
// a reduce emitted out of value order.

/// Maps each line's tokens to (token, next token): a key collects several
/// distinct values, arriving in whatever order the shuffle delivers.
void neighbour_map(std::string_view line, MapContext& ctx) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start < line.size()) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) tokens.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    ctx.emit(tokens[i], tokens[(i + 1) % tokens.size()]);
  }
}

/// Emits every value of a key in descending order, then the group size:
/// the reducer's run is out of (key, value) order whenever a key has two
/// distinct values.
void descending_reduce(std::string_view key,
                       std::span<const std::string> values,
                       ReduceContext& ctx) {
  std::vector<std::string> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  for (const auto& v : sorted) ctx.emit(key, v);
  ctx.emit(key, "n=" + std::to_string(values.size()));
}

JobDef neighbour_job() {
  JobDef job;
  job.map = neighbour_map;
  job.reduce = descending_reduce;
  return job;
}

std::string neighbour_corpus(std::uint64_t seed, int lines, int vocabulary) {
  common::Xoshiro256StarStar rng(seed);
  std::string text;
  for (int line = 0; line < lines; ++line) {
    const auto words = rng.next_in(1, 8);
    for (std::uint64_t w = 0; w < words; ++w) {
      text += "k" + std::to_string(rng.next_below(vocabulary)) + ' ';
    }
    text += '\n';
  }
  return text;
}

/// The job run serially: one map pass over every line, then one reduce
/// per key, the outputs sorted.
KvVec serial_reference(const JobDef& job, std::string_view text) {
  std::map<std::string, std::vector<std::string>, std::less<>> groups;
  MapContext map_ctx(
      [&](std::string_view k, std::string_view v) {
        groups[std::string(k)].emplace_back(v);
      },
      0);
  LineReader lines(text);
  while (auto line = lines.next()) job.map(*line, map_ctx);
  ReduceContext reduce_ctx(0);
  for (const auto& [key, values] : groups) job.reduce(key, values, reduce_ctx);
  KvVec out = reduce_ctx.take_emitted();
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JobRunnerOutput, SortedAndSerialForEveryReducerCountAndOrder) {
  const auto text = neighbour_corpus(7, 200, 40);
  const JobDef base = neighbour_job();
  const KvVec want = serial_reference(base, text);
  for (const int reducers : {1, 2, 3, 5}) {
    const auto result = JobRunner(3, reducers).run_on_text(base, text);
    EXPECT_TRUE(std::is_sorted(result.outputs.begin(), result.outputs.end()))
        << "R=" << reducers;
    EXPECT_EQ(result.outputs, want) << "R=" << reducers;
  }
}

TEST(JobRunnerOutput, ReducersWithEmptyRunsStillMerge) {
  // Two keys over five reducers leaves at least three runs empty, and a
  // reduce that drops every "b" key empties one more.
  const std::string text = "a b\nb a\na a\n";
  JobDef job = neighbour_job();
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  ReduceContext& ctx) {
    if (key != "b") descending_reduce(key, values, ctx);
  };
  const KvVec want = serial_reference(job, text);
  ASSERT_FALSE(want.empty());
  for (const int reducers : {1, 2, 3, 5}) {
    EXPECT_EQ(JobRunner(2, reducers).run_on_text(job, text).outputs, want)
        << "R=" << reducers;
  }
  job.reduce = [](std::string_view, std::span<const std::string>,
                  ReduceContext&) {};
  EXPECT_TRUE(JobRunner(2, 5).run_on_text(job, text).outputs.empty());
}

TEST(JobRunnerOutput, BudgetedSortedReduceTakesTheMergerSpillTier) {
  namespace fs = std::filesystem;
  std::string dir = (fs::temp_directory_path() / "mpid-job-XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);

  const auto text = neighbour_corpus(11, 2000, 300);
  JobDef job = neighbour_job();
  const KvVec want = serial_reference(job, text);
  job.tuning.memory_budget_bytes = 16 * 1024;
  job.tuning.spill_dir = dir;
  job.tuning.spill_page_bytes = core::Config::kMinSpillPageBytes;
  job.tuning.spill_merge_fanin = 2;
  job.tuning.partition_frame_bytes = 1024;
  for (const int reducers : {2, 3}) {
    const auto result = JobRunner(3, reducers).run_on_text(job, text);
    EXPECT_EQ(result.outputs, want) << "R=" << reducers;
    EXPECT_GT(result.report.totals.bytes_spilled_disk, 0u) << "R=" << reducers;
  }
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// --- key order ----------------------------------------------------------
//
// Every reduce runs Hadoop's merge phase, so each reducer calls reduce()
// once per key, in strictly ascending key order, on every path a job can
// take. The output contract above cannot show this: sort_run restores the
// order of whatever a reducer emits.

/// Runs `job` with its reduce wrapped to record each reducer's key
/// sequence, and checks that every sequence is non-empty and strictly
/// ascending.
JobResult run_recording_keys(JobDef job, int mappers, int reducers,
                             std::string_view text, const std::string& path) {
  std::mutex mu;
  std::vector<std::vector<std::string>> keys(
      static_cast<std::size_t>(reducers));
  job.reduce = [&mu, &keys, reduce = job.reduce](
                   std::string_view key, std::span<const std::string> values,
                   ReduceContext& ctx) {
    {
      std::lock_guard lock(mu);
      keys[static_cast<std::size_t>(ctx.reducer_index())].emplace_back(key);
    }
    reduce(key, values, ctx);
  };
  auto result = JobRunner(mappers, reducers).run_on_text(job, text);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    EXPECT_FALSE(keys[r].empty()) << path << " reducer " << r;
    EXPECT_EQ(std::adjacent_find(keys[r].begin(), keys[r].end(),
                                 std::greater_equal<>()),
              keys[r].end())
        << path << " reducer " << r;
  }
  return result;
}

TEST(JobRunner, ReduceSeesAscendingKeysOnEveryPath) {
  namespace fs = std::filesystem;
  constexpr int kMappers = 4;
  constexpr int kReducers = 2;
  const auto text = neighbour_corpus(11, 2000, 300);
  const JobDef base = neighbour_job();
  const KvVec want = serial_reference(base, text);

  EXPECT_EQ(run_recording_keys(base, kMappers, kReducers, text, "plain")
                .outputs,
            want);

  JobDef threaded = base;
  threaded.tuning.map_threads = 4;
  EXPECT_EQ(run_recording_keys(threaded, kMappers, kReducers, text,
                               "map_threads=4")
                .outputs,
            want);

  std::string dir = (fs::temp_directory_path() / "mpid-job-XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  JobDef budgeted = base;
  budgeted.tuning.memory_budget_bytes = 16 * 1024;
  budgeted.tuning.spill_dir = dir;
  budgeted.tuning.spill_page_bytes = core::Config::kMinSpillPageBytes;
  budgeted.tuning.spill_merge_fanin = 2;
  budgeted.tuning.partition_frame_bytes = 1024;
  const auto spilled =
      run_recording_keys(budgeted, kMappers, kReducers, text, "budgeted");
  EXPECT_EQ(spilled.outputs, want);
  EXPECT_GT(spilled.report.totals.bytes_spilled_disk, 0u);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);

  JobDef aggregated = base;
  aggregated.tuning.node_aggregation = true;
  aggregated.tuning.ranks_per_node = 2;  // 4 mappers = 2 modeled nodes
  const auto aggregated_result = run_recording_keys(
      aggregated, kMappers, kReducers, text, "node aggregation");
  EXPECT_EQ(aggregated_result.outputs, want);
  EXPECT_GT(aggregated_result.report.totals.bytes_pre_node_agg, 0u);

  // The crash lands mid-collect, before any reduce() call, so the
  // restarted attempt's sequence is the only one recorded.
  fault::FaultPlan plan;
  plan.seed = 17;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 2});
  JobDef resilient = base;
  resilient.tuning.resilient_shuffle = true;
  resilient.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  resilient.tuning.partition_frame_bytes = 1024;
  const auto recovered = run_recording_keys(resilient, kMappers, kReducers,
                                            text, "resilient reducer crash");
  EXPECT_EQ(recovered.outputs, want);
  EXPECT_EQ(recovered.report.totals.task_restarts, 1u);
}

TEST(LineReaderT, HandlesEdgeCases) {
  {
    LineReader r("a\nb\nc");
    EXPECT_EQ(*r.next(), "a");
    EXPECT_EQ(*r.next(), "b");
    EXPECT_EQ(*r.next(), "c");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("\n\n");
    EXPECT_EQ(*r.next(), "");
    EXPECT_EQ(*r.next(), "");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("only\n");
    EXPECT_EQ(*r.next(), "only");
    EXPECT_FALSE(r.next().has_value());
  }
}

TEST(SplitText, CoversAllBytesAtLineBoundaries) {
  const std::string text = "one\ntwo\nthree\nfour\nfive\nsix\nseven\n";
  for (int splits : {1, 2, 3, 5, 10}) {
    const auto chunks = split_text(text, splits);
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(splits));
    std::string rejoined;
    for (const auto c : chunks) {
      if (!c.empty()) {
        EXPECT_EQ(c.back(), '\n') << "chunk must end on line boundary";
      }
      rejoined.append(c);
    }
    EXPECT_EQ(rejoined, text) << splits;
  }
}

TEST(SplitText, TextWithoutTrailingNewline) {
  const auto chunks = split_text("alpha\nbeta", 2);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(std::string(chunks[0]) + std::string(chunks[1]), "alpha\nbeta");
}

TEST(RecordSources, VectorAndLineSourcesDrain) {
  auto vs = vector_source({"r1", "r2"});
  EXPECT_EQ(*vs(), "r1");
  EXPECT_EQ(*vs(), "r2");
  EXPECT_FALSE(vs().has_value());

  auto ls = line_source("l1\nl2\nl3");
  EXPECT_EQ(*ls(), "l1");
  EXPECT_EQ(*ls(), "l2");
  EXPECT_EQ(*ls(), "l3");
  EXPECT_FALSE(ls().has_value());
}

// --- text input by view -------------------------------------------------
//
// run_on_text maps LineReader views of the caller's text; run() over
// line_source inputs maps owned copies of the same lines. The two must
// agree record for record and output for output on every map path.

std::vector<std::string> line_reader_records(std::string_view text) {
  std::vector<std::string> out;
  LineReader reader(text);
  while (auto line = reader.next()) out.emplace_back(*line);
  return out;
}

std::vector<std::string> line_source_records(std::string_view text) {
  std::vector<std::string> out;
  auto source = line_source(text);
  while (auto line = source()) out.push_back(std::move(*line));
  return out;
}

TEST(TextInput, LineReaderAndLineSourceYieldTheSameRecords) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"", {}},
       {"\n", {""}},
       {"\n\n", {"", ""}},
       {"a", {"a"}},
       {"a\n", {"a"}},
       {"a\n\nb", {"a", "", "b"}}};
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(line_reader_records(text), want) << "text: \"" << text << '"';
    EXPECT_EQ(line_source_records(text), want) << "text: \"" << text << '"';
  }
}

/// One input per mapper, each a line_source over its split_text chunk:
/// the inputs run_on_text would read, as owned records.
std::vector<RecordSource> line_sources(std::string_view text, int mappers) {
  std::vector<RecordSource> inputs;
  for (const auto chunk : split_text(text, mappers)) {
    inputs.push_back(line_source(chunk));
  }
  return inputs;
}

TEST(TextInput, RunOnTextEqualsRunOverLineSources) {
  const std::string text = neighbour_corpus(/*seed=*/41, /*lines=*/400,
                                            /*vocabulary=*/60);
  constexpr int kMappers = 3;
  constexpr int kReducers = 2;
  const JobRunner runner(kMappers, kReducers);
  const KvVec want = serial_reference(wordcount_job(), text);

  struct Setup {
    const char* name;
    std::function<void(JobDef&)> apply;
    bool restarts;  // the setup injects a map crash
  };
  const std::vector<Setup> setups = {
      {"plain", [](JobDef&) {}, false},
      {"map_threads=4", [](JobDef& job) { job.tuning.map_threads = 4; },
       false},
      {"resilient, map crash",
       [](JobDef& job) {
         fault::FaultPlan plan;
         plan.seed = 5;
         plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 40});
         job.tuning.resilient_shuffle = true;
         job.tuning.fault_injector =
             std::make_shared<fault::FaultInjector>(plan);
         job.tuning.spill_threshold_bytes = 2 * 1024;
       },
       true},
  };
  for (const auto& setup : setups) {
    SCOPED_TRACE(setup.name);
    // A fresh job per run: an injector fires its scripted crash once.
    JobDef by_view = wordcount_job();
    setup.apply(by_view);
    JobDef by_copy = wordcount_job();
    setup.apply(by_copy);
    const auto viewed = runner.run_on_text(by_view, text);
    const auto copied = runner.run(by_copy, line_sources(text, kMappers));
    EXPECT_EQ(viewed.outputs, copied.outputs);
    EXPECT_EQ(viewed.outputs, want);
    EXPECT_EQ(viewed.report.totals.bytes_sent, copied.report.totals.bytes_sent);
    if (setup.restarts) {
      EXPECT_EQ(viewed.report.totals.task_restarts, 1u);
      EXPECT_EQ(copied.report.totals.task_restarts, 1u);
    }
  }
}

// --- reducer lifecycle ----------------------------------------------------
//
// A reducer reduces and writes its run before the job's final barrier,
// and the master merges the runs as soon as that barrier has heard from
// every reducer.

TEST(JobRunner, ThrowingReduceFailsFastWithItsMessage) {
  const std::string text = neighbour_corpus(3, 200, 40);
  for (const bool resilient : {false, true}) {
    for (const int thrower : {-1, 1}) {  // -1: every reducer throws
      SCOPED_TRACE(std::string(resilient ? "resilient" : "plain") +
                   (thrower < 0 ? ", every reducer" : ", reducer 1"));
      JobDef job = wordcount_job();
      job.tuning.resilient_shuffle = resilient;
      job.reduce = [thrower](std::string_view, std::span<const std::string>,
                             ReduceContext& ctx) {
        if (thrower < 0 || ctx.reducer_index() == thrower) {
          throw std::runtime_error("user reduce failed");
        }
      };
      const auto start = std::chrono::steady_clock::now();
      try {
        JobRunner(2, 2).run_on_text(job, text);
        ADD_FAILURE() << "the job did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "user reduce failed");
      }
      EXPECT_LT(std::chrono::steady_clock::now() - start,
                std::chrono::seconds(1));
    }
  }
}

/// jobbench's sort record: a 10-byte key, then the payload after one
/// separator byte.
void sort_map(std::string_view record, MapContext& ctx) {
  constexpr std::size_t kKeyBytes = 10;
  if (record.size() <= kKeyBytes) {
    ctx.emit(record, {});
  } else {
    ctx.emit(record.substr(0, kKeyBytes), record.substr(kKeyBytes + 1));
  }
}

void identity_reduce(std::string_view key, std::span<const std::string> values,
                     ReduceContext& ctx) {
  for (const auto& v : values) ctx.emit(key, v);
}

TEST(JobRunnerRepeatRun, EveryBackToBackRunMatchesTheReference) {
  // Each run publishes its reducers' runs to the master through the final
  // barrier; back-to-back 2x2 jobs shaped like jobbench's wordcount
  // (Zipf text, summing combiner) and sort (unique keys, identity reduce,
  // no combiner) check every run's output and counters.
  constexpr int kRuns = 10;
  std::string records;
  auto source = workloads::record_source({}, 256 << 10, /*seed=*/7);
  while (auto record = source()) records += *record + '\n';
  JobDef sort_job;
  sort_job.map = sort_map;
  sort_job.reduce = identity_reduce;
  const std::vector<std::tuple<const char*, JobDef, std::string>> shapes = {
      {"wordcount", wordcount_job(),
       workloads::generate_text({}, 128 << 10, /*seed=*/7)},
      {"sort", sort_job, records}};
  for (const auto& [name, base, text] : shapes) {
    const KvVec want = serial_reference(base, text);
    for (const bool resilient : {false, true}) {
      JobDef job = base;
      job.tuning.resilient_shuffle = resilient;
      for (int run = 0; run < kRuns; ++run) {
        SCOPED_TRACE(std::string(name) + (resilient ? ", resilient" : "") +
                     ", run " + std::to_string(run));
        const auto result = JobRunner(2, 2).run_on_text(job, text);
        ASSERT_EQ(result.outputs, want);
        // Every pair that crossed the shuffle reaches a reduce, in the
        // totals and in the one barrier's entry; with no combiner, that
        // is every pair the maps sent.
        const auto& totals = result.report.totals;
        ASSERT_GT(totals.pairs_after_combine, 0u);
        ASSERT_EQ(totals.pairs_received, totals.pairs_after_combine);
        if (!job.combiner) {
          ASSERT_EQ(totals.pairs_received, totals.pairs_sent);
        }
        ASSERT_EQ(result.report.round_totals.size(), 1u);
        ASSERT_EQ(result.report.round_totals[0].pairs_received,
                  totals.pairs_received);
      }
    }
  }
}

}  // namespace
}  // namespace mpid::mapred
