// Unit tests of the benchmark's own arithmetic: percentiles, reference
// checks, phase cuts, callback summaries and input generation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "phases.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace jobbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  EXPECT_FALSE(percentile(ramp(99), 90).has_value());
  ASSERT_TRUE(percentile(ramp(100), 90).has_value());
  EXPECT_EQ(*percentile(ramp(100), 90), 90.0);
  EXPECT_FALSE(percentile(ramp(19), 50).has_value());
  EXPECT_EQ(*percentile(ramp(20), 50), 10.0);
  EXPECT_THROW(percentile(ramp(100), 100), std::invalid_argument);
}

TEST(Median, HandlesOddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Steal, KeepsStealFreeSamplesAndTopsUpWithTheLeastStolen) {
  const std::vector<double> steal = {0.02, 0, 0.01, 0, 0.01, 0.03};
  EXPECT_EQ(least_stolen(steal, 2), (std::vector<std::size_t>{1, 3}));
  // Two steal-free, then the least-stolen, earlier first on ties.
  EXPECT_EQ(least_stolen(steal, 3), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(least_stolen(steal, 5), (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(least_stolen(steal, 10).size(), steal.size());
  // Without steal every sample counts, whatever the minimum.
  EXPECT_EQ(least_stolen({0, 0, 0}, 1).size(), 3u);
  EXPECT_TRUE(least_stolen({}, 5).empty());
}

TEST(Reference, DigestFlagsDroppedDuplicatedAndAlteredPairs) {
  const KvVec pairs = {{"a", "1"}, {"b", "2"}, {"c", "3"}};
  auto digest = [](const KvVec& v) {
    PairDigest d;
    for (const auto& [k, val] : v) d.add(k, val);
    return d;
  };
  const PairDigest want = digest(pairs);
  EXPECT_EQ(diff_digest(digest({{"c", "3"}, {"a", "1"}, {"b", "2"}}), want),
            "");
  EXPECT_NE(diff_digest(digest({{"a", "1"}, {"b", "2"}}), want), "");
  EXPECT_NE(diff_digest(digest({{"a", "1"}, {"b", "2"}, {"b", "2"}}), want),
            "");
  EXPECT_NE(diff_digest(digest({{"a", "1"}, {"b", "2"}, {"c", "4"}}), want),
            "");
  // Moving bytes between key and value alters the pair.
  EXPECT_NE(diff_digest(digest({{"a", "1"}, {"b", "2"}, {"c3", ""}}), want),
            "");
}

TEST(Reference, ExactDiffFlagsDroppedDuplicatedAndAlteredPairs) {
  const KvVec want = {{"a", "1"}, {"b", "2"}};
  EXPECT_EQ(diff_pairs(want, want), "");
  EXPECT_NE(diff_pairs({{"a", "1"}}, want), "");
  EXPECT_NE(diff_pairs({{"a", "1"}, {"a", "1"}, {"b", "2"}}, want), "");
  EXPECT_NE(diff_pairs({{"a", "1"}, {"b", "3"}}, want), "");
}

TEST(Reference, PartScanChecksTabsAndKeyOrder) {
  KvVec got;
  auto collect = [&](std::string_view k, std::string_view v) {
    got.emplace_back(k, v);
  };
  EXPECT_EQ(scan_part("a\t1\nb\t\t0x\n", true, collect), "");
  EXPECT_EQ(got, (KvVec{{"a", "1"}, {"b", "\t0x"}}));
  EXPECT_NE(scan_part("b\t1\na\t2\n", true, collect), "");
  EXPECT_EQ(scan_part("b\t1\na\t2\n", false, collect), "");
  EXPECT_NE(scan_part("a\t1\nno tab\n", false, collect), "");
}

TEST(Reference, WordCountAndCcRounds) {
  EXPECT_EQ(wordcount_reference("b a\na  b b\n"),
            (KvVec{{"a", "2"}, {"b", "3"}}));
  // A path v3-v2-v1-v0: the least label needs three hops, plus the
  // round that changes nothing.
  EXPECT_EQ(cc_reference_rounds("v3 v2 1\nv2 v1 1\nv1 v0 1\n"), 4);
  EXPECT_EQ(cc_reference_rounds("v0 v1 1\n"), 2);
}

TEST(Phases, SumToTheWallTimeAcrossRounds) {
  const std::vector<RoundMarks> rounds = {{10, 40, 55, 70}, {90, 100, 120, 130}};
  const Phases p = cut_phases(rounds, 150);
  EXPECT_EQ(p.sum(), p.wall_ns);
  EXPECT_EQ(p.startup_ns, 10);
  EXPECT_EQ(p.map_ns, 30 + 10);
  EXPECT_EQ(p.shuffle_tail_ns, 15 + 20);
  EXPECT_EQ(p.reduce_ns, 15 + 10);
  EXPECT_EQ(p.barrier_ns, 20);
  EXPECT_EQ(p.teardown_ns, 20);
  EXPECT_EQ(p.round_ns, (std::vector<std::int64_t>{60, 40}));
}

TEST(Phases, RefuseNegativeOrMissingPhases) {
  EXPECT_THROW(cut_phases({{10, 40, 30, 70}}, 100), std::runtime_error);
  EXPECT_THROW(cut_phases({{10, 40, 55, 70}}, 60), std::runtime_error);
  EXPECT_THROW(cut_phases({{10, 40, kNoMark, 70}}, 100), std::runtime_error);
  EXPECT_THROW(cut_phases({}, 100), std::runtime_error);
}

TEST(Summary, LastMapperAndLateSpeculativeAttempts) {
  std::deque<ThreadLog> logs(4);
  auto slot = [](Role role, int index, std::int64_t first, std::int64_t last,
                 std::int64_t call, std::int64_t emit) {
    Slot s{.role = role, .index = index, .round = 1};
    s.first_start_ns = first;
    s.last_end_ns = last;
    s.call_ns = call;
    s.emit_ns = emit;
    return s;
  };
  logs[0].slots = {slot(Role::kMap, 0, 10, 50, 30, 10)};
  logs[1].slots = {slot(Role::kMap, 1, 12, 60, 40, 25)};
  logs[2].slots = {slot(Role::kMap, 1, 30, 90, 20, 5),  // lost its race
                   slot(Role::kReduce, 0, 70, 95, 20, 0)};
  logs[3].slots = {slot(Role::kReduce, 1, 75, 85, 8, 0)};
  logs[3].combine_ns = 7;
  const CallbackSummary cb = summarize(logs);
  ASSERT_EQ(cb.rounds.size(), 1u);
  EXPECT_EQ(cb.rounds[0].first_map, 10);
  EXPECT_EQ(cb.rounds[0].last_map, 60);
  EXPECT_EQ(cb.rounds[0].first_reduce, 70);
  EXPECT_EQ(cb.rounds[0].last_reduce, 95);
  EXPECT_EQ(cb.map_self_ns, 15);
  EXPECT_EQ(cb.emit_ns, 25);
  EXPECT_EQ(cb.input_ns, (60 - 12) - 40);
  EXPECT_EQ(cb.reduce_self_ns, 20);
  EXPECT_EQ(cb.combine_ns, 7);
  EXPECT_EQ(cut_phases(cb.rounds, 100).sum(), 100);
}

TEST(Inputs, ANewSeedChangesTheInputsButNotTheirSizes) {
  for (const std::string workload : {"wordcount", "sort", "cc"}) {
    const std::string a = make_input(workload, 1);
    const std::string b = make_input(workload, 2);
    EXPECT_NE(a, b) << workload;
    EXPECT_EQ(a.size(), b.size()) << workload;
    EXPECT_EQ(a, make_input(workload, 1)) << workload;
    EXPECT_EQ(a.back(), '\n') << workload;
  }
  // The graphs differ, but every one runs the same number of rounds.
  EXPECT_EQ(cc_reference_rounds(make_input("cc", 1)),
            cc_reference_rounds(make_input("cc", 2)));
  EXPECT_THROW(make_input("grep", 1), std::invalid_argument);
}

}  // namespace
}  // namespace jobbench
