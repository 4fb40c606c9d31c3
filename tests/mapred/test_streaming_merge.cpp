// The merge reduce through the JobRunner: identical results to a serial
// hash grouping, each key reduced once, many-run merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "mpid/common/prng.hpp"
#include "mpid/mapred/job.hpp"

namespace mpid::mapred {
namespace {

JobDef wordcount() {
  JobDef job;
  job.map = [](std::string_view line, MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
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

std::string random_corpus(std::uint64_t seed) {
  common::Xoshiro256StarStar rng(seed);
  std::ostringstream corpus;
  for (int line = 0; line < 200; ++line) {
    const auto words = rng.next_in(1, 10);
    for (std::uint64_t w = 0; w < words; ++w) {
      corpus << "w" << rng.next_below(40) << ' ';
    }
    corpus << '\n';
  }
  return corpus.str();
}

TEST(StreamingMerge, MatchesHashGroupingPath) {
  const auto text = random_corpus(31337);
  // The reference groups serially in a hash table, then sorts the output.
  std::unordered_map<std::string, std::uint64_t> groups;
  std::istringstream in(text);
  std::string w;
  while (in >> w) ++groups[w];
  KvVec hashed;
  for (const auto& [k, n] : groups) hashed.emplace_back(k, std::to_string(n));
  std::sort(hashed.begin(), hashed.end());
  for (const auto& [mappers, reducers] :
       {std::pair{1, 1}, std::pair{3, 2}, std::pair{4, 3}}) {
    const auto merged =
        JobRunner(mappers, reducers).run_on_text(wordcount(), text);
    EXPECT_EQ(merged.outputs, hashed) << mappers << "x" << reducers;
  }
}

TEST(StreamingMerge, WorksWithoutCombiner) {
  auto job = wordcount();
  job.combiner = nullptr;
  job.tuning.spill_threshold_bytes = 128;  // many frames, many runs
  const auto text = random_corpus(99);
  const auto result = JobRunner(2, 2).run_on_text(job, text);

  std::map<std::string, std::uint64_t> expected;
  std::istringstream in(text);
  std::string w;
  while (in >> w) ++expected[w];
  std::map<std::string, std::uint64_t> got;
  for (const auto& [k, v] : result.outputs) got[k] = std::stoull(v);
  EXPECT_EQ(got, expected);
}

TEST(StreamingMerge, EachKeyReducedExactlyOnce) {
  auto job = wordcount();
  std::map<std::string, int> reduce_calls;
  std::mutex mu;
  job.reduce = [&](std::string_view key, std::span<const std::string> values,
                   ReduceContext& ctx) {
    std::lock_guard lock(mu);
    ++reduce_calls[std::string(key)];
    ctx.emit(key, std::to_string(values.size()));
  };
  const auto result = JobRunner(3, 2).run_on_text(job, random_corpus(7));
  EXPECT_EQ(reduce_calls.size(), result.outputs.size());
  for (const auto& [k, calls] : reduce_calls) {
    EXPECT_EQ(calls, 1) << k;
  }
}

}  // namespace
}  // namespace mpid::mapred
