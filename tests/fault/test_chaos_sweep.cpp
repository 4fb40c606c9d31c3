// Seeded chaos sweep over MPI-D's resilient shuffle (ctest label "chaos").
//
// Every plan index draws one random fault::FaultPlan per workload: drop,
// duplicate and corrupt rates on the data channel, a random compression
// mode, and scripted mapper and reducer crashes at random progress ticks.
// The ticks are drawn across the span a fault-free run measures (records
// per mapper, frames per reducer, both summed over every round), so in
// the cc and sssp chains a crash can land in any round. Each faulted run
// must reproduce the workload's serial reference exactly, and every crash
// that fired must have been recovered by exactly one restart.
//
// Tier-1 runs plans [0, 3000) of each workload, about 15 s of wall time
// (35 s of CPU) on a 4-vCPU Xeon VM, and ThreadedChaosSweep runs plans
// [0, 500) of wordcount and cc with map_threads = 4. A longer slice:
//
//   MPID_CHAOS_PLANS=20000 ctest --test-dir build -L chaos
//
// MPID_CHAOS_FIRST=<n> starts the slice at plan n, so a failing plan (the
// failure prints its index and plan) replays alone with
// MPID_CHAOS_FIRST=<n> MPID_CHAOS_PLANS=1 ./build/tests/test_chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/workloads/graph.hpp"

namespace mpid {
namespace {

constexpr std::uint64_t kTier1Plans = 3000;
constexpr std::uint64_t kTier1ThreadedPlans = 500;

std::uint64_t env_or(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

enum class Kind { kWordCount, kSort, kCc, kSssp };

/// The sssp chain's source vertex.
const std::string& sssp_source() {
  static const std::string source = workloads::vertex_name(0);
  return source;
}

struct Workload {
  Kind kind;
  const char* name;
  int mappers;
  int reducers;
};

void PrintTo(const Workload& w, std::ostream* os) { *os << w.name; }

struct JobRun {
  mapred::KvVec outputs;
  core::JobReport report;
};

// --- inputs and serial references ----------------------------------------

std::string text_input() {
  common::SplitMix64 rng(3);
  std::string text;
  for (int line = 0; line < 240; ++line) {
    const int words = 2 + static_cast<int>(rng() % 6);
    for (int w = 0; w < words; ++w) {
      text += "w" + std::to_string(rng() % 50);
      text += w + 1 == words ? '\n' : ' ';
    }
  }
  return text;
}

std::string sort_input() {
  common::SplitMix64 rng(5);
  std::string text;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "%08llx",
                  static_cast<unsigned long long>(rng() & 0xffffffffu));
    text += key;
    text += ' ';
    text += std::string(8 + rng() % 24, static_cast<char>('a' + i % 26));
    text += '\n';
  }
  return text;
}

std::string graph_input() {
  workloads::GraphSpec spec;
  spec.vertices = 40;
  spec.edges = 90;
  spec.components = 2;
  spec.seed = 11;
  return workloads::generate_graph(spec);
}

std::string input_for(Kind kind) {
  switch (kind) {
    case Kind::kWordCount:
      return text_input();
    case Kind::kSort:
      return sort_input();
    case Kind::kCc:
    case Kind::kSssp:
      return graph_input();
  }
  return {};
}

std::vector<std::string_view> lines_of(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    if (eol > pos) lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

mapred::KvVec reference_for(Kind kind, const std::string& input) {
  mapred::KvVec out;
  switch (kind) {
    case Kind::kWordCount: {
      std::map<std::string, std::uint64_t> counts;
      for (const auto line : lines_of(input)) {
        std::size_t start = 0;
        while (start <= line.size()) {
          auto end = line.find(' ', start);
          if (end == std::string_view::npos) end = line.size();
          if (end > start) {
            ++counts[std::string(line.substr(start, end - start))];
          }
          start = end + 1;
        }
      }
      for (const auto& [word, n] : counts) {
        out.emplace_back(word, std::to_string(n));
      }
      break;
    }
    case Kind::kSort:
      for (const auto line : lines_of(input)) {
        const auto space = line.find(' ');
        out.emplace_back(std::string(line.substr(0, space)),
                         std::string(line.substr(space + 1)));
      }
      std::sort(out.begin(), out.end());
      break;
    case Kind::kCc:
      out = workloads::cc_reference(input);
      break;
    case Kind::kSssp:
      out = workloads::sssp_reference(input, sssp_source());
      break;
  }
  return out;
}

// --- the jobs ------------------------------------------------------------

mapred::JobDef wordcount_job() {
  mapred::JobDef job;
  job.map = [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start <= line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
      start = end + 1;
    }
  };
  const auto sum = [](const auto& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(std::string(v));
    return std::to_string(total);
  };
  job.reduce = [sum](std::string_view key,
                     std::span<const std::string> values,
                     mapred::ReduceContext& ctx) {
    ctx.emit(key, sum(values));
  };
  job.combiner = [sum](std::string_view, std::vector<std::string>&& values) {
    return std::vector<std::string>{sum(values)};
  };
  return job;
}

mapred::JobDef sort_job() {
  mapred::JobDef job;
  job.map = [](std::string_view record, mapred::MapContext& ctx) {
    const auto space = record.find(' ');
    ctx.emit(record.substr(0, space), record.substr(space + 1));
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  mapred::ReduceContext& ctx) {
    for (const auto& v : values) ctx.emit(key, v);
  };
  return job;
}

JobRun run_workload(const Workload& w, const std::string& input,
                 core::Config tuning) {
  tuning.resilient_shuffle = true;
  // Small frames and spills: many frames per lane, more fault surface.
  tuning.partition_frame_bytes = 256;
  tuning.spill_threshold_bytes = 2048;
  tuning.compress_min_frame_bytes = 64;
  if (w.kind == Kind::kCc || w.kind == Kind::kSssp) {
    auto job = w.kind == Kind::kCc
                   ? workloads::cc_job(input)
                   : workloads::sssp_job(input, sssp_source());
    job.tuning = std::move(tuning);
    auto result = mapred::JobChain(w.mappers).run_on_text(job, input);
    return {std::move(result.outputs), result.report};
  }
  auto job = w.kind == Kind::kWordCount ? wordcount_job() : sort_job();
  job.tuning = std::move(tuning);
  auto result =
      mapred::JobRunner(w.mappers, w.reducers).run_on_text(job, input);
  return {std::move(result.outputs), result.report};
}

// --- plans ---------------------------------------------------------------

/// How far a fault-free run gets: the crash ticks are drawn below these.
struct Span {
  std::uint64_t map_ticks = 1;     // records one mapper maps, all rounds
  std::uint64_t reduce_ticks = 1;  // frames one reducer accepts, all rounds
};

fault::FaultPlan draw_plan(const Workload& w, std::uint64_t index,
                           const Span& span,
                           core::ShuffleCompression& compression) {
  common::Xoshiro256StarStar rng(
      common::fmix64(index * 8 + static_cast<std::uint64_t>(w.kind) + 1));
  const auto uniform = [&rng](double hi) {
    return hi * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  fault::FaultPlan plan;
  plan.seed = rng();
  // Each transport fault kind is armed in about two plans of three.
  if (rng() % 3 != 0) plan.message_drop_prob = uniform(0.25);
  if (rng() % 3 != 0) plan.message_duplicate_prob = uniform(0.2);
  if (rng() % 3 != 0) plan.message_corrupt_prob = uniform(0.2);
  const auto crash = [&](fault::TaskKind task, int attempt) {
    const bool map = task == fault::TaskKind::kMap;
    const auto tasks = static_cast<std::uint64_t>(map ? w.mappers : w.reducers);
    const std::uint64_t ticks = map ? span.map_ticks : span.reduce_ticks;
    plan.scripted_crashes.push_back({task, static_cast<int>(rng() % tasks),
                                     attempt, 1 + rng() % ticks});
  };
  if (rng() % 2 != 0) crash(fault::TaskKind::kMap, 0);
  if (rng() % 2 != 0) crash(fault::TaskKind::kReduce, 0);
  // Now and then a retry dies too (if that task's first attempt did).
  if (rng() % 4 == 0) {
    crash(rng() % 2 != 0 ? fault::TaskKind::kMap : fault::TaskKind::kReduce,
          1);
  }
  compression = static_cast<core::ShuffleCompression>(rng() % 3);
  return plan;
}

std::string describe(std::uint64_t index, const fault::FaultPlan& plan,
                     core::ShuffleCompression compression) {
  std::ostringstream os;
  os << "plan " << index << ": seed " << plan.seed << " drop "
     << plan.message_drop_prob << " dup " << plan.message_duplicate_prob
     << " corrupt " << plan.message_corrupt_prob << " compression "
     << static_cast<int>(compression);
  for (const auto& c : plan.scripted_crashes) {
    os << (c.task == fault::TaskKind::kMap ? " map" : " reduce") << c.task_id
       << "#" << c.attempt << "@" << c.after_ticks;
  }
  return os.str();
}

/// Runs plans [MPID_CHAOS_FIRST, + MPID_CHAOS_PLANS) of workload `w` at
/// `map_threads`, `default_plans` of them unless the environment says
/// otherwise.
void sweep(const Workload& w, std::size_t map_threads,
           std::uint64_t default_plans) {
  const std::string input = input_for(w.kind);
  const mapred::KvVec reference = reference_for(w.kind, input);

  core::Config base;
  base.map_threads = map_threads;
  const JobRun clean = run_workload(w, input, base);
  ASSERT_EQ(clean.outputs, reference);
  const core::Stats& t = clean.report.totals;
  Span span;
  // Records: the input lines, plus the resident pairs later chain rounds
  // map in place.
  span.map_ticks = (lines_of(input).size() + t.resident_pairs_in) /
                       static_cast<std::uint64_t>(w.mappers) +
                   1;
  span.reduce_ticks =
      t.frames_received / static_cast<std::uint64_t>(w.reducers) + 1;

  const std::uint64_t first = env_or("MPID_CHAOS_FIRST", 0);
  const std::uint64_t plans = env_or("MPID_CHAOS_PLANS", default_plans);
  for (std::uint64_t index = first; index < first + plans; ++index) {
    core::ShuffleCompression compression{};
    const fault::FaultPlan plan = draw_plan(w, index, span, compression);
    SCOPED_TRACE(describe(index, plan, compression));
    auto inj = std::make_shared<fault::FaultInjector>(plan);
    core::Config tuning = base;
    tuning.shuffle_compression = compression;
    tuning.fault_injector = inj;
    const JobRun faulted = run_workload(w, input, tuning);
    EXPECT_EQ(faulted.outputs, reference);
    EXPECT_EQ(faulted.report.totals.task_restarts,
              inj->log().count(fault::Kind::kTaskCrash));
  }
}

class ChaosSweep : public ::testing::TestWithParam<Workload> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, ChaosSweep,
    ::testing::Values(Workload{Kind::kWordCount, "wordcount", 3, 2},
                      Workload{Kind::kSort, "sort", 2, 3},
                      Workload{Kind::kCc, "cc", 3, 3},
                      Workload{Kind::kSssp, "sssp", 3, 3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(ChaosSweep, EveryPlanMatchesTheSerialReference) {
  sweep(GetParam(), /*map_threads=*/1, kTier1Plans);
}

/// The same plans with every map task on a pool of four workers: faults
/// take the threaded map path, and a scripted crash tick fires on exactly
/// one of the workers mapping that task's chunks.
class ThreadedChaosSweep : public ::testing::TestWithParam<Workload> {};

INSTANTIATE_TEST_SUITE_P(
    Workloads, ThreadedChaosSweep,
    ::testing::Values(Workload{Kind::kWordCount, "wordcount", 3, 2},
                      Workload{Kind::kCc, "cc", 3, 3}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(ThreadedChaosSweep, EveryPlanMatchesTheSerialReference) {
  sweep(GetParam(), /*map_threads=*/4, kTier1ThreadedPlans);
}

}  // namespace
}  // namespace mpid
