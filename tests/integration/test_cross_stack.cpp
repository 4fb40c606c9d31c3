// Cross-stack equivalence: the same randomized WordCount must produce
// identical results through every execution path in the repository —
//   (1) serial reference,
//   (2) MPI-D via the mapred JobRunner (merge reduce),
//   (3) MPI-D via a one-round mapred JobChain (resident executor),
//   (4) the MR-MPI-style baseline,
//   (5) MiniHadoop (DFS + RPC control plane + HTTP shuffle).
// This is the strongest correctness statement the repo makes: five
// independently-implemented shuffles, one answer.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "mpid/common/prng.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/mapred/mrmpi.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid {
namespace {

using Counts = std::map<std::string, std::uint64_t>;

void tokenize(std::string_view line,
              const std::function<void(std::string_view)>& emit) {
  std::size_t start = 0;
  while (start < line.size()) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) emit(line.substr(start, end - start));
    start = end + 1;
  }
}

mapred::JobDef wordcount_job() {
  mapred::JobDef job;
  job.map = [](std::string_view line, mapred::MapContext& ctx) {
    tokenize(line, [&](std::string_view w) { ctx.emit(w, "1"); });
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  mapred::ReduceContext& ctx) {
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

Counts serial_reference(const std::string& text) {
  Counts counts;
  std::istringstream in(text);
  std::string w;
  while (in >> w) ++counts[w];
  return counts;
}

Counts to_counts(const mapred::KvVec& outputs) {
  Counts counts;
  for (const auto& [k, v] : outputs) counts[k] = std::stoull(v);
  return counts;
}

Counts via_jobrunner(const std::string& text, int mappers, int reducers) {
  return to_counts(mapred::JobRunner(mappers, reducers)
                       .run_on_text(wordcount_job(), text)
                       .outputs);
}

/// A one-stage, one-round chain: ingest is the map, the stage reduce sums.
/// Chains take no combiner, so the reducers sum raw "1"s.
Counts via_jobchain(const std::string& text, int partitions) {
  const auto wc = wordcount_job();
  mapred::ChainJob job;
  job.ingest = wc.map;
  mapred::ChainStage stage;
  stage.name = "count";
  stage.reduce = [reduce = wc.reduce](std::string_view key,
                                      std::vector<std::string>& values,
                                      mapred::ChainReduceContext& ctx) {
    mapred::ReduceContext out(ctx.partition());
    reduce(key, values, out);
    for (const auto& [k, v] : out.take_emitted()) ctx.emit(k, v);
  };
  job.stages.push_back(std::move(stage));
  return to_counts(
      mapred::JobChain(partitions).run_on_text(job, text).outputs);
}

Counts via_mrmpi(const std::string& text, int ranks) {
  std::vector<std::string> lines;
  mapred::LineReader reader(text);
  while (auto line = reader.next()) lines.emplace_back(*line);
  Counts counts;
  minimpi::run_world(ranks, [&](minimpi::Comm& comm) {
    mapred::mrmpi::MapReduce mr(comm);
    mr.map(static_cast<int>(lines.size()),
           [&](int task, mapred::mrmpi::Emitter& out) {
             tokenize(lines[static_cast<std::size_t>(task)],
                      [&](std::string_view w) { out.emit(w, "1"); });
           });
    mr.collate();
    mr.reduce([](std::string_view key, std::span<const std::string> values,
                 mapred::mrmpi::Emitter& out) {
      out.emit(key, std::to_string(values.size()));
    });
    auto gathered = mr.gather(0);
    if (comm.rank() == 0) {
      for (auto& [k, v] : gathered) counts[k] = std::stoull(v);
    }
  });
  return counts;
}

Counts via_minihadoop(const std::string& text, int trackers, int maps,
                      int reduces) {
  dfs::MiniDfs fs(2);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, trackers);
  minihadoop::MiniJobConfig config;
  const auto job = wordcount_job();
  config.map = job.map;
  config.reduce = job.reduce;
  config.combiner = job.combiner;
  config.input_path = "/in";
  config.map_tasks = maps;
  config.reduce_tasks = reduces;
  const auto summary = cluster.run(config);
  Counts counts;
  for (const auto& path : summary.output_files) {
    std::istringstream in(fs.read(path));
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      counts[line.substr(0, tab)] += std::stoull(line.substr(tab + 1));
    }
  }
  return counts;
}

class CrossStackTest : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CrossStackTest,
                         ::testing::Values(1001, 2002, 3003, 4004));

TEST_P(CrossStackTest, FiveShufflesOneAnswer) {
  common::Xoshiro256StarStar rng(GetParam());
  workloads::TextSpec spec;
  spec.vocabulary = rng.next_in(100, 5000);
  const auto text = workloads::generate_text(
      spec, 20 * 1024 + rng.next_below(60 * 1024), GetParam());

  const int mappers = static_cast<int>(rng.next_in(1, 5));
  const int reducers = static_cast<int>(rng.next_in(1, 4));

  const auto reference = serial_reference(text);
  EXPECT_EQ(via_jobrunner(text, mappers, reducers), reference);
  EXPECT_EQ(via_jobchain(text, reducers), reference);
  EXPECT_EQ(via_mrmpi(text, mappers + 1), reference);
  EXPECT_EQ(via_minihadoop(text, std::max(1, mappers - 1), mappers + 1,
                           reducers),
            reference);
}

}  // namespace
}  // namespace mpid
