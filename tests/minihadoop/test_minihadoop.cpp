// MiniHadoop integration tests: the functional Hadoop stack (DFS + RPC
// control plane + HTTP shuffle) must produce exactly the same results as
// a serial reference and as the MPI-D JobRunner on the same job.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "mpid/common/prng.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid::minihadoop {
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

core::Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// Parses "key\tvalue" output files from the DFS into a map.
std::map<std::string, std::uint64_t> parse_outputs(
    dfs::MiniDfs& fs, const std::vector<std::string>& files) {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& path : files) {
    std::istringstream in(fs.read(path));
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      counts[line.substr(0, tab)] += std::stoull(line.substr(tab + 1));
    }
  }
  return counts;
}

std::map<std::string, std::uint64_t> serial_wordcount(std::string_view text) {
  std::map<std::string, std::uint64_t> counts;
  std::istringstream in{std::string(text)};
  std::string word;
  while (in >> word) ++counts[word];
  return counts;
}

TEST(MiniHadoop, ValidatesArguments) {
  dfs::MiniDfs fs(2);
  EXPECT_THROW(MiniCluster(fs, 0), std::invalid_argument);
  MiniCluster cluster(fs, 2);
  MiniJobConfig bad;
  EXPECT_THROW(cluster.run(bad), std::invalid_argument);
}

TEST(MiniHadoop, WordCountMatchesSerialReference) {
  dfs::MiniDfs fs(3);
  const auto text = workloads::generate_text({}, 200 * 1024, 77);
  fs.create("/input/corpus.txt", text);

  MiniCluster cluster(fs, 3);
  MiniJobConfig job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.combiner = sum_combiner();
  job.input_path = "/input/corpus.txt";
  job.output_prefix = "/out/wc";
  job.map_tasks = 6;
  job.reduce_tasks = 3;

  const auto summary = cluster.run(job);
  ASSERT_EQ(summary.output_files.size(), 3u);
  EXPECT_EQ(parse_outputs(fs, summary.output_files), serial_wordcount(text));
  EXPECT_GT(summary.shuffle_requests, 0u);
  EXPECT_EQ(summary.shuffle_requests, 6u * 3u);  // one GET per (map, reduce)
  EXPECT_GT(summary.heartbeats, 0u);
}

TEST(MiniHadoop, ThreadedMapTasksMatchSequentialExactly) {
  // map_threads is a speed knob, never a semantics knob: a map attempt
  // must produce the same outputs at every thread count, and the same
  // shuffle accounting at every count that chunks the split, with and
  // without shuffle compression.
  const auto text = workloads::generate_text({}, 200 * 1024, 99);
  for (const auto mode :
       {shuffle::ShuffleCompression::kOff, shuffle::ShuffleCompression::kOn}) {
    auto run_with_threads = [&](std::size_t threads) {
      dfs::MiniDfs fs(3);
      fs.create("/input/corpus.txt", text);
      MiniCluster cluster(fs, 3);
      MiniJobConfig job;
      job.map = wordcount_map();
      job.reduce = wordcount_reduce();
      job.combiner = sum_combiner();
      job.input_path = "/input/corpus.txt";
      job.output_prefix = "/out/wc";
      job.map_tasks = 4;
      job.reduce_tasks = 2;
      job.map_threads = threads;
      job.shuffle_compression = mode;
      const auto summary = cluster.run(job);
      return std::pair(parse_outputs(fs, summary.output_files), summary);
    };
    const auto [seq_counts, seq_summary] = run_with_threads(1);
    const auto [two_counts, two_summary] = run_with_threads(2);
    const auto [par_counts, par_summary] = run_with_threads(4);
    const auto label = "mode=" + std::to_string(static_cast<int>(mode));
    EXPECT_EQ(par_counts, seq_counts) << label;
    EXPECT_EQ(two_counts, seq_counts) << label;
    EXPECT_EQ(par_counts, serial_wordcount(text)) << label;
    // Byte-level accounting is exact across thread counts that chunk the
    // split (threads=1 maps it as one chunk, a task-long spill cadence,
    // so its combine effectiveness — and hence byte counts — differ).
    EXPECT_EQ(par_summary.pairs_after_combine,
              two_summary.pairs_after_combine)
        << label;
    EXPECT_EQ(par_summary.shuffle_bytes_wire, two_summary.shuffle_bytes_wire)
        << label;
  }
}

TEST(MiniHadoop, AgreesWithMpiDJobRunner) {
  // The paper's comparison, functionally: the same WordCount through the
  // Hadoop stack and through MPI-D must produce identical counts.
  dfs::MiniDfs fs(3);
  const auto text = workloads::generate_text({}, 100 * 1024, 101);
  fs.create("/input/t.txt", text);

  MiniCluster cluster(fs, 2);
  MiniJobConfig hjob;
  hjob.map = wordcount_map();
  hjob.reduce = wordcount_reduce();
  hjob.combiner = sum_combiner();
  hjob.input_path = "/input/t.txt";
  hjob.map_tasks = 4;
  hjob.reduce_tasks = 2;
  const auto hadoop_summary = cluster.run(hjob);
  const auto hadoop_counts = parse_outputs(fs, hadoop_summary.output_files);

  mapred::JobDef mjob;
  mjob.map = wordcount_map();
  mjob.reduce = wordcount_reduce();
  mjob.combiner = sum_combiner();
  const auto mpid_result = mapred::JobRunner(4, 2).run_on_text(mjob, text);
  std::map<std::string, std::uint64_t> mpid_counts;
  for (const auto& [k, v] : mpid_result.outputs) {
    mpid_counts[k] = std::stoull(v);
  }

  EXPECT_EQ(hadoop_counts, mpid_counts);
}

TEST(MiniHadoop, CombinerShrinksShuffleVolume) {
  dfs::MiniDfs fs(2);
  const auto text = workloads::generate_text({}, 150 * 1024, 55);
  fs.create("/in", text);
  MiniCluster cluster(fs, 2);

  MiniJobConfig base;
  base.map = wordcount_map();
  base.reduce = wordcount_reduce();
  base.input_path = "/in";
  base.map_tasks = 4;
  base.reduce_tasks = 2;

  MiniJobConfig combined = base;
  combined.combiner = sum_combiner();
  combined.output_prefix = "/out-combined";

  const auto raw = cluster.run(base);
  const auto comb = cluster.run(combined);
  EXPECT_LT(comb.shuffled_bytes, raw.shuffled_bytes / 2);
  EXPECT_LT(comb.pairs_after_combine, raw.pairs_after_combine / 2);
  EXPECT_EQ(parse_outputs(fs, raw.output_files),
            parse_outputs(fs, comb.output_files));
}

TEST(MiniHadoop, EmptyInputProducesEmptyOutput) {
  dfs::MiniDfs fs(2);
  fs.create("/empty", "");
  MiniCluster cluster(fs, 2);
  MiniJobConfig job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.input_path = "/empty";
  job.map_tasks = 2;
  job.reduce_tasks = 2;
  const auto summary = cluster.run(job);
  EXPECT_EQ(summary.pairs_after_combine, 0u);
  EXPECT_TRUE(parse_outputs(fs, summary.output_files).empty());
}

TEST(MiniHadoop, SingleTrackerManyTasks) {
  dfs::MiniDfs fs(1, {.block_size_bytes = 4096, .replication = 1});
  const auto text = workloads::generate_text({}, 50 * 1024, 31);
  fs.create("/in", text);
  MiniCluster cluster(fs, 1);
  MiniJobConfig job;
  job.map = wordcount_map();
  job.reduce = wordcount_reduce();
  job.input_path = "/in";
  job.map_tasks = 8;
  job.reduce_tasks = 4;
  const auto summary = cluster.run(job);
  EXPECT_EQ(parse_outputs(fs, summary.output_files), serial_wordcount(text));
}

TEST(MiniHadoop, MapFailurePropagates) {
  dfs::MiniDfs fs(2);
  fs.create("/in", "some input\n");
  MiniCluster cluster(fs, 2);
  MiniJobConfig job;
  job.map = [](std::string_view, mapred::MapContext&) {
    throw std::runtime_error("map exploded");
  };
  job.reduce = wordcount_reduce();
  job.input_path = "/in";
  EXPECT_THROW(cluster.run(job), std::runtime_error);
}

}  // namespace
}  // namespace mpid::minihadoop
