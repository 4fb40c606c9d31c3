// WordCount on the fully functional Hadoop-style stack: the corpus is
// stored in MiniDfs, the job runs on MiniHadoop (RPC control plane + HTTP
// shuffle), and the output lands back in the DFS — then the same job runs
// through MPI-D and the two result sets are diffed. This is the paper's
// comparison as a living system.
//
// Build & run:  ./examples/hadoop_stack_wordcount
#include <cstdio>
#include <map>
#include <sstream>

#include "mpid/common/units.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/text.hpp"

namespace {

using namespace mpid;

void tokenize(std::string_view line, mapred::MapContext& ctx) {
  std::size_t start = 0;
  while (start < line.size()) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) ctx.emit(line.substr(start, end - start), "1");
    start = end + 1;
  }
}

void sum(std::string_view key, std::span<const std::string> values,
         mapred::ReduceContext& ctx) {
  std::uint64_t total = 0;
  for (const auto& v : values) total += std::stoull(v);
  ctx.emit(key, std::to_string(total));
}

}  // namespace

int main() {
  // 1. Put a generated corpus into the DFS.
  dfs::MiniDfs fs(3, {.block_size_bytes = 64 * 1024, .replication = 2});
  const auto corpus = workloads::generate_text({}, 256 * 1024, 42);
  fs.create("/input/corpus.txt", corpus);
  std::printf("stored %s as %zu blocks (x2 replicas) across 3 datanodes\n",
              common::format_bytes(corpus.size()).c_str(),
              fs.locate("/input/corpus.txt").size());

  // 2. Run the job on the Hadoop-style stack.
  minihadoop::MiniCluster cluster(fs, 2);
  minihadoop::MiniJobConfig job;
  job.map = tokenize;
  job.reduce = sum;
  job.combiner = [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
  job.input_path = "/input/corpus.txt";
  job.output_prefix = "/output/wordcount";
  job.map_tasks = 4;
  job.reduce_tasks = 2;
  const auto summary = cluster.run(job);
  std::printf(
      "minihadoop: %llu heartbeat RPCs, %llu shuffle GETs moving %s, "
      "%llu combined pairs\n",
      static_cast<unsigned long long>(summary.heartbeats),
      static_cast<unsigned long long>(summary.shuffle_requests),
      common::format_bytes(summary.shuffled_bytes).c_str(),
      static_cast<unsigned long long>(summary.pairs_after_combine));

  // 3. Read the output files back from the DFS.
  std::map<std::string, std::uint64_t> hadoop_counts;
  for (const auto& path : summary.output_files) {
    std::istringstream in(fs.read(path));
    std::string line;
    while (std::getline(in, line)) {
      const auto tab = line.find('\t');
      hadoop_counts[line.substr(0, tab)] += std::stoull(line.substr(tab + 1));
    }
    std::printf("  output %s: %s\n", path.c_str(),
                common::format_bytes(fs.file_size(path)).c_str());
  }

  // 4. Same job through MPI-D; diff the results.
  mapred::JobDef mjob;
  mjob.map = tokenize;
  mjob.reduce = sum;
  mjob.combiner = job.combiner;
  const auto mpid_result = mapred::JobRunner(4, 2).run_on_text(mjob, corpus);
  std::map<std::string, std::uint64_t> mpid_counts;
  for (const auto& [k, v] : mpid_result.outputs) {
    mpid_counts[k] = std::stoull(v);
  }

  std::printf("distinct words: %zu (hadoop) vs %zu (mpi-d)\n",
              hadoop_counts.size(), mpid_counts.size());
  std::printf("results identical: %s\n",
              hadoop_counts == mpid_counts ? "yes" : "NO (bug!)");
  return hadoop_counts == mpid_counts ? 0 : 1;
}
