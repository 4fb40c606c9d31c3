// Cross-runtime graph chain parity: the same CC / SSSP / triangle chain
// definitions run on the MPI-D JobChain and on MiniHadoop's run_chain,
// across the compression modes and hybrid thread counts, with injected
// crashes mid-chain — and every combination must produce byte-identical
// outputs that match the serial references.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/graph.hpp"

namespace mpid {
namespace {

constexpr int kPartitions = 3;

std::string graph_text() {
  workloads::GraphSpec spec;
  spec.vertices = 40;
  spec.edges = 90;
  spec.components = 2;
  spec.seed = 11;
  return workloads::generate_graph(spec);
}

mapred::ChainJob make_job(const std::string& kind, const std::string& text) {
  if (kind == "cc") return workloads::cc_job(text);
  if (kind == "sssp") return workloads::sssp_job(text, workloads::vertex_name(0));
  return workloads::triangle_job(text);
}

mapred::KvVec reference(const std::string& kind, const std::string& text) {
  if (kind == "cc") return workloads::cc_reference(text);
  if (kind == "sssp") {
    return workloads::sssp_reference(text, workloads::vertex_name(0));
  }
  return {};  // triangles check the counter, not a full reference vector
}

mapred::KvVec parse_parts(dfs::MiniDfs& fs,
                          const std::vector<std::string>& files) {
  mapred::KvVec pairs;
  for (const auto& file : files) {
    const std::string body = fs.read(file);
    std::size_t pos = 0;
    while (pos < body.size()) {
      auto eol = body.find('\n', pos);
      if (eol == std::string::npos) eol = body.size();
      const std::string_view line(body.data() + pos, eol - pos);
      pos = eol + 1;
      const auto tab = line.find('\t');
      if (tab == std::string_view::npos) continue;
      pairs.emplace_back(std::string(line.substr(0, tab)),
                         std::string(line.substr(tab + 1)));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// MiniHadoop's run of `job`: the same stages and statics over
/// "/graph/in", one map and one reduce task per partition.
minihadoop::MiniChainConfig hadoop_chain(const mapred::ChainJob& job,
                                         const std::string& output_prefix) {
  minihadoop::MiniChainConfig config;
  config.ingest = job.ingest;
  config.stages = job.stages;
  config.static_input = job.static_input;
  config.input_path = "/graph/in";
  config.output_prefix = output_prefix;
  config.map_tasks = kPartitions;
  config.reduce_tasks = kPartitions;
  return config;
}

struct ParityCase {
  const char* kind;
  core::ShuffleCompression compression;
  int map_threads;
};

std::string describe(const ParityCase& c) {
  std::string name = c.kind;
  switch (c.compression) {
    case core::ShuffleCompression::kOff: name += "_off"; break;
    case core::ShuffleCompression::kAuto: name += "_auto"; break;
    case core::ShuffleCompression::kOn: name += "_on"; break;
  }
  return name + "_t" + std::to_string(c.map_threads);
}

std::string case_name(const ::testing::TestParamInfo<ParityCase>& info) {
  return describe(info.param);
}

// gtest prints the parameter into each discovered ctest name. Left to
// itself it prints the struct's bytes, `kind`'s pointer included, which
// moves under ASLR and renames the tests from build to build.
void PrintTo(const ParityCase& c, std::ostream* os) { *os << describe(c); }

class GraphParityTest : public ::testing::TestWithParam<ParityCase> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, GraphParityTest,
    ::testing::Values(
        ParityCase{"cc", core::ShuffleCompression::kOff, 1},
        ParityCase{"cc", core::ShuffleCompression::kAuto, 4},
        ParityCase{"cc", core::ShuffleCompression::kOn, 1},
        ParityCase{"sssp", core::ShuffleCompression::kOff, 4},
        ParityCase{"sssp", core::ShuffleCompression::kAuto, 1},
        ParityCase{"sssp", core::ShuffleCompression::kOn, 4},
        ParityCase{"triangle", core::ShuffleCompression::kOff, 1},
        ParityCase{"triangle", core::ShuffleCompression::kAuto, 4},
        ParityCase{"triangle", core::ShuffleCompression::kOn, 1}),
    case_name);

TEST_P(GraphParityTest, RuntimesAgreeWithEachOtherAndTheReference) {
  const auto& param = GetParam();
  const auto text = graph_text();

  auto job = make_job(param.kind, text);
  job.tuning.shuffle_compression = param.compression;
  job.tuning.map_threads = param.map_threads;
  const auto mpid = mapred::JobChain(kPartitions).run_on_text(job, text);

  dfs::MiniDfs fs(3);
  fs.create("/graph/in", text);
  minihadoop::MiniCluster cluster(fs, 3);
  auto config = hadoop_chain(make_job(param.kind, text), "/graph/out");
  config.shuffle_compression = param.compression;
  config.map_threads = param.map_threads;
  const auto hadoop = cluster.run_chain(config);

  // Byte parity across the runtimes, plus per-round counter parity.
  EXPECT_EQ(parse_parts(fs, hadoop.output_files), mpid.outputs);
  ASSERT_EQ(hadoop.rounds.size(), mpid.rounds.size());
  for (std::size_t r = 0; r < hadoop.rounds.size(); ++r) {
    EXPECT_EQ(hadoop.rounds[r].counters.values(),
              mpid.rounds[r].counters.values());
  }

  // Ground truth.
  const auto expected = reference(param.kind, text);
  if (!expected.empty()) {
    EXPECT_EQ(mpid.outputs, expected);
  } else {
    EXPECT_EQ(mpid.rounds.back().counters.value("triangles"),
              workloads::triangle_reference(text));
  }

  // Residency held on both: the static channel was never re-shuffled and
  // rounds >= 2 never re-ingested external input.
  EXPECT_EQ(mpid.report.totals.static_bytes_reshuffled, 0u);
  EXPECT_EQ(hadoop.static_bytes_reshuffled, 0u);
  if (mpid.rounds.size() > 1) {
    EXPECT_GT(mpid.report.totals.resident_pairs_in, 0u);
    EXPECT_GT(hadoop.resident_pairs_in, 0u);
  }
}

TEST(GraphParity, ChainedAndUnchainedAreByteIdenticalPerWorkload) {
  // Unchained is MiniHadoop's round-trip chain: a fresh job per round,
  // part files through the DFS, statics realigned every later round.
  const auto text = graph_text();
  dfs::MiniDfs fs(3);
  fs.create("/graph/in", text);
  minihadoop::MiniCluster cluster(fs, 3);
  for (const char* kind : {"cc", "sssp", "triangle"}) {
    const auto job = make_job(kind, text);
    const auto resident = mapred::JobChain(kPartitions).run_on_text(job, text);
    auto config = hadoop_chain(job, std::string("/graph/roundtrip-") + kind);
    config.resident = false;
    const auto roundtrip = cluster.run_chain(config);
    EXPECT_EQ(parse_parts(fs, roundtrip.output_files), resident.outputs)
        << kind;
    ASSERT_EQ(resident.rounds.size(), roundtrip.rounds.size()) << kind;
    for (std::size_t r = 0; r < resident.rounds.size(); ++r) {
      EXPECT_EQ(resident.rounds[r].counters.values(),
                roundtrip.rounds[r].counters.values())
          << kind << " round " << r;
      EXPECT_EQ(resident.rounds[r].resident_bytes_out,
                roundtrip.rounds[r].resident_bytes_out)
          << kind << " round " << r;
    }
  }
}

TEST(GraphParity, ReducerRestartMidChainKeepsBothRuntimesExact) {
  const auto text = graph_text();
  const auto expected = workloads::cc_reference(text);

  // MPI-D side: resilient shuffle, a reducer attempt dies after enough
  // frames have flowed (ticks accumulate across rounds, so the crash
  // lands mid-chain, not in round 1).
  {
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 8});
    auto job = workloads::cc_job(text);
    job.tuning.resilient_shuffle = true;
    job.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
    const auto result = mapred::JobChain(kPartitions).run_on_text(job, text);
    EXPECT_EQ(result.outputs, expected);
    EXPECT_GT(result.report.totals.task_restarts, 0u);
  }

  // MiniHadoop side: the jobtracker requeues the crashed reduce attempt;
  // only the committed attempt's output (and counters) feed the next
  // round.
  {
    fault::FaultPlan plan;
    plan.seed = 6;
    plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 1});
    dfs::MiniDfs fs(3);
    fs.create("/graph/in", text);
    minihadoop::MiniCluster cluster(fs, 3);
    auto config =
        hadoop_chain(workloads::cc_job(text), "/graph/out-faulted");
    config.fault_injector = std::make_shared<fault::FaultInjector>(plan);
    const auto result = cluster.run_chain(config);
    EXPECT_EQ(parse_parts(fs, result.output_files), expected);
    EXPECT_GT(result.reduce_reexecutions, 0u);
  }
}

}  // namespace
}  // namespace mpid
