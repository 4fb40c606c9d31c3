// Graph chain workloads against their serial references: the chained
// executor must reproduce union-find CC, Dijkstra SSSP, exact triangle
// counts and the scaled-integer PageRank fixpoint bit-for-bit, and match
// MiniHadoop's round-trip chain on cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/graph.hpp"

namespace mpid::workloads {
namespace {

GraphSpec test_spec() {
  GraphSpec spec;
  spec.vertices = 48;
  spec.edges = 120;
  spec.components = 3;
  spec.seed = 7;
  return spec;
}

TEST(GraphGen, DeterministicAndEveryVertexPresent) {
  const auto spec = test_spec();
  const auto text = generate_graph(spec);
  EXPECT_EQ(text, generate_graph(spec));

  std::set<std::string> seen;
  for (const auto& [k, v] : adjacency_static(text, false)) {
    seen.insert(k);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(spec.vertices));

  GraphSpec reseeded = spec;
  reseeded.seed = 8;
  EXPECT_NE(text, generate_graph(reseeded));
}

TEST(GraphCC, MatchesUnionFindReference) {
  const auto text = generate_graph(test_spec());
  const auto result = mapred::JobChain(4).run_on_text(cc_job(text), text);
  EXPECT_EQ(result.outputs, cc_reference(text));

  // The generator guarantees exactly `components` connected components.
  std::set<std::string> labels;
  for (const auto& [v, label] : result.outputs) labels.insert(label);
  EXPECT_EQ(labels.size(), 3u);
  // Converged: the final work round reports no label changes.
  ASSERT_GE(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds.back().counters.value("changed"), 0u);
}

TEST(GraphSSSP, MatchesDijkstraReferenceWithUnreachableVertices) {
  const auto text = generate_graph(test_spec());
  // Source in component 0: the other two components must come out "INF".
  const std::string source = vertex_name(0);
  const auto result = mapred::JobChain(4).run_on_text(sssp_job(text, source), text);
  EXPECT_EQ(result.outputs, sssp_reference(text, source));

  std::size_t unreachable = 0;
  bool source_zero = false;
  for (const auto& [v, dist] : result.outputs) {
    if (dist == "INF") ++unreachable;
    if (v == source) source_zero = (dist == std::string(10, '0'));
  }
  EXPECT_TRUE(source_zero);
  EXPECT_GT(unreachable, 0u);
}

TEST(GraphTriangles, HandCheckedAndReferenceCounts) {
  // One triangle (0,1,2), one open wedge at 3, a duplicate and a
  // self-loop to exercise dedup.
  std::string tiny;
  tiny += vertex_name(0) + " " + vertex_name(1) + " 1\n";
  tiny += vertex_name(1) + " " + vertex_name(0) + " 4\n";  // duplicate
  tiny += vertex_name(1) + " " + vertex_name(2) + " 1\n";
  tiny += vertex_name(0) + " " + vertex_name(2) + " 1\n";
  tiny += vertex_name(2) + " " + vertex_name(3) + " 1\n";
  tiny += vertex_name(3) + " " + vertex_name(3) + " 1\n";  // self-loop
  EXPECT_EQ(triangle_reference(tiny), 1u);
  const auto small = mapred::JobChain(3).run_on_text(triangle_job(tiny), tiny);
  EXPECT_EQ(small.report.totals.chain_rounds, 3u);  // three fixed stages
  EXPECT_EQ(small.rounds.back().counters.value("triangles"), 1u);

  const auto text = generate_graph(test_spec());
  const auto result = mapred::JobChain(4).run_on_text(triangle_job(text), text);
  const auto expected = triangle_reference(text);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(result.rounds.back().counters.value("triangles"), expected);
}

TEST(GraphPageRank, MatchesScaledIntegerReference) {
  const auto spec = test_spec();
  const auto text = generate_graph(spec);
  const auto result = mapred::JobChain(4).run_on_text(
      pagerank_job(text, 5, spec.vertices), text);
  EXPECT_EQ(result.outputs, pagerank_reference(text, 5, spec.vertices));
  // 1 seed round + 5 iterations, no convergence predicate.
  EXPECT_EQ(result.rounds.size(), 6u);
}

TEST(GraphChains, UnchainedAblationIsByteIdentical) {
  // The unchained ablation is MiniHadoop's round-trip chain: one fresh
  // job per round, state written to and re-read from the DFS.
  const auto text = generate_graph(test_spec());
  const auto resident = mapred::JobChain(4).run_on_text(cc_job(text), text);

  dfs::MiniDfs fs(3);
  fs.create("/graph/in", text);
  minihadoop::MiniCluster cluster(fs, 3);
  minihadoop::MiniChainConfig config;
  const auto job = cc_job(text);
  config.ingest = job.ingest;
  config.stages = job.stages;
  config.static_input = job.static_input;
  config.input_path = "/graph/in";
  config.output_prefix = "/graph/roundtrip";
  config.map_tasks = 4;
  config.reduce_tasks = 4;
  config.resident = false;
  const auto ablation = cluster.run_chain(config);

  mapred::KvVec ablation_out;
  for (const auto& file : ablation.output_files) {
    const std::string body = fs.read(file);
    mapred::LineReader lines(body);
    while (auto line = lines.next()) {
      const auto tab = line->find('\t');
      ablation_out.emplace_back(std::string(line->substr(0, tab)),
                                std::string(line->substr(tab + 1)));
    }
  }
  std::sort(ablation_out.begin(), ablation_out.end());
  EXPECT_EQ(resident.outputs, ablation_out);
  ASSERT_EQ(resident.rounds.size(), ablation.rounds.size());
  for (std::size_t r = 0; r < resident.rounds.size(); ++r) {
    EXPECT_EQ(resident.rounds[r].counters.values(),
              ablation.rounds[r].counters.values())
        << r;
  }
  // The resident chain pins the adjacency once; the ablation realigns it
  // every round and re-ingests every round's state.
  EXPECT_EQ(resident.report.totals.static_bytes_reshuffled, 0u);
  EXPECT_GT(ablation.static_bytes_reshuffled, 0u);
  EXPECT_GT(ablation.ingest_bytes, resident.report.totals.ingest_bytes);
}

}  // namespace
}  // namespace mpid::workloads
