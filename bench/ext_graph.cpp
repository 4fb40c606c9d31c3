// Extension bench: iterative job chaining (DESIGN.md §16) — resident
// reducer partitions vs the HDFS round trip iterative Hadoop jobs pay
// between rounds.
//
// The paper's related work (Twister, MR-MPI) motivates exactly this: a
// chain of MapReduce rounds over a mostly-static graph, where stock
// Hadoop must write every round's output through HDFS replication, tear
// the job down, and re-ingest the state as the next job's input. The
// mapred::JobChain keeps the world resident (Config::resident_rounds):
// round N's reducer partitions become round N+1's map input in place,
// and the static graph structure is realigned once and pinned.
//
// Part 1 runs the real runtimes on three graph workloads — label-
// propagation connected components, SSSP and triangle counting — three
// ways each: the resident JobChain, MiniHadoop resident and MiniHadoop
// with the per-round DFS round trip (a fresh job per round that re-ingests
// the previous round's part files and re-realigns the statics). All three
// must be byte-identical and match the serial references; the chain
// counters must prove residency (zero static re-shuffles, zero ingest
// after round 1). Both are exit-gated.
//
// Part 2 prices the same structure at Figure 6 scale: an iterative job
// on the 8-node model, resident vs the replicated-writeback ablation, on
// GigE and an IB-class fabric. Exit gate: the resident chain must be
// >= 1.5x faster on GigE at 5 rounds.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mpid/common/table.hpp"
#include "mpid/common/units.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/mpidsim/system.hpp"
#include "mpid/proto/profiles.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/workloads/graph.hpp"
#include "mpid/workloads/presets.hpp"

namespace {

using namespace mpid;

constexpr int kPartitions = 4;

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
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

struct WorkloadResult {
  std::string name;
  std::uint64_t rounds = 0;
  std::uint64_t chained_ingest = 0;
  std::uint64_t roundtrip_ingest = 0;
  std::uint64_t resident_bytes_in = 0;
  std::uint64_t static_pinned = 0;
  std::uint64_t static_reshuffled_ablation = 0;
};

/// Runs one workload all three ways, dies on any divergence, returns the
/// residency accounting.
WorkloadResult run_workload(const std::string& name, const mapred::ChainJob& job,
                            const std::string& text,
                            const mapred::KvVec& expected,
                            common::TextTable& table) {
  const auto chained = mapred::JobChain(kPartitions).run_on_text(job, text);

  dfs::MiniDfs fs(3);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, 3);
  minihadoop::MiniChainConfig config;
  config.ingest = job.ingest;
  config.stages = job.stages;
  config.static_input = job.static_input;
  config.input_path = "/in";
  config.map_tasks = kPartitions;
  config.reduce_tasks = kPartitions;
  config.output_prefix = "/resident";
  config.resident = true;
  const auto hadoop = cluster.run_chain(config);
  config.output_prefix = "/roundtrip";
  config.resident = false;
  const auto roundtrip = cluster.run_chain(config);

  const auto hadoop_out = parse_parts(fs, hadoop.output_files);
  const auto roundtrip_out = parse_parts(fs, roundtrip.output_files);
  if (chained.outputs != hadoop_out || chained.outputs != roundtrip_out) {
    std::fprintf(stderr,
                 "FATAL: %s outputs diverge across the three executions\n",
                 name.c_str());
    std::exit(1);
  }
  if (!expected.empty() && chained.outputs != expected) {
    std::fprintf(stderr, "FATAL: %s outputs do not match the serial reference\n",
                 name.c_str());
    std::exit(1);
  }

  // Residency proof, counter by counter: statics realigned exactly once,
  // external bytes ingested exactly once, every later round fed from the
  // resident partitions.
  const auto& totals = chained.report.totals;
  if (totals.static_bytes_reshuffled != 0 ||
      hadoop.static_bytes_reshuffled != 0) {
    std::fprintf(stderr, "FATAL: %s resident run re-shuffled static input\n",
                 name.c_str());
    std::exit(1);
  }
  for (std::size_t r = 1; r < chained.report.round_totals.size(); ++r) {
    if (chained.report.round_totals[r].ingest_bytes != 0) {
      std::fprintf(stderr,
                   "FATAL: %s chained round %zu re-ingested external input\n",
                   name.c_str(), r + 1);
      std::exit(1);
    }
  }
  if (chained.rounds.size() > 1 &&
      (totals.resident_pairs_in == 0 || hadoop.resident_pairs_in == 0)) {
    std::fprintf(stderr, "FATAL: %s resident rounds read no resident pairs\n",
                 name.c_str());
    std::exit(1);
  }

  WorkloadResult w;
  w.name = name;
  w.rounds = chained.rounds.size();
  w.chained_ingest = totals.ingest_bytes;
  w.roundtrip_ingest = roundtrip.ingest_bytes;
  w.resident_bytes_in = totals.resident_bytes_in;
  w.static_pinned = totals.static_bytes_pinned;
  w.static_reshuffled_ablation = roundtrip.static_bytes_reshuffled;
  table.add_row({name, common::strformat("%llu", ull(w.rounds)),
                 common::format_bytes(w.chained_ingest),
                 common::format_bytes(w.roundtrip_ingest),
                 common::format_bytes(w.resident_bytes_in),
                 common::format_bytes(w.static_pinned),
                 common::format_bytes(w.static_reshuffled_ablation)});
  return w;
}

}  // namespace

int main() {
  workloads::GraphSpec spec;
  spec.vertices = 96;
  spec.edges = 320;
  spec.components = 3;
  spec.seed = 17;
  const auto text = workloads::generate_graph(spec);

  std::printf(
      "== Extension: iterative job chaining (graph workloads, %d vertices, "
      "%d partitions) ==\n\n",
      spec.vertices, kPartitions);

  // ---- Part 1: real runtimes, three-way byte parity (exit-gated) -------
  common::TextTable table({"workload", "rounds", "chained ingest",
                           "round-trip ingest", "resident in",
                           "static pinned", "static reshuffled (round trip)"});
  const auto cc = run_workload("cc", workloads::cc_job(text), text,
                               workloads::cc_reference(text), table);
  const auto sssp = run_workload(
      "sssp", workloads::sssp_job(text, workloads::vertex_name(0)), text,
      workloads::sssp_reference(text, workloads::vertex_name(0)), table);
  const auto tri =
      run_workload("triangle", workloads::triangle_job(text), text, {}, table);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "All three workloads byte-identical across the resident JobChain\n"
      "and MiniHadoop resident/round-trip, and equal to the serial\n"
      "references. Chained runs ingest external input exactly once and\n"
      "never re-shuffle the pinned statics; the round trip re-ingests\n"
      "every round's part files (%.1fx the external bytes for cc).\n\n",
      static_cast<double>(cc.roundtrip_ingest) /
          static_cast<double>(cc.chained_ingest));

  // ---- Part 2: Figure 6 scale, resident vs HDFS round trip -------------
  const auto profiles = proto::all_interconnects();
  const std::vector<proto::InterconnectProfile> ablation = {profiles.front(),
                                                            profiles.back()};
  std::printf(
      "== Model: 4 GB iterative job on the Figure 6 layout, resident "
      "chain vs per-round replicated HDFS writeback (3 replicas) ==\n\n");
  common::TextTable model_table({"interconnect", "rounds", "resident",
                                 "round trip", "speedup"});
  std::ostringstream model_json;
  int model_rows = 0;
  double gige_speedup_5 = 0;
  for (const auto& profile : ablation) {
    for (const int rounds : {2, 5, 10}) {
      auto run_mode = [&](bool resident) {
        auto sys = workloads::fig6_mpid_system();
        sys.fabric = profile.fabric;
        mpidsim::MpidChainSpec chain;
        chain.round = workloads::mpid_wordcount_job(4 * common::GiB);
        chain.rounds = rounds;
        chain.resident = resident;
        sim::Engine engine;
        mpidsim::MpidSystem system(engine, sys);
        return system.run_chain(chain);
      };
      const auto resident = run_mode(true);
      const auto roundtrip = run_mode(false);
      const double speedup = roundtrip.makespan.to_seconds() /
                             resident.makespan.to_seconds();
      if (&profile == &ablation.front() && rounds == 5) {
        gige_speedup_5 = speedup;
      }
      model_table.add_row(
          {profile.name, common::strformat("%d", rounds),
           common::strformat("%.0f s", resident.makespan.to_seconds()),
           common::strformat("%.0f s", roundtrip.makespan.to_seconds()),
           common::strformat("%.2fx", speedup)});
      model_json << (model_rows++ ? ",\n" : "")
                 << common::strformat(
                        "    {\"interconnect\": \"%s\", \"rounds\": %d, "
                        "\"resident_s\": %.3f, \"roundtrip_s\": %.3f, "
                        "\"speedup\": %.4f, \"reingest_bytes\": %.0f, "
                        "\"writeback_bytes\": %.0f}",
                        profile.name.c_str(), rounds,
                        resident.makespan.to_seconds(),
                        roundtrip.makespan.to_seconds(), speedup,
                        roundtrip.reingest_bytes, roundtrip.writeback_bytes);
    }
  }
  std::printf("%s\n", model_table.render().c_str());
  std::printf(
      "Reading: every non-resident round pays job startup again, re-scans\n"
      "the state from disk, and pushes its part files through the 3-way\n"
      "replication pipeline before the next round may start — costs that\n"
      "scale with the round count while the resident chain pays them once.\n"
      "The gap widens on GigE, where the writeback replicas also fight the\n"
      "shuffle for the fabric.\n");

  std::ofstream json("BENCH_ext_graph.json");
  json << "{\n  \"name\": \"ext_graph\",\n"
       << common::strformat(
              "  \"vertices\": %d,\n  \"partitions\": %d,\n", spec.vertices,
              kPartitions);
  for (const auto* w : {&cc, &sssp, &tri}) {
    json << common::strformat(
        "  \"%s_rounds\": %llu,\n"
        "  \"%s_chained_ingest_bytes\": %llu,\n"
        "  \"%s_roundtrip_ingest_bytes\": %llu,\n"
        "  \"%s_resident_bytes_in\": %llu,\n"
        "  \"%s_static_bytes_pinned\": %llu,\n"
        "  \"%s_static_bytes_reshuffled\": 0,\n",
        w->name.c_str(), ull(w->rounds), w->name.c_str(),
        ull(w->chained_ingest), w->name.c_str(), ull(w->roundtrip_ingest),
        w->name.c_str(), ull(w->resident_bytes_in), w->name.c_str(),
        ull(w->static_pinned), w->name.c_str());
  }
  json << common::strformat("  \"gige_speedup_5_rounds\": %.4f,\n",
                            gige_speedup_5)
       << "  \"model_rows\": [\n"
       << model_json.str() << "\n  ]\n}\n";
  std::printf("\nwrote BENCH_ext_graph.json\n");

  // The headline claim, enforced.
  if (gige_speedup_5 < 1.5) {
    std::fprintf(stderr,
                 "FATAL: resident chain speedup %.2fx on GigE at 5 rounds is "
                 "below the 1.5x gate\n",
                 gige_speedup_5);
    return 1;
  }
  return 0;
}
