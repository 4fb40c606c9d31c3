// Extension bench: hierarchical node-local shuffle aggregation
// (DESIGN.md §14) — the structural cut in cross-fabric traffic.
//
// The paper's combiner shrinks each mapper's output, but every co-located
// mapper still ships its own copy of the hot keys across the wire. With
// node_aggregation the node's mappers merge duplicate keys through an
// in-node combine tree first and the fabric carries ONE stream per
// (node, reducer-partition) — with m combiner-friendly mappers per node,
// ~1/m of the traffic, before compression multiplies the cut.
//
// Part 1 runs the real runtimes (MPI-D JobRunner and MiniHadoop) on a
// combiner-enabled WordCount, 8 mappers at 4 per node, and verifies that
// (a) job output is byte-identical with aggregation on and off, on both
// runtimes, and (b) MPI-D's wire volume (shuffle_bytes_wire) drops >= 2x.
// The exit code gates (b), like ext_interconnect_shuffle.
//
// Part 2 asks the cluster-scale question on the Figure 6 model: how does
// the in-node merge (CPU spent) trade against the fabric bytes saved, on
// GigE vs an IB-class wire, with and without the codec? Expected shape:
// on GigE the shuffle is byte-bound and aggregation composes with
// compression into a large win; on the fast wire the fabric was never the
// bottleneck, so the merge CPU buys little — the same asymmetry the paper
// found for every communication-side optimization.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codec_sample.hpp"

#include "mpid/common/table.hpp"
#include "mpid/common/units.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/mpidsim/system.hpp"
#include "mpid/proto/profiles.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/workloads/presets.hpp"
#include "mpid/workloads/text.hpp"

namespace {

using namespace mpid;

constexpr int kMappers = 8;
constexpr int kRanksPerNode = 4;  // 2 modeled nodes of 4 mappers each
constexpr int kReducers = 2;
constexpr std::uint64_t kInputBytes = 512 * 1024;

/// Combiner-friendly corpus: a vocabulary small enough that every
/// mapper's split covers most of it, so co-located mappers' combined
/// outputs are near-duplicates — the workload shape the in-node combine
/// tree exists for (a huge tail of mapper-unique words would cap the
/// structural cut at ~1x no matter the topology).
workloads::TextSpec corpus() {
  workloads::TextSpec spec;
  spec.vocabulary = 1000;
  return spec;
}

mapred::JobDef wordcount_def() {
  mapred::JobDef job;
  job.map = [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
      start = end + 1;
    }
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

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

int main() {
  std::printf(
      "== Extension: node-local shuffle aggregation (WordCount %s, "
      "%d mappers at %d per node, %d reducers) ==\n\n",
      common::format_bytes(kInputBytes).c_str(), kMappers, kRanksPerNode,
      kReducers);

  const auto text = workloads::generate_text(corpus(), kInputBytes, 2026);

  // ---- Part 1a: MPI-D, aggregation off vs on (exit-gated) --------------
  auto run_mpid = [&](bool aggregate) {
    auto job = wordcount_def();
    job.tuning.shuffle_compression = core::ShuffleCompression::kOn;
    job.tuning.node_aggregation = aggregate;
    job.tuning.ranks_per_node = kRanksPerNode;
    return mapred::JobRunner(kMappers, kReducers).run_on_text(job, text);
  };
  const auto mpid_off = run_mpid(false);
  const auto mpid_on = run_mpid(true);
  if (mpid_on.outputs != mpid_off.outputs) {
    std::fprintf(stderr,
                 "FATAL: MPI-D output differs with node aggregation on — "
                 "the combine tree is not output-preserving\n");
    return 1;
  }

  const auto& off = mpid_off.report.totals;
  const auto& on = mpid_on.report.totals;
  const double wire_cut = static_cast<double>(off.shuffle_bytes_wire) /
                          static_cast<double>(on.shuffle_bytes_wire);
  const double fabric_cut = static_cast<double>(off.bytes_sent) /
                            static_cast<double>(on.bytes_sent);
  const double structural_cut =
      static_cast<double>(on.bytes_pre_node_agg) /
      static_cast<double>(on.bytes_post_node_agg);

  common::TextTable mpid_table({"node agg", "wire bytes", "fabric payload",
                                "pre-agg", "post-agg", "merge ms"});
  mpid_table.add_row({"off", common::format_bytes(off.shuffle_bytes_wire),
                      common::format_bytes(off.bytes_sent), "-", "-", "-"});
  mpid_table.add_row(
      {"on", common::format_bytes(on.shuffle_bytes_wire),
       common::format_bytes(on.bytes_sent),
       common::format_bytes(on.bytes_pre_node_agg),
       common::format_bytes(on.bytes_post_node_agg),
       common::strformat("%.2f", on.node_agg_merge_ns / 1e6)});
  std::printf("MPI-D (shuffle_compression=on):\n%s\n",
              mpid_table.render().c_str());
  std::printf(
      "Output byte-identical; wire volume cut %.2fx (fabric payload "
      "%.2fx,\nstructural pre/post merge cut %.2fx at %d mappers/node).\n\n",
      wire_cut, fabric_cut, structural_cut, kRanksPerNode);

  // ---- Part 1b: MiniHadoop, same job, tracker == node ------------------
  dfs::MiniDfs fs(2);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, 2);
  auto run_hadoop = [&](bool aggregate, const std::string& prefix) {
    const auto def = wordcount_def();
    minihadoop::MiniJobConfig job;
    job.map = def.map;
    job.reduce = def.reduce;
    job.combiner = def.combiner;
    job.input_path = "/in";
    job.output_prefix = prefix;
    job.map_tasks = kMappers;
    job.reduce_tasks = kReducers;
    job.shuffle_compression = shuffle::ShuffleCompression::kOn;
    job.node_aggregation = aggregate;
    return cluster.run(job);
  };
  const auto hadoop_off = run_hadoop(false, "/off");
  const auto hadoop_on = run_hadoop(true, "/on");
  if (hadoop_off.output_files.size() != hadoop_on.output_files.size()) {
    std::fprintf(stderr, "FATAL: MiniHadoop output file count differs\n");
    return 1;
  }
  for (std::size_t p = 0; p < hadoop_off.output_files.size(); ++p) {
    if (fs.read(hadoop_off.output_files[p]) !=
        fs.read(hadoop_on.output_files[p])) {
      std::fprintf(stderr,
                   "FATAL: MiniHadoop output differs with node aggregation "
                   "on — the aggregated servlet is not output-preserving\n");
      return 1;
    }
  }
  const double hadoop_fetch_cut =
      static_cast<double>(hadoop_off.shuffled_bytes) /
      static_cast<double>(hadoop_on.shuffled_bytes);
  std::printf(
      "MiniHadoop: output byte-identical; fetched HTTP bodies %s -> %s "
      "(%.2fx),\n%llu -> %llu shuffle GETs (one aggregated stream per "
      "tracker).\n\n",
      common::format_bytes(hadoop_off.shuffled_bytes).c_str(),
      common::format_bytes(hadoop_on.shuffled_bytes).c_str(),
      hadoop_fetch_cut, ull(hadoop_off.shuffle_requests),
      ull(hadoop_on.shuffle_requests));

  // ---- Part 2: Figure 6 model — merge CPU vs fabric bytes saved --------
  const auto wc_sample =
      bench::measure_codec(bench::wordcount_frame(4 << 20, 7));
  const auto profiles = proto::all_interconnects();
  const std::vector<proto::InterconnectProfile> ablation = {profiles.front(),
                                                            profiles.back()};

  std::printf(
      "== Model: 30 GB WordCount on the Figure 6 layout (7 mappers/node) "
      "==\n\n");
  common::TextTable model_table({"interconnect", "node agg", "codec",
                                 "wire bytes", "map phase", "makespan"});
  std::ostringstream model_json;
  int model_rows = 0;
  for (const auto& profile : ablation) {
    for (const bool aggregate : {false, true}) {
      for (const bool codec : {false, true}) {
        auto spec = workloads::fig6_mpid_system();
        spec.fabric = profile.fabric;
        spec.node_aggregation = aggregate;
        auto job = workloads::mpid_wordcount_job(30 * common::GiB);
        job.compress_shuffle = codec;
        job.shuffle_compression_ratio = wc_sample.ratio;
        sim::Engine engine;
        mpidsim::MpidSystem system(engine, spec);
        const auto result = system.run(job);
        double wire = result.intermediate_bytes;
        if (aggregate) wire /= spec.mappers_per_node;
        if (codec) wire /= wc_sample.ratio;
        model_table.add_row(
            {profile.name, aggregate ? "on" : "off", codec ? "on" : "off",
             common::format_bytes(static_cast<std::uint64_t>(wire)),
             common::strformat("%.0f s", result.map_phase_end.to_seconds()),
             common::strformat("%.0f s", result.makespan.to_seconds())});
        model_json << (model_rows++ ? ",\n" : "")
                   << common::strformat(
                          "    {\"interconnect\": \"%s\", \"node_agg\": %s, "
                          "\"codec\": %s, \"wire_bytes\": %.0f, "
                          "\"map_phase_s\": %.3f, \"makespan_s\": %.3f}",
                          profile.name.c_str(), aggregate ? "true" : "false",
                          codec ? "true" : "false", wire,
                          result.map_phase_end.to_seconds(),
                          result.makespan.to_seconds());
      }
    }
  }
  std::printf("%s\n", model_table.render().c_str());
  std::printf(
      "Reading: the single Figure 6 reducer caps the makespan at its own\n"
      "processing rate, so the fabric shows up in the MAP phase: on GigE\n"
      "the 49 mappers' send windows stall on the reducer node's downlink\n"
      "until node aggregation's structural %dx cut (stacking with the\n"
      "codec's measured %.2fx) pulls the map wave back to disk-bound — the\n"
      "level the IB-class wire reaches with no aggregation at all. Buying\n"
      "the cut with in-node merge CPU or with a faster fabric is the same\n"
      "trade the paper prices for every communication-side fix.\n",
      workloads::fig6_mpid_system().mappers_per_node, wc_sample.ratio);

  // The snapshot holds only what is the same on every run. The merge
  // time is wall clock, and MiniHadoop's aggregated fetch bytes depend on
  // which map outputs are complete when a reducer groups its fetches, so
  // both stay on stdout.
  std::ofstream json("BENCH_ext_node_agg.json");
  json << "{\n  \"name\": \"ext_node_agg\",\n"
       << "  \"input_bytes\": " << kInputBytes << ",\n"
       << "  \"mappers\": " << kMappers << ",\n"
       << "  \"ranks_per_node\": " << kRanksPerNode << ",\n"
       << "  \"reducers\": " << kReducers << ",\n"
       << common::strformat(
              "  \"mpid_wire_bytes_off\": %llu,\n"
              "  \"mpid_wire_bytes_on\": %llu,\n"
              "  \"mpid_wire_cut\": %.4f,\n"
              "  \"mpid_fabric_cut\": %.4f,\n"
              "  \"mpid_bytes_pre_node_agg\": %llu,\n"
              "  \"mpid_bytes_post_node_agg\": %llu,\n"
              "  \"hadoop_shuffled_bytes_off\": %llu,\n",
              ull(off.shuffle_bytes_wire), ull(on.shuffle_bytes_wire),
              wire_cut, fabric_cut, ull(on.bytes_pre_node_agg),
              ull(on.bytes_post_node_agg),
              ull(hadoop_off.shuffled_bytes))
       << "  \"model_rows\": [\n"
       << model_json.str() << "\n  ]\n}\n";
  std::printf("\nwrote BENCH_ext_node_agg.json\n");

  // The headline claim, enforced: at >= 4 combiner-friendly mappers per
  // node the aggregated wire volume must be at least half the per-mapper
  // volume — otherwise the combine tree has regressed.
  return wire_cut >= 2.0 ? 0 : 1;
}
