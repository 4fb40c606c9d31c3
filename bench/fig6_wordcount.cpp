// Figure 6 — "Performance Comparison of WordCount Example between Our
// Simulation System with the MPI-D Prototype and Hadoop": WordCount over
// 1-100 GB on the 8-node cluster; Hadoop runs with 7/7 slots and its
// default single reduce task; the MPI-D system runs 49 mapper processes,
// 1 reducer and a rank-0 master.
//
// Paper anchors: Hadoop 49 s -> 2001 s and MPI-D 3.9 s -> 1129 s across
// 1/10/100 GB; MPI-D's time is 8% / 48% / 56% of Hadoop's (a 44% saving
// at 100 GB).
//
// A second table re-runs every point with shuffle compression on
// (mapred.compress.map.output on the Hadoop side, shuffle_compression on
// the MPI-D side), with the ratio measured from the real codec on
// post-combiner WordCount frames — the paper anchors stay against the
// uncompressed baseline.
// Passing a threads argument (`fig6_wordcount <threads>`) reruns the
// MPI-D side with the hybrid process+threads model
// (SystemSpec::map_threads, mirroring core::Config::map_threads), so the
// paper-scale figure can be reproduced with multi-core ranks.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "codec_sample.hpp"

#include "mpid/common/table.hpp"
#include "mpid/common/units.hpp"
#include "mpid/hadoop/cluster.hpp"
#include "mpid/mpidsim/system.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/workloads/presets.hpp"

int main(int argc, char** argv) {
  using namespace mpid;
  using common::GiB;

  int map_threads = 1;
  if (argc > 1) {
    map_threads = std::atoi(argv[1]);
    if (map_threads < 1) {
      std::fprintf(stderr, "usage: %s [map_threads >= 1]\n", argv[0]);
      return 2;
    }
  }

  std::printf(
      "== Figure 6: WordCount, Hadoop vs the MPI-D simulation system ==\n");
  std::printf("   (MPI-D ranks: %d worker thread%s per mapper process)\n\n",
              map_threads, map_threads == 1 ? "" : "s");

  struct PaperPoint {
    std::uint64_t gb;
    double hadoop_s;  // <= 0 when the paper doesn't quote the value
    double mpid_s;
    double ratio;
  };
  const std::vector<PaperPoint> points = {
      {1, 49.0, 3.9, 0.08},   {3, -1, -1, -1},     {10, -1, -1, 0.48},
      {30, -1, -1, -1},       {100, 2001.0, 1129.0, 0.56}};

  // The compression tables feed the model the real codec's measured
  // ratio on post-combiner WordCount frames (auto-mode semantics).
  const auto codec =
      bench::measure_codec(bench::wordcount_frame(4 << 20, 7));

  common::TextTable table({"input", "Hadoop", "MPI-D system",
                           "MPI-D/Hadoop", "paper ratio"});
  common::TextTable codec_table({"input", "shuffle raw", "shuffle wire",
                                 "Hadoop +codec", "MPI-D +codec"});
  common::TextTable store_table({"input", "folded spill", "two-tier store",
                                 "spilled", "merge passes"});
  for (const auto& p : points) {
    const auto run_hadoop = [&](bool compress) {
      sim::Engine engine;
      hadoop::Cluster cluster(engine, workloads::fig6_hadoop_cluster());
      auto job = workloads::hadoop_wordcount_job(p.gb * GiB);
      job.compress_map_output = compress;
      job.shuffle_compression_ratio = codec.ratio;
      return cluster.run(job).makespan.to_seconds();
    };
    const auto run_mpid_result = [&](bool compress, bool store_model) {
      sim::Engine engine;
      auto spec = workloads::fig6_mpid_system();
      spec.map_threads = map_threads;
      spec.model_spill_store = store_model;
      mpidsim::MpidSystem system(engine, spec);
      auto job = workloads::mpid_wordcount_job(p.gb * GiB);
      job.compress_shuffle = compress;
      job.shuffle_compression_ratio = codec.ratio;
      return system.run(job);
    };
    const auto run_mpid = [&](bool compress) {
      return run_mpid_result(compress, false).makespan.to_seconds();
    };
    const double hadoop_s = run_hadoop(false);
    const double mpid_s = run_mpid(false);

    table.add_row(
        {common::strformat("%llu GB", static_cast<unsigned long long>(p.gb)),
         p.hadoop_s > 0
             ? common::strformat("%.1f s (paper %.0f)", hadoop_s, p.hadoop_s)
             : common::strformat("%.1f s", hadoop_s),
         p.mpid_s > 0
             ? common::strformat("%.1f s (paper %.0f)", mpid_s, p.mpid_s)
             : common::strformat("%.1f s", mpid_s),
         common::strformat("%.0f%%", 100.0 * mpid_s / hadoop_s),
         p.ratio > 0 ? common::strformat("%.0f%%", 100.0 * p.ratio) : "-"});

    const double hadoop_codec_s = run_hadoop(true);
    const double mpid_codec_s = run_mpid(true);
    const double raw_gb = 0.30 * static_cast<double>(p.gb);  // combiner out
    codec_table.add_row(
        {common::strformat("%llu GB", static_cast<unsigned long long>(p.gb)),
         common::strformat("%.1f GB", raw_gb),
         common::strformat("%.1f GB", raw_gb / codec.ratio),
         common::strformat("%.1f s (%.2fx)", hadoop_codec_s,
                           hadoop_s / hadoop_codec_s),
         common::strformat("%.1f s (%.2fx)", mpid_codec_s,
                           mpid_s / mpid_codec_s)});

    // Bounded-RAM column: the same points with the two-tier store modeled
    // explicitly (budget-sized runs through the reducer node's disk plus
    // the fan-in merge cascade) instead of the folded spill rate.
    const auto store_run = run_mpid_result(false, true);
    store_table.add_row(
        {common::strformat("%llu GB", static_cast<unsigned long long>(p.gb)),
         common::strformat("%.1f s", mpid_s),
         common::strformat("%.1f s", store_run.makespan.to_seconds()),
         common::strformat("%.1f GB", store_run.spilled_bytes /
                                          static_cast<double>(GiB)),
         common::strformat("%d", store_run.external_merge_passes)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: MPI-D wins by an order of magnitude on startup-dominated\n"
      "small jobs and still saves ~40-60%% at 100 GB, where both systems\n"
      "are bounded by the single reducer — the paper's Figure 6 shape.\n\n");

  std::printf(
      "== With shuffle compression (real codec, measured %.2fx on\n"
      "   post-combiner WordCount frames) ==\n\n%s\n",
      codec.ratio, codec_table.render().c_str());
  std::printf(
      "Reading: the codec cuts the wire volume ~%.1fx, but Figure 6's\n"
      "makespans barely move — both systems funnel everything into one\n"
      "reducer whose *processing* rate, not the fabric, is the binding\n"
      "constraint here (the scalability limit the paper lists as future\n"
      "work), and MPI-D even pays a small encode/decode tax. The freed\n"
      "bandwidth is real — ext_interconnect_shuffle isolates the fetch\n"
      "path and shows the >4x transfer win — it just is not this\n"
      "workload's bottleneck. Compression composes with, rather than\n"
      "substitutes for, scaling the reducers.\n\n",
      codec.ratio);

  std::printf(
      "== Bounded RAM: the two-tier spill store (mpid::store) modeled\n"
      "   explicitly ==\n\n%s\n",
      store_table.render().c_str());
  std::printf(
      "Reading: below the 1.5 GB reducer budget the columns agree — no\n"
      "spill, no merge passes. Beyond it the two-tier column charges the\n"
      "real cost shape: run writes and the fan-in merge cascade go through\n"
      "the reducer node's disk (shared with its mappers), so the spill\n"
      "penalty scales with disk bandwidth and cascade depth instead of one\n"
      "folded rate — the 100 GB-class regime mpid::store exists for.\n");
  return 0;
}
