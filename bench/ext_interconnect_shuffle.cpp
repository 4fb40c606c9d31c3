// Extension bench: does a faster wire fix Hadoop's shuffle? (the Sur et
// al. [17] question, asked of the cluster model). JavaSort 27 GB runs on
// GigE, 10 GbE and an InfiniBand-class fabric; only the interconnect
// changes — disks, JVMs and the scheduler stay fixed.
//
// Expected answer: only partially. The shuffle serving path is disk-seek
// bound (thousands of small segment reads per node), so upgrading the
// fabric shrinks the wire share of the copy stage but not its disk share
// — which is why the paper's proposal attacks the *software* stack
// (serialization, per-call overheads) and not just the wire.
//
// The second table asks the complementary software-level question:
// instead of a faster wire, compress the map outputs
// (mapred.compress.map.output — the knob the functional runtimes expose
// as shuffle_compression=auto). The ratio fed to the model is measured
// from the real codec (common/codec.hpp) on frames with the workload's
// data statistics, so the modeled win is the codec's real win. On the
// byte-bound WordCount shuffle the GigE copy stage must improve >= 1.5x;
// on the seek-bound JavaSort shuffle the same codec helps far less —
// compression, like the wire, only fixes the bottleneck it touches.
#include <cstdio>

#include "codec_sample.hpp"

#include "mpid/common/stats.hpp"
#include "mpid/common/table.hpp"
#include "mpid/common/units.hpp"
#include "mpid/hadoop/cluster.hpp"
#include "mpid/proto/profiles.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/workloads/presets.hpp"

namespace {

mpid::hadoop::JobResult run_job(const mpid::hadoop::ClusterSpec& spec,
                                const mpid::hadoop::JobSpec& job) {
  mpid::sim::Engine engine;
  mpid::hadoop::Cluster cluster(engine, spec);
  return cluster.run(job);
}

double body_copy_avg(const mpid::hadoop::JobResult& result) {
  mpid::common::SampleSet all;
  for (const auto& r : result.reduces) all.add(r.copy_seconds());
  const double median = all.percentile(50);
  mpid::common::OnlineStats body;
  for (const auto& r : result.reduces) {
    if (r.copy_seconds() <= 5.0 * median) body.add(r.copy_seconds());
  }
  return body.mean();
}

}  // namespace

int main() {
  using namespace mpid;
  using common::GiB;

  // Measure the real codec once per data shape; the model consumes the
  // achieved ratio (auto-mode semantics: stored escapes included).
  const auto sort_sample =
      bench::measure_codec(bench::javasort_frame(4 << 20, 7));
  const auto wc_sample =
      bench::measure_codec(bench::wordcount_frame(4 << 20, 7));

  std::printf(
      "== Extension: JavaSort 27 GB across interconnects (Sur et al.'s "
      "question) ==\n\n");

  common::TextTable table({"interconnect", "wire rate", "makespan",
                           "copy share", "body copy avg", "makespan +codec"});
  for (const auto& profile : proto::all_interconnects()) {
    auto spec = workloads::paper_cluster(8, 8);
    spec.network = profile.fabric;
    auto job = workloads::javasort_job(spec, 27 * GiB);
    const auto result = run_job(spec, job);

    job.compress_map_output = true;
    job.shuffle_compression_ratio = sort_sample.ratio;
    const auto compressed = run_job(spec, job);

    table.add_row(
        {profile.name,
         common::strformat("%.0f MB/s",
                           profile.fabric.link_bytes_per_second / 1e6),
         common::strformat("%.0f s", result.makespan.to_seconds()),
         common::strformat("%.1f%%", 100.0 * result.copy_fraction()),
         common::strformat("%.1f s", body_copy_avg(result)),
         common::strformat("%.0f s", compressed.makespan.to_seconds())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: a 27x faster wire (GigE -> IB-class) barely moves the\n"
      "copy stage — shuffle serving is bound by disk seeks and the\n"
      "software stack, not bandwidth. Faster interconnects alone do not\n"
      "rescue Hadoop's shuffle; restructuring the communication software\n"
      "(the paper's MPI-D) is the complementary half, and Sur et al.'s\n"
      "11-219%% HDFS-level gains likewise came with SSDs in the mix.\n"
      "Compressing the sorted-text segments (measured ratio %.2fx) helps\n"
      "only marginally here for the same reason: seeks, not bytes.\n\n",
      sort_sample.ratio);

  std::printf(
      "== Compression instead of a faster wire: WordCount 30 GB "
      "(byte-bound shuffle) ==\n\n");

  // Shuffle time = the copy stage minus its waiting-for-maps component
  // (Hadoop's copy timer includes idle waits; the model itemizes them),
  // i.e. the seconds actually spent fetching bytes.
  const auto transfer_seconds = [](const hadoop::JobResult& r) {
    double total = 0;
    for (const auto& reduce : r.reduces) total += reduce.copy_transfer_seconds();
    return total;
  };

  common::TextTable wc_table({"interconnect", "shuffle off", "shuffle auto",
                              "shuffle speedup", "makespan off",
                              "makespan auto"});
  double gige_speedup = 0.0;
  bool first = true;
  for (const auto& profile : proto::all_interconnects()) {
    auto spec = workloads::fig6_hadoop_cluster();
    spec.network = profile.fabric;
    auto job = workloads::hadoop_wordcount_job(30 * GiB);
    const auto off = run_job(spec, job);

    job.compress_map_output = true;
    job.shuffle_compression_ratio = wc_sample.ratio;
    const auto on = run_job(spec, job);

    const double speedup = transfer_seconds(off) / transfer_seconds(on);
    if (first) gige_speedup = speedup;  // all_interconnects() leads GigE
    first = false;
    wc_table.add_row(
        {profile.name,
         common::strformat("%.0f s", transfer_seconds(off)),
         common::strformat("%.0f s", transfer_seconds(on)),
         common::strformat("%.2fx", speedup),
         common::strformat("%.0f s", off.makespan.to_seconds()),
         common::strformat("%.0f s", on.makespan.to_seconds())});
  }
  std::printf("%s\n", wc_table.render().c_str());
  std::printf(
      "Reading: WordCount funnels its whole intermediate volume through\n"
      "one reducer, so the fetch path is bytes-bound and the codec's\n"
      "measured %.2fx ratio (Zipf word counts, prefix-delta keys +\n"
      "dictionary values) turns into a %.2fx GigE shuffle-transfer win —\n"
      "more than the jump to a 10x faster wire buys, for the price of\n"
      "some map-side CPU. The makespan moves less (the copy stage mostly\n"
      "overlaps the map wave); compression attacks the software-level\n"
      "bottleneck — bytes through Jetty — that the wire upgrade cannot.\n",
      wc_sample.ratio, gige_speedup);
  return gige_speedup >= 1.5 ? 0 : 1;
}
