// Extension bench: completion time vs fault rate for both runtimes.
//
// The paper's Section VI leaves MPI-D fault tolerance as an open issue;
// mpid::fault closes it, and this bench measures what the paper could
// not: how gracefully each runtime degrades as faults ramp up. The same
// WordCount (4 map / 2 reduce tasks) runs on MiniHadoop (heartbeat
// detection + task re-execution + fetch retry) and on MPI-D's resilient
// shuffle (seq/ack frames + retransmission + task restart) under one
// seeded FaultPlan per rate. Every faulted run is verified byte-identical
// to the fault-free baseline — a run that degrades *incorrectly* aborts
// the bench.
//
// At rate r, MiniHadoop sees crash/fetch/heartbeat faults and MPI-D sees
// crash/drop/corrupt faults — each runtime is attacked at the layers it
// defends. Every run additionally executes under a tight mpid::store
// memory budget (~1/10 of the shuffle working set) AND with hierarchical
// node aggregation on (DESIGN.md §14), so fault recovery, the disk tier
// and the in-node combine tree are exercised *together*: re-executed
// tasks re-stage and re-merge, restarted reducers re-pull aggregated
// lanes, and the spilled/aggregation counters show what that costs.
// Results print as a table and land in BENCH_ext_fault_degradation.json
// for the trajectory across PRs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/table.hpp"
#include "mpid/common/units.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/text.hpp"

namespace {

using namespace mpid;
using Clock = std::chrono::steady_clock;

constexpr int kMaps = 4;
constexpr int kReduces = 2;
constexpr std::uint64_t kInputBytes = 256 * 1024;
constexpr std::size_t kMemoryBudget = 32 * 1024;  // ~1/10 the working set

/// Arms the two-tier store on either runtime's inherited ShuffleOptions.
void arm_budget(shuffle::ShuffleOptions& opts, const std::string& spill_dir) {
  opts.memory_budget_bytes = kMemoryBudget;
  opts.spill_dir = spill_dir;
  opts.spill_page_bytes = shuffle::ShuffleOptions::kMinSpillPageBytes;
  opts.spill_merge_fanin = 4;
}

mapred::MapFn wc_map() {
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

/// Partial-sum combiner: reduce is associative, so pre-agg output is
/// byte-identical and the in-node merge has duplicates to collapse.
shuffle::Combiner wc_combine() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

mapred::ReduceFn wc_reduce() {
  return [](std::string_view key, std::span<const std::string> values,
            mapred::ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// MiniHadoop's fault diet at rate r: task crashes, shuffle-fetch errors
/// and dropped heartbeats (the faults its recovery machinery handles).
fault::FaultPlan hadoop_plan(double rate, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  // Crash draws are per-attempt (not per-event like the transport rates),
  // so scale them up to keep task recovery visible at small rates.
  plan.map_crash_prob = std::min(1.0, 3 * rate);
  plan.reduce_crash_prob = std::min(1.0, 3 * rate);
  plan.fetch_error_prob = rate;
  plan.heartbeat_drop_prob = rate / 2;
  return plan;
}

/// MPI-D's fault diet at rate r: task crashes plus frame drop/corruption
/// on the data channel (what the resilient shuffle defends against).
fault::FaultPlan mpid_plan(double rate, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  // Crash draws are per-attempt (not per-event like the transport rates),
  // so scale them up to keep task recovery visible at small rates.
  plan.map_crash_prob = std::min(1.0, 3 * rate);
  plan.reduce_crash_prob = std::min(1.0, 3 * rate);
  plan.message_drop_prob = rate;
  plan.message_corrupt_prob = rate / 2;
  return plan;
}

struct HadoopRun {
  double ms = 0;
  minihadoop::JobSummary summary;
};

struct MpidRun {
  double ms = 0;
  core::Stats totals;
};

[[noreturn]] void die(const char* runtime, double rate) {
  std::fprintf(stderr,
               "FATAL: %s output at fault rate %.2f differs from the "
               "fault-free baseline — recovery is broken\n",
               runtime, rate);
  std::abort();
}

}  // namespace

int main() {
  std::printf(
      "== Extension: completion time vs fault rate (WordCount %s, "
      "%d map / %d reduce) ==\n\n",
      common::format_bytes(kInputBytes).c_str(), kMaps, kReduces);

  const auto text = workloads::generate_text({}, kInputBytes, 2026);
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.10, 0.20};

  std::string spill_tmpl =
      (std::filesystem::temp_directory_path() / "mpid-faultbench-XXXXXX");
  const std::string spill_dir = ::mkdtemp(spill_tmpl.data());

  // ---- MiniHadoop side: one DFS + cluster reused across rates ----
  dfs::MiniDfs fs(2);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, 2);

  auto run_hadoop = [&](std::shared_ptr<fault::FaultInjector> inj,
                        const std::string& prefix) {
    minihadoop::MiniJobConfig job;
    job.map = wc_map();
    job.reduce = wc_reduce();
    job.combiner = wc_combine();
    job.input_path = "/in";
    job.output_prefix = prefix;
    job.map_tasks = kMaps;
    job.reduce_tasks = kReduces;
    job.fault_injector = std::move(inj);
    job.node_aggregation = true;  // each tasktracker serves one merged stream
    arm_budget(job, spill_dir);
    HadoopRun run;
    const auto start = Clock::now();
    run.summary = cluster.run(job);
    run.ms = ms_since(start);
    return run;
  };

  auto run_mpid = [&](std::shared_ptr<fault::FaultInjector> inj) {
    mapred::JobDef job;
    job.map = wc_map();
    job.reduce = wc_reduce();
    job.combiner = wc_combine();
    job.tuning.node_aggregation = true;  // 2 modeled nodes of 2 mappers
    job.tuning.ranks_per_node = 2;
    arm_budget(job.tuning, spill_dir);
    if (inj) {
      job.tuning.resilient_shuffle = true;
      job.tuning.fault_injector = std::move(inj);
      job.tuning.partition_frame_bytes = 4 * 1024;  // several frames per lane
    }
    const auto start = Clock::now();
    auto result = mapred::JobRunner(kMaps, kReduces).run_on_text(job, text);
    MpidRun run;
    run.ms = ms_since(start);
    run.totals = result.report.totals;
    return std::pair{std::move(run), std::move(result.outputs)};
  };

  // Fault-free baselines (and the golden outputs every run must match).
  const auto hadoop_base = run_hadoop(nullptr, "/base");
  std::vector<std::string> golden_parts;
  for (const auto& path : hadoop_base.summary.output_files) {
    golden_parts.push_back(fs.read(path));
  }
  auto [mpid_base, golden_outputs] = run_mpid(nullptr);

  common::TextTable table({"fault rate", "Hadoop", "slowdown", "reexec",
                           "fetch retries", "spilled", "MPI-D", "slowdown",
                           "retransmits", "restarts", "spilled"});
  std::ostringstream rows_json;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];
    const std::uint64_t seed = 90 + i;

    HadoopRun hadoop = hadoop_base;
    MpidRun mpid = mpid_base;
    if (rate > 0.0) {
      hadoop = run_hadoop(
          std::make_shared<fault::FaultInjector>(hadoop_plan(rate, seed)),
          "/out" + std::to_string(i));
      for (std::size_t p = 0; p < hadoop.summary.output_files.size(); ++p) {
        if (fs.read(hadoop.summary.output_files[p]) != golden_parts[p]) {
          die("MiniHadoop", rate);
        }
      }
      auto [run, outputs] = run_mpid(
          std::make_shared<fault::FaultInjector>(mpid_plan(rate, seed)));
      if (outputs != golden_outputs) die("MPI-D", rate);
      mpid = run;
    }

    const auto& s = hadoop.summary;
    const auto& t = mpid.totals;
    table.add_row(
        {common::strformat("%.2f", rate),
         common::strformat("%.1f ms", hadoop.ms),
         common::strformat("%.2fx", hadoop.ms / hadoop_base.ms),
         common::strformat("%llu", static_cast<unsigned long long>(
                                       s.map_reexecutions +
                                       s.reduce_reexecutions)),
         common::strformat(
             "%llu", static_cast<unsigned long long>(s.shuffle_fetch_retries)),
         common::format_bytes(s.bytes_spilled_disk),
         common::strformat("%.1f ms", mpid.ms),
         common::strformat("%.2fx", mpid.ms / mpid_base.ms),
         common::strformat(
             "%llu", static_cast<unsigned long long>(t.frames_retransmitted)),
         common::strformat("%llu",
                           static_cast<unsigned long long>(t.task_restarts)),
         common::format_bytes(t.bytes_spilled_disk)});

    rows_json << (i ? ",\n" : "")
              << common::strformat(
                     "    {\"fault_rate\": %.2f, \"hadoop_ms\": %.3f, "
                     "\"hadoop_reexecutions\": %llu, "
                     "\"hadoop_fetch_retries\": %llu, "
                     "\"hadoop_heartbeat_errors\": %llu, "
                     "\"hadoop_spilled_bytes\": %llu, "
                     "\"hadoop_spill_files\": %llu, "
                     "\"hadoop_merge_passes\": %llu, "
                     "\"mpid_ms\": %.3f, \"mpid_retransmits\": %llu, "
                     "\"mpid_restarts\": %llu, "
                     "\"mpid_spilled_bytes\": %llu, "
                     "\"mpid_spill_files\": %llu, "
                     "\"mpid_merge_passes\": %llu, "
                     "\"hadoop_node_agg_pre_bytes\": %llu, "
                     "\"hadoop_node_agg_post_bytes\": %llu, "
                     "\"mpid_node_agg_pre_bytes\": %llu, "
                     "\"mpid_node_agg_post_bytes\": %llu}",
                     rate, hadoop.ms,
                     static_cast<unsigned long long>(s.map_reexecutions +
                                                     s.reduce_reexecutions),
                     static_cast<unsigned long long>(s.shuffle_fetch_retries),
                     static_cast<unsigned long long>(s.heartbeat_errors),
                     static_cast<unsigned long long>(s.bytes_spilled_disk),
                     static_cast<unsigned long long>(s.spill_files),
                     static_cast<unsigned long long>(s.external_merge_passes),
                     mpid.ms,
                     static_cast<unsigned long long>(t.frames_retransmitted),
                     static_cast<unsigned long long>(t.task_restarts),
                     static_cast<unsigned long long>(t.bytes_spilled_disk),
                     static_cast<unsigned long long>(t.spill_files),
                     static_cast<unsigned long long>(t.external_merge_passes),
                     static_cast<unsigned long long>(s.bytes_pre_node_agg),
                     static_cast<unsigned long long>(s.bytes_post_node_agg),
                     static_cast<unsigned long long>(t.bytes_pre_node_agg),
                     static_cast<unsigned long long>(t.bytes_post_node_agg));
  }

  std::printf("%s", table.render().c_str());
  std::printf(
      "\nEvery faulted run verified byte-identical to the fault-free\n"
      "baseline. Reading: MiniHadoop absorbs faults through re-execution\n"
      "and retry (cost grows with whole-task recovery); MPI-D's resilient\n"
      "shuffle retransmits individual frames, so transport faults cost\n"
      "frame-sized work — the trade-off the paper could only point at.\n");

  std::ofstream json("BENCH_ext_fault_degradation.json");
  json << "{\n  \"name\": \"ext_fault_degradation\",\n"
       << "  \"input_bytes\": " << kInputBytes << ",\n"
       << "  \"map_tasks\": " << kMaps << ",\n"
       << "  \"reduce_tasks\": " << kReduces << ",\n"
       << "  \"rows\": [\n"
       << rows_json.str() << "\n  ]\n}\n";
  std::printf("\nwrote BENCH_ext_fault_degradation.json\n");

  // Temp-file hygiene: every spill run must be gone, even on runs whose
  // tasks crashed and re-executed.
  const auto leftovers = std::distance(
      std::filesystem::directory_iterator(spill_dir),
      std::filesystem::directory_iterator{});
  std::filesystem::remove_all(spill_dir);
  if (leftovers != 0) {
    std::fprintf(stderr, "FATAL: %td spill files leaked in %s\n", leftovers,
                 spill_dir.c_str());
    return 1;
  }
  return 0;
}
