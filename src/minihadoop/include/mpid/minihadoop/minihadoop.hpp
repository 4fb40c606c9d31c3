// MiniHadoop: a functional, in-process MapReduce runtime assembled from
// the same substrates Hadoop 0.20 uses — exactly the stack the paper
// benchmarks MPI-D against, made executable:
//
//   * job input / output live in MiniDfs (the HDFS analog);
//   * the control plane is Hadoop RPC: tasktrackers poll the jobtracker's
//     RpcServer with heartbeat calls and receive serialized task
//     descriptors;
//   * the shuffle is HTTP: every tasktracker runs an HttpServer with a
//     /mapOutput servlet; reduce tasks fetch their partitions with
//     HttpClient GETs, one per (map, reduce) pair;
//   * the dataflow stages — map-output buffering, combining, hash
//     partitioning, frame encoding, codec — are the shared shuffle engine
//     (mpid/shuffle), the same pipeline MPI-D runs, so the two systems'
//     shuffle payloads are byte-comparable.
//
// This is deliberately the paper's WordCount experiment shape (Figure 6)
// at in-process scale: the same job runs here and on the MPI-D JobRunner,
// and bench/ext_functional_fig6.cpp compares them in wall-clock.
//
// Fault tolerance follows Hadoop's task-attempt model: every task launch
// is a numbered attempt; a crashed attempt is reported to the jobtracker
// and the task is requeued (up to max_task_attempts); trackers that stop
// heartbeating past tracker_timeout are declared lost and their running
// tasks re-executed elsewhere; stragglers get speculative duplicate
// attempts whose first completion wins (the jobtracker commits exactly one
// attempt per task, so counters and DFS outputs never double). Faults are
// injected — deterministically — through an optional mpid::fault
// FaultInjector; without one the job runs exactly as before.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"

namespace mpid::minihadoop {

/// MiniHadoop job configuration: the shared shuffle knobs (see
/// shuffle::ShuffleOptions for spill_threshold_bytes,
/// inline_combine_threshold, sorting, shuffle_compression and the compress_* policy — the same fields
/// core::Config inherits) plus this runtime's job shape and fault policy.
struct MiniJobConfig : shuffle::ShuffleOptions {
  mapred::MapFn map;
  mapred::ReduceFn reduce;
  /// Optional map-side combiner (same signature as MPI-D's).
  shuffle::Combiner combiner;
  /// DFS path of the line-oriented input file.
  std::string input_path;
  /// Output files are written to "<output_prefix>/part-r-<i>".
  std::string output_prefix = "/out";
  int map_tasks = 4;
  int reduce_tasks = 2;

  // --- fault tolerance (all Hadoop 0.20 analogs) ---

  /// Optional deterministic fault source; null runs the job fault-free.
  std::shared_ptr<fault::FaultInjector> fault_injector;
  /// mapred.map/reduce.max.attempts: a task failing this many times fails
  /// the job.
  int max_task_attempts = 4;
  /// mapred.tasktracker.expiry.interval: a tracker silent for longer is
  /// declared lost and its running tasks are re-executed.
  std::chrono::nanoseconds tracker_timeout = std::chrono::seconds(2);
  /// mapred.map/reduce.tasks.speculative.execution: launch a duplicate
  /// attempt for a task still running past this age while a slot idles.
  bool speculative_execution = true;
  std::chrono::nanoseconds speculative_threshold =
      std::chrono::milliseconds(50);
  /// Shuffle-copier retry budget per (map, reduce) segment; backoff before
  /// retry r is fetch_backoff << r. A segment exhausting its budget fails
  /// the reduce attempt (Hadoop's "too many fetch failures").
  int max_fetch_attempts = 6;
  std::chrono::nanoseconds fetch_backoff = std::chrono::milliseconds(1);
  /// Per-read deadline on shuffle HTTP connections
  /// (mapred.shuffle.read.timeout).
  std::chrono::nanoseconds fetch_read_timeout = std::chrono::seconds(5);
};

/// Job counters. The dataflow block (pairs_after_combine, spills,
/// combine/spill wall time, shuffle_bytes_raw/wire, codec wall time) is
/// the shared shuffle::ShuffleCounters, folded in commit-gated: only the
/// attempt the jobtracker commits contributes. The fields declared here
/// are MiniHadoop transport and recovery accounting.
struct JobSummary : shuffle::ShuffleCounters {
  std::uint64_t shuffled_bytes = 0;       // HTTP bodies fetched
  std::uint64_t shuffle_requests = 0;     // GETs issued
  /// Distinct tasktrackers serving committed map output at job end (the
  /// jobtracker's map locations): node aggregation fetches one stream
  /// per (map tracker, reduce).
  std::uint64_t map_trackers = 0;
  std::uint64_t heartbeats = 0;           // RPC control-plane calls
  std::vector<std::string> output_files;  // DFS paths written

  // --- recovery counters (zero on a fault-free run) ---
  std::uint64_t map_reexecutions = 0;      // map tasks requeued after failure
  std::uint64_t reduce_reexecutions = 0;   // reduce tasks requeued
  std::uint64_t speculative_launches = 0;  // duplicate attempts issued
  std::uint64_t shuffle_fetch_retries = 0; // segment fetches retried
  std::uint64_t heartbeat_errors = 0;      // heartbeats that errored/dropped
  std::uint64_t trackers_timed_out = 0;    // trackers declared lost
  std::uint64_t recovery_wall_ns = 0;      // wall time spent recovering
};

/// Chained (iterative) job configuration: the shared MiniJobConfig knobs
/// (shuffle options, task counts, fault policy — `map`, `reduce` and
/// `combiner` must stay unset; stages carry the functions) plus the
/// chain plan, expressed in the SAME mapred::ChainStage vocabulary the
/// MPI-D JobChain runs, so one chain definition executes byte-identically
/// on both runtimes.
struct MiniChainConfig : MiniJobConfig {
  /// Round-1 map over the external input (MiniJobConfig::input_path).
  mapred::MapFn ingest;
  std::vector<mapred::ChainStage> stages;
  /// The static channel: realigned into per-partition tables once and
  /// pinned (resident mode) or rebuilt every round (ablation mode).
  mapred::KvVec static_input;
  /// true — resident mode: each round's committed reduce outputs stay in
  /// memory and become the next round's map splits directly (map task i
  /// reads reduce partition i; map_tasks == reduce_tasks from round 2).
  /// false — the Hadoop-faithful ablation: every round writes part files
  /// through the DFS and the next round re-ingests them, paying the HDFS
  /// round trip the paper's iterative workloads pay between jobs.
  bool resident = true;
};

/// Chain totals: every round's JobSummary folded together (the chain
/// counter block — ingest_bytes, resident_*, static_* — tells the
/// residency story), plus the per-round user-counter trail.
struct ChainSummary : JobSummary {
  std::vector<mapred::RoundReport> rounds;
};

class MiniCluster {
 public:
  /// `tasktrackers` worker processes (threads), each with one task slot
  /// and one embedded HTTP server.
  MiniCluster(dfs::MiniDfs& dfs, int tasktrackers);

  /// Runs one job to completion and returns its counters. The output is
  /// in the DFS under config.output_prefix.
  JobSummary run(const MiniJobConfig& config);

  /// Runs a chained job: one full MapReduce job submission per round
  /// (fresh jobtracker, trackers, HTTP shuffle — Hadoop has no resident
  /// worlds), with round N's committed reduce outputs feeding round N+1
  /// as splits. Final outputs land in "<output_prefix>/part-r-<i>" with
  /// one file per reduce partition, byte-identical across resident and
  /// ablation modes and to mapred::JobChain on the same ChainStages.
  ChainSummary run_chain(const MiniChainConfig& config);

  int tasktrackers() const noexcept { return tasktrackers_; }

 private:
  struct ChainRoundIO;
  JobSummary run_internal(const MiniJobConfig& config, const ChainRoundIO* io);

  dfs::MiniDfs& dfs_;
  int tasktrackers_;
};

}  // namespace mpid::minihadoop
