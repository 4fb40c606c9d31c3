// Configuration and vocabulary types of the MPI-D library — the paper's
// contribution (Table II and Section IV.A).
//
// An MPI-D world mirrors the paper's simulation-system layout:
//   rank 0                     — master (the jobtracker analog)
//   ranks 1 .. M               — mappers
//   ranks M+1 .. M+R           — reducers
//
// The dataflow knobs (spill/partition/combine/sort/compression) live in
// shuffle::ShuffleOptions — the transport-agnostic pipeline shared with
// MiniHadoop — which Config embeds by inheritance. Only transport policy
// (frame pooling, resilience) is declared here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"

namespace mpid::common {
class FramePool;
}

namespace mpid::fault {
class FaultInjector;
}

namespace mpid::core {

enum class Role { kMaster, kMapper, kReducer };

/// Shared-pipeline vocabulary, re-exported so MPI-D callers keep spelling
/// core::ShuffleCompression / core::Combiner / core::Partitioner.
using ShuffleCompression = shuffle::ShuffleCompression;
using Combiner = shuffle::Combiner;
using Partitioner = shuffle::PartitionFn;

/// MPI-D job configuration: the shared shuffle knobs (see
/// shuffle::ShuffleOptions for spill_threshold_bytes,
/// partition_frame_bytes, inline_combine_threshold, sort_values,
/// sort_keys, shuffle_compression and the compress_* policy) plus MPI-D's
/// transport policy.
///
/// Node aggregation (ShuffleOptions::node_aggregation / ranks_per_node):
/// mapper m is modeled on node m / ranks_per_node and the lowest
/// co-located mapper index is the node's aggregation leader. Every
/// member stages its realigned frames locally and forwards them to the
/// leader at finalize (a modeled shared-memory transfer on a reliable
/// tag); the leader merges the node's streams through a
/// shuffle::NodeAggregator and ships ONE frame stream per reducer
/// partition. Composes with resilient_shuffle (the
/// leader's retained lanes hold the aggregated frames, so NACK/REPULL
/// re-serves them) and map_threads (lanes stage raw; the merged stream
/// is codec-framed once, at the leader).
struct Config : shuffle::ShuffleOptions {
  /// Number of mapper ranks (>= 1).
  int mappers = 1;
  /// Number of reducer ranks (>= 1).
  int reducers = 1;

  /// Optional local combiner; empty function disables combining.
  Combiner combiner;

  /// Optional partition selector; empty function means hash-mod.
  Partitioner partitioner;

  /// Frame buffer recycler shared by the ranks of a job; null selects the
  /// process-wide FramePool::process_pool() (in-process worlds run every
  /// rank as a thread, so reducers recycle buffers straight to mappers).
  std::shared_ptr<common::FramePool> frame_pool;

  /// Opt-in resilient shuffle (the fault-tolerance the paper leaves as an
  /// open issue). Both modes share one data channel (DESIGN.md §6): every
  /// frame carries an (incarnation, sequence, checksum) trailer, every
  /// lane closes with a SEAL the reducer ACKs, and a reducer delivers a
  /// mapper's lane once it is sealed and complete. This flag decides only
  /// three things: mappers retain a copy of every sent frame until the
  /// round's barrier and serve NACK/REPULL retransmissions (a NACK
  /// reaching a mapper without retention throws); the fault injector's
  /// transport faults are armed; and restart_mapper()/restart_reducer()
  /// are allowed. The cost is the retention copy.
  bool resilient_shuffle = false;

  /// Deterministic fault injector driving transport faults and task
  /// crashes (see mpid::fault). Null (the default) means no injection;
  /// transport faults are scoped to the data channel and only armed when
  /// resilient_shuffle is on (the plain shuffle has no recovery).
  std::shared_ptr<fault::FaultInjector> fault_injector;

  /// Total world size this configuration requires (master + mappers +
  /// reducers).
  int world_size() const noexcept { return 1 + mappers + reducers; }
};

/// Per-rank counters, aggregated at the master by MPI_D_Finalize. The
/// dataflow block (pairs_after_combine, spills, combine/spill wall time,
/// compression bytes) is the shared shuffle::ShuffleCounters; the fields
/// declared here are MPI-D transport and recovery accounting.
struct Stats : shuffle::ShuffleCounters {
  std::uint64_t pairs_sent = 0;      // MPI_D_Send invocations
  std::uint64_t frames_sent = 0;     // partition frames transmitted
  std::uint64_t bytes_sent = 0;      // payload bytes transmitted
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;  // payload bytes received
  /// Pairs handed to the reduce side: by MPI_D_Recv, or as the grouped
  /// values a mapred reduce (JobRunner, JobChain) is called with.
  std::uint64_t pairs_received = 0;
  /// Mapper stall: wall time spent inside the transport while flushing
  /// partition frames (send, window wait, buffer turnaround). This is the
  /// time MPI_D_Send steals from map computation; the pipelined shuffle
  /// exists to drive it toward zero.
  std::uint64_t flush_wait_ns = 0;

  // --- recovery counters (resilient shuffle; zero on clean runs) ---
  std::uint64_t frames_retransmitted = 0;   // frames re-sent after NACK/REPULL
  std::uint64_t retransmit_requests = 0;    // NACK/REPULL messages serviced
  std::uint64_t corrupt_frames_dropped = 0; // checksum failures detected
  std::uint64_t duplicate_frames_dropped = 0;  // seen-seq / stale frames
  std::uint64_t task_restarts = 0;          // mapper/reducer re-executions
  std::uint64_t recovery_wall_ns = 0;       // wall time inside recovery paths

  Stats& operator+=(const Stats& rhs) noexcept {
    merge(rhs);  // shared dataflow counters (table_bytes_peak as a max)
    pairs_sent += rhs.pairs_sent;
    frames_sent += rhs.frames_sent;
    bytes_sent += rhs.bytes_sent;
    frames_received += rhs.frames_received;
    bytes_received += rhs.bytes_received;
    pairs_received += rhs.pairs_received;
    flush_wait_ns += rhs.flush_wait_ns;
    frames_retransmitted += rhs.frames_retransmitted;
    retransmit_requests += rhs.retransmit_requests;
    corrupt_frames_dropped += rhs.corrupt_frames_dropped;
    duplicate_frames_dropped += rhs.duplicate_frames_dropped;
    task_restarts += rhs.task_restarts;
    recovery_wall_ns += rhs.recovery_wall_ns;
    return *this;
  }
};

/// The master's aggregated view of a completed MPI-D job.
struct JobReport {
  Stats totals;
  int mappers_completed = 0;
  int reducers_completed = 0;
  /// One aggregated Stats block per round barrier, in round order
  /// (DESIGN.md §16). A one-shot job has exactly one entry; a chained
  /// job (Config::resident_rounds > 1) gains one per next_round() plus
  /// the final finalize(). totals is the fold of all entries.
  std::vector<Stats> round_totals;
};

}  // namespace mpid::core
