// Cluster-scale model of the paper's "simulation system with the MPI-D
// prototype" (Section IV.C) for the Figure 6 experiment.
//
// Layout mirrors the paper exactly: 8 nodes; rank 0 on the master node
// simulates the jobtracker; 49 mapper processes (7 per worker node) scan
// locally distributed input; 1 reducer process receives every partition
// with wildcard MPI receives.
//
// Why a model and not the real library: the functional MPI-D library in
// src/core runs for real (tests, examples, microbenches), but pushing
// 100 GB through it on one machine is not feasible; this module replays
// its execution structure on the discrete-event engine with per-byte cost
// constants calibrated from microbenchmarks of the real implementation
// (see bench/micro_mpid.cpp). Map compute, combine/realign CPU, spill
// chunking, pipelined MPI sends over the shared fabric, streaming reduce
// and output writes are all represented.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mpid/net/fabric.hpp"
#include "mpid/proto/models.hpp"
#include "mpid/sim/channel.hpp"
#include "mpid/sim/engine.hpp"
#include "mpid/sim/task.hpp"

namespace mpid::mpidsim {

struct SystemSpec {
  int nodes = 8;             // node 0 = master
  int mappers_per_node = 7;  // 49 mapper processes on 7 workers
  int reducers = 1;          // the paper's Figure 6 configuration

  /// Interconnect of the modeled cluster (default: the paper's GigE
  /// testbed). Swap in a proto::all_interconnects() profile fabric for
  /// wire-upgrade ablations.
  net::FabricSpec fabric;

  /// mpiexec launch + MPI_D_Init (no JVM, no heartbeat scheduling).
  sim::Time job_startup = sim::milliseconds(900);

  /// Per-mapper launch skew (deterministic, seeded by mapper id). Without
  /// it, identical mappers run in lockstep and alternate disk/CPU phases
  /// in unison, idling the disk — an artifact no real cluster shows.
  sim::Time startup_jitter_max = sim::milliseconds(1500);

  /// Per-chunk compute-time variance (deterministic, seeded by mapper and
  /// chunk): real map tasks never process byte-for-byte uniformly, and
  /// without this the shared disk phase-locks the mappers ("herding").
  double chunk_jitter_frac = 0.10;

  /// Per-node disk rate, shared by that node's mapper processes.
  double disk_bytes_per_second = 90.0e6;

  /// C++ map function rate (tokenize + hash-table combine), calibrated
  /// from the real MPI-D WordCount microbenchmark.
  double map_cpu_bytes_per_second = 25.0e6;
  /// Data-realignment rate over *intermediate* bytes (serializing the
  /// hash table into contiguous partition frames).
  double realign_bytes_per_second = 400.0e6;
  /// Reducer-side processing is two-regime: reverse realignment + reduce
  /// over in-memory partitions is fast, but once the received volume
  /// exceeds the memory budget the prototype reducer spills and merges
  /// through its disk (the scalability limit the paper lists as future
  /// work — "optimize the MPI-D library ... especially improving
  /// scalability").
  double reduce_memory_budget_bytes = 1.5e9;
  double reduce_in_memory_bytes_per_second = 60.0e6;
  double reduce_spill_bytes_per_second = 27.0e6;

  /// Model the two-tier spill store (mpid::store, DESIGN.md §13) instead
  /// of the folded reduce_spill_bytes_per_second constant: over-budget
  /// bytes are written as budget-sized sorted runs through the reducer
  /// node's *disk* (sharing it with that node's mappers and the output
  /// write), runs beyond spill_merge_fanin cost explicit read+rewrite
  /// compaction passes, and the final stream re-reads every surviving run
  /// — so spill cost scales with the disk rate and the merge cascade
  /// depth, not a single calibrated rate.
  bool model_spill_store = false;
  /// Fan-in of the external merge (ShuffleOptions::spill_merge_fanin).
  int spill_merge_fanin = 16;
  /// CPU rate of the external merge itself (loser tree + group copies),
  /// calibrated from bench/micro_spill; disk time is charged separately.
  double spill_merge_bytes_per_second = 300.0e6;

  /// Mapper spill granularity: input consumed between spills; each spill's
  /// combined output is sent as pipelined MPI messages.
  std::uint64_t spill_input_bytes = 16 * 1024 * 1024;

  /// Worker threads per mapper process — the hybrid process+threads model
  /// (core::Config::map_threads). The map function and the realignment
  /// are the parallelized stages, so their CPU time divides by
  /// map_thread_speedup(); the codec stage stays serial (the real
  /// library compresses at the serialized sequencer drain), and disk and
  /// fabric are unaffected.
  int map_threads = 1;
  /// Marginal efficiency of each extra worker thread (work-stealing
  /// imbalance, shared-cache pressure, the serialized frame hand-off).
  /// Calibrate against bench/micro_threads on a multi-core host.
  double thread_efficiency = 0.85;

  double map_thread_speedup() const noexcept {
    return 1.0 + (map_threads - 1) * thread_efficiency;
  }

  /// Hierarchical node-local aggregation (DESIGN.md §14, the
  /// core::Config::node_aggregation knob): each worker node's co-located
  /// mappers route their spills through an in-node combine tree before
  /// anything touches the fabric, so the wire carries the merged stream
  /// (pre-aggregation bytes / MpidJobSpec::node_agg_ratio) at the cost
  /// of intra-node merge CPU over the full pre-aggregation volume.
  bool node_aggregation = false;
  /// CPU rate of the in-node merge (frame decode + combine table +
  /// re-encode), calibrated from ShuffleCounters::node_agg_merge_ns in
  /// bench/micro_mpid.
  double node_agg_merge_bytes_per_second = 250.0e6;

  /// Codec throughput of the real library's shuffle compression
  /// (core::Config::shuffle_compression), calibrated from
  /// bench/micro_codec: mappers encode each spill before MPI_D_Send,
  /// the reducer decodes before the reverse realignment. Only charged
  /// when the job sets compress_shuffle.
  double compress_bytes_per_second = 400.0e6;
  double decompress_bytes_per_second = 900.0e6;

  /// MPI_D_Send returns immediately and the transfer overlaps the next
  /// chunk's scan (the library's buffered-send design). Setting this to
  /// false makes every send synchronous — the ablation for the paper's
  /// "MPI_Isend and MPI_Irecv adoption to achieve much more overlapping"
  /// future-work point.
  bool overlap_sends = true;

  /// Maximum in-flight spill transfers per mapper when overlapping
  /// (bounded by the library's finite send buffers; unbounded overlap
  /// would just queue everything on the fabric).
  int send_window = 4;

  int total_mappers() const noexcept {
    return (nodes - 1) * mappers_per_node;
  }
};

struct MpidJobSpec {
  std::uint64_t input_bytes = 0;
  /// Intermediate bytes per input byte after the map-side combiner.
  double map_output_ratio = 0.30;
  /// Reducer output bytes per reduce-input byte.
  double reduce_output_ratio = 0.3;

  /// Model of core::Config::shuffle_compression: spills are codec-framed
  /// before the send, so the fabric carries raw / shuffle_compression_ratio
  /// bytes per spill while combine/realign/reduce still process raw bytes.
  /// The ratio is a data property — measure it with the real codec on
  /// representative frames (bench/codec_sample.hpp). Default off.
  bool compress_shuffle = false;
  double shuffle_compression_ratio = 3.0;

  /// Cross-mapper duplicate-key factor the node combine tree removes
  /// (only read when SystemSpec::node_aggregation is set):
  /// post-aggregation bytes = pre-aggregation bytes / node_agg_ratio.
  /// 0 (the default) means "perfectly combinable keys" — the ratio is
  /// the node's mapper count, the WordCount-style upper bound; measure
  /// real jobs with bytes_pre/post_node_agg and set the quotient here.
  double node_agg_ratio = 0.0;

  // --- chain-round knobs (set by MpidSystem::run_chain) ---

  /// Resident round of a chain (mapred::JobChain): the map input is the
  /// previous round's reducer partitions, already aligned in this
  /// process's memory — mappers skip the local-disk input scan.
  bool map_input_resident = false;
  /// Resident world: MPI_D processes stay up between rounds
  /// (Config::resident_rounds), so the round pays no mpiexec/MPI_D_Init
  /// startup.
  bool world_resident = false;
  /// > 1 models the iterative-Hadoop ablation's inter-round HDFS
  /// writeback: each reducer's output is pushed through a replication
  /// pipeline — (replicas - 1) fabric hops, a disk write per replica —
  /// before the next round may start. 0/1 writes only the local copy.
  int hdfs_writeback_replicas = 0;
};

/// Iterative (chained) job for the Figure-6-style graph experiments:
/// `rounds` MapReduce rounds over a conserved state volume. Round 1
/// ingests `round.input_bytes` from the distributed input; rounds >= 2
/// map over the previous round's reducer output. With `resident` set the
/// chain models mapred::JobChain — the world stays up and the state stays
/// in the reducer partitions (no disk scan, no writeback); without it,
/// the chain models what iterative Hadoop jobs actually do between
/// rounds: replicate every part file through HDFS, tear the job down,
/// pay startup again and re-ingest the state from disk.
struct MpidChainSpec {
  MpidJobSpec round;  // round-1 shape; input_bytes = the external input
  int rounds = 5;
  /// Rounds >= 2 dataflow shape: state -> intermediate -> state. The
  /// defaults conserve the state volume (label-propagation-like
  /// workloads); round 1's output is round.input_bytes *
  /// round.map_output_ratio * round.reduce_output_ratio.
  double state_map_output_ratio = 1.0;
  double state_reduce_output_ratio = 1.0;
  bool resident = true;
  /// dfs.replication of the ablation's inter-round writeback.
  int hdfs_replicas = 3;
};

struct MpidJobResult {
  sim::Time makespan;
  sim::Time map_phase_end;      // last mapper finished scanning + sending
  sim::Time reduce_end;         // reducer drained and wrote output
  double intermediate_bytes = 0;
  /// Two-tier store accounting (zero unless model_spill_store and the
  /// reduce volume exceeded the budget): total disk-write volume including
  /// compaction rewrites, and how many fan-in passes ran — the model's
  /// bytes_spilled_disk / external_merge_passes.
  double spilled_bytes = 0;
  int external_merge_passes = 0;
};

struct MpidChainResult {
  sim::Time makespan;  // first round's spawn to last round's drain
  std::vector<MpidJobResult> rounds;
  /// Ablation accounting (zero on a resident chain): state bytes
  /// re-scanned from disk in rounds >= 2, and part-file bytes pushed
  /// through the inter-round replication pipeline (all copies).
  double reingest_bytes = 0;
  double writeback_bytes = 0;
};

class MpidSystem {
 public:
  MpidSystem(sim::Engine& engine, SystemSpec spec);
  MpidSystem(const MpidSystem&) = delete;
  MpidSystem& operator=(const MpidSystem&) = delete;

  MpidJobResult run(const MpidJobSpec& job);

  /// Runs `chain.rounds` rounds back-to-back on this system (see
  /// MpidChainSpec for the resident / ablation semantics).
  MpidChainResult run_chain(const MpidChainSpec& chain);

  const SystemSpec& spec() const noexcept { return spec_; }

 private:
  struct Run;

  sim::Task<> mapper(Run& run, int node, int index_on_node);
  sim::Task<> reducer(Run& run, int reducer_index);

  sim::Engine& engine_;
  SystemSpec spec_;
  net::Fabric fabric_;
  proto::MpiModel mpi_;
  std::vector<std::unique_ptr<net::Fabric>> disks_;
};

}  // namespace mpid::mpidsim
