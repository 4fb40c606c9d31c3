// MPI-D: the paper's minimal key-value extension to MPI.
//
// The paper adds one pair of calls to the MPI standard (Table II):
//
//     void MPI_D_Send(S_KEY_TYPE key,  S_VALUE_TYPE value);
//     void MPI_D_Recv(R_KEY_TYPE key,  R_VALUE_TYPE value);
//
// plus MPI_D_Init / MPI_D_Finalize. This class is that library: the
// constructor is MPI_D_Init, send() is MPI_D_Send, recv() is MPI_D_Recv
// and finalize() is MPI_D_Finalize. Everything between send() and recv()
// — buffering, local combination, hash-mod partition selection, data
// realignment into contiguous frames, wildcard-source reception and
// reverse realignment — happens inside the library, invisible to the
// application, exactly as Section IV.A describes.
//
// Implementation notes mirroring the paper:
//  * MPI_D_Send buffers key-value pairs in a hash table and returns
//    immediately; the combiner gathers pairs of the same key into a
//    (key, value-list) entry.
//  * When the buffer exceeds a threshold, entries are spilled through a
//    hash-mod partition selector (one partition per reducer, like Hadoop's
//    HashPartitioner) and realigned: reformatted from the discrete hash
//    table into address-sequential, bounded-size partition frames.
//  * Full frames are sent with plain MPI point-to-point sends; the
//    destination rank is derived from the partition number automatically.
//  * Reducers receive frames with wildcard-source MPI receives, reverse-
//    realign them into key-value pairs, and hand them to MPI_D_Recv in
//    streaming fashion, one mapper's lane at a time: each lane closes
//    with a SEAL the reducer ACKs (or NACKs, under the resilient
//    shuffle, to have gaps re-sent).
//
// Typical mapper:                      Typical reducer:
//   MpiD d(comm, cfg);                   MpiD d(comm, cfg);
//   for (...) d.send(k, v);              std::string k, v;
//   d.finalize();                        while (d.recv(k, v)) consume(k, v);
//                                        d.finalize();
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpid/common/framepool.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/core/config.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minimpi/comm.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"

namespace mpid::core {

class MpiD {
 public:
  /// MPI_D_Init. `comm` must outlive this object; its size must equal
  /// config.world_size(). Collective: every rank constructs with the same
  /// configuration.
  MpiD(minimpi::Comm& comm, Config config);

  MpiD(const MpiD&) = delete;
  MpiD& operator=(const MpiD&) = delete;

  Role role() const noexcept { return role_; }
  int mapper_index() const;   // 0-based among mappers; throws if not mapper
  int reducer_index() const;  // 0-based among reducers; throws if not reducer

  /// MPI_D_Send — mapper only. Buffers (key, value); returns immediately
  /// unless a spill and frame transmissions are triggered.
  void send(std::string_view key, std::string_view value);

  /// Thread-parallel MPI_D_Send batch — mapper only, the hybrid
  /// process+threads path (Config::map_threads > 1). Runs `chunk_fn` over
  /// [0, chunk_count) input chunks on this rank's worker pool: each chunk
  /// emits its pairs through the per-worker buffer/combine/spill lanes of
  /// a shuffle::ParallelMapper whose sink is this rank's transport, and
  /// frames ship in deterministic chunk order — the wire bytes are
  /// identical for every thread count. Returns the pairs emitted (also
  /// accounted into stats().pairs_sent). Must not be interleaved with
  /// send() mid-batch; finalize() as usual afterwards.
  std::uint64_t run_map_parallel(std::size_t chunk_count,
                                 const shuffle::ParallelMapper::ChunkFn& chunk_fn);

  /// MPI_D_Recv — reducer only. Produces the next pair in streaming order;
  /// returns false once every mapper's lane was sealed and delivered and
  /// no buffered pairs remain.
  bool recv(std::string& key, std::string& value);

  /// Raw-frame variant: one realigned partition frame as a mapper built
  /// it (codec-decoded); false once every lane was delivered and drained.
  /// Feed the frames to SortedFrameMerger (merge.hpp) for Hadoop-style
  /// globally key-ordered reduction (requires Config::sort_keys on the
  /// mappers).
  /// Must not be mixed with recv() on the same instance.
  bool recv_raw_frame(std::vector<std::byte>& frame);

  /// Folds a counter block accumulated outside this rank's pipeline —
  /// e.g. a reducer's SegmentMerger spill counters — into stats(). Call
  /// from this rank's thread only (before finalize()).
  void fold_counters(const shuffle::ShuffleCounters& counters) {
    stats_.merge(counters);
  }
  /// As above, for a block that carries transport counters too (e.g. a
  /// merge-path reducer's pairs_received).
  void fold_counters(const Stats& counters) { stats_ += counters; }

  /// The resolved two-tier store arbiter — Config::memory_budget if the
  /// caller shared one, a per-rank arbiter when memory_budget_bytes > 0,
  /// null otherwise. Callers arm consumer stages with it (e.g.
  /// SegmentMerger::enable_spill on the reduce side).
  store::MemoryBudget* memory_budget() const noexcept {
    return config_.memory_budget.get();
  }

  /// MPI_D_Finalize — collective. Mappers flush buffers and seal their
  /// lanes; reducers must have drained recv() first. All ranks then
  /// synchronize through the master, which aggregates stats.
  void finalize();

  /// Round barrier of the iterative chain lifecycle (DESIGN.md §16) —
  /// collective, Config::resident_rounds > 1 only. Runs the exact
  /// finalize() ship/seal/stats handshake (mappers flush and seal their
  /// lanes, reducers must have drained recv(), the master folds every
  /// rank's per-round Stats into report().round_totals) but instead of
  /// tearing the world down every rank re-arms for another MapReduce
  /// round: every rank moves to a fresh data context (so a round-N
  /// retransmit still in flight can never match a round-N+1 receive),
  /// mapper lanes restart at sequence 0 (same incarnation: the context,
  /// not the stamp, tells rounds apart), reducer lane/delivery state
  /// clears, and per-rank stats() reset to zero. send()/recv() then work
  /// again. Throws if the barrier would exceed resident_rounds or the
  /// instance is finalized.
  void next_round();

  /// Completed round barriers (next_round() calls + the final
  /// finalize()). 0 while the first round is still running.
  int rounds_completed() const noexcept { return rounds_completed_; }

  /// Master-side aggregated report; valid after finalize() on rank 0.
  const JobReport& report() const;

  /// This rank's local counters (available on any rank at any time).
  const Stats& stats() const noexcept { return stats_; }

  /// The reducer rank owning `key` under the configured partitioner
  /// (hash-mod by default).
  minimpi::Rank reducer_rank_for(std::string_view key) const;

  /// The partition index for `key` in [0, reducers).
  std::uint32_t partition_for(std::string_view key) const;

  /// Restarts a crashed mapper attempt (resilient shuffle only): discards
  /// all buffered, retained and in-flight output and bumps the mapper's
  /// incarnation so reducers discard frames of the dead attempt; the
  /// caller then re-runs the map function from the start of its split.
  void restart_mapper();

  /// Restarts a crashed reducer attempt (resilient shuffle only): discards
  /// everything received so far and asks every mapper to re-send its
  /// retained lane (REPULL); the next recv() re-collects the shuffle.
  void restart_reducer();

  /// This rank's attempt number (0 until the first restart).
  int attempt() const noexcept { return attempt_; }

 private:
  /// The SpillEncoder's transport sink: ships one realigned (and possibly
  /// codec-framed) partition frame over the data communicator, accounting
  /// frames_sent, bytes_sent and flush_wait_ns.
  void transport_send(std::size_t partition, std::vector<std::byte> frame);
  /// Appends lane `lane_idx`'s next trailer and, under the resilient
  /// shuffle, retains a copy in the lane. Counts the frame and its
  /// payload bytes as sent.
  void stamp_frame(std::vector<std::byte>& frame, std::size_t lane_idx);
  /// Moves one frame into the partition's bounded window of owned
  /// nonblocking sends, first waiting out the oldest send when the window
  /// is full (kMaxInflightFrames in mpid.cpp).
  void isend_windowed(std::size_t partition, std::vector<std::byte> frame);

  // --- the data channel (DESIGN.md §6/§7) ---
  /// Retention, NACK/REPULL service, armed faults and restart_*.
  bool resilient() const noexcept { return config_.resilient_shuffle; }
  fault::FaultInjector* injector() const noexcept {
    return config_.fault_injector.get();
  }
  /// SEAL for one lane: kSealTag carrying {incarnation, total frames}.
  void send_seal(int reducer);
  /// Services one ACK/NACK/REPULL at the mapper. `acked`/`remaining`
  /// track which lanes still owe an ACK. A NACK or REPULL reaching a
  /// mapper that retains nothing throws, naming the rank and lane.
  void handle_lane_control(const minimpi::Status& st,
                           std::span<const std::byte> payload,
                           std::vector<char>& acked, int& remaining);
  /// SEAL every lane, serve lane control until each is ACKed, then the
  /// done handshake (still serving re-pulls until the master's ack).
  void close_lanes();
  /// Hands every lane's retained frames back to the frame pool.
  void release_retained();
  /// Reducer: receives one data-channel message — a frame or a SEAL —
  /// into its mapper's lane, dropping corrupt and duplicate frames,
  /// NACKing gaps and delivering the lane once it is sealed and complete.
  /// Throws fault::TaskCrash when an injected crash tick fires.
  void receive_one();
  /// Moves a sealed, complete lane's payloads into collected_ in
  /// sequence order (codec-decoded) and ACKs it.
  void deliver_lane(int mapper);
  /// Mapper-side lane, buffer and encoder reset (restart and next round).
  void reset_send_side();
  /// Reducer-side lane and delivery reset (restart and next round).
  void reset_receive_side();

  // --- shuffle compression (Config::shuffle_compression) ---
  bool compression_on() const noexcept {
    return config_.shuffle_compression != ShuffleCompression::kOff;
  }

  // --- node-local aggregation (Config::node_aggregation) ---
  bool node_agg() const noexcept { return config_.node_aggregation; }
  /// Mappers per modeled node (>= 1; validated by ShuffleOptions).
  int ranks_per_node() const noexcept {
    return static_cast<int>(config_.ranks_per_node);
  }
  /// Number of modeled nodes = number of aggregated streams a reducer
  /// sees. Mapper m lives on node m / ranks_per_node; the lowest
  /// co-located index is the node's aggregation leader.
  int node_count() const noexcept {
    return (config_.mappers + ranks_per_node() - 1) / ranks_per_node();
  }
  /// True when mapper index `m` ships fabric traffic: every mapper
  /// without aggregation, only node leaders with it.
  bool is_agg_sender(int m) const noexcept {
    return !node_agg() || m % ranks_per_node() == 0;
  }
  /// Lanes a reducer must see delivered before it is drained: one per
  /// mapper normally, one per node leader under aggregation.
  int lanes_expected() const noexcept {
    return node_agg() ? node_count() : config_.mappers;
  }
  /// Intra-node stage exchange + the leader's combine tree; runs inside
  /// finalize() before any fabric traffic. Non-leaders forward their
  /// staged frames to the leader; the leader merges every member stream
  /// (its own first) through a shuffle::NodeAggregator whose sink is
  /// transport_send(), so the resilient path retains — and retransmits —
  /// the aggregated frames.
  void node_agg_finalize();

  /// The mapper's lazily-created worker pool, sized by
  /// Config::map_threads; behind run_map_parallel().
  shuffle::WorkerPool& worker_pool();

  /// The one reception path behind every recv_* flavor: the next decoded
  /// frame of the delivered lanes, receiving until one is. False once
  /// every lane was delivered and drained.
  bool next_frame(std::vector<std::byte>& frame);
  /// Pulls the next frame and stages it as the delivery frame.
  /// Returns false at end of stream.
  bool fetch_delivery_frame();
  /// Advances current_view_ to the next group of the delivery frame,
  /// fetching further frames as needed; false at global end-of-stream.
  bool next_group_view();
  /// True while a group or frame is still being drained (guards finalize
  /// and the recv_raw_frame mixing check).
  bool delivery_pending() const noexcept;
  /// The shared body of finalize() and next_round(): flush/seal on
  /// the mappers, drained-check on the reducers, per-round stats fold on
  /// the master, done/ack handshake everywhere. `final` decides whether
  /// the master counts task completions (once, on the last round).
  void round_barrier(bool final);
  /// Re-arms this rank for the next chain round after a non-final
  /// barrier: a fresh data context and per-round stats, reset spill/lane
  /// state (mapper), cleared lane/delivery state (reducer).
  void rearm_for_next_round();
  /// Waits out the in-flight send window of one partition.
  void drain_inflight(std::size_t partition);
  void ensure_role(Role expected, const char* what) const;

  minimpi::Comm& comm_;    // user communicator (untouched)
  minimpi::Comm data_comm_;  // dup'd: all MPI-D traffic is isolated
  Config config_;
  Role role_;
  Stats stats_;
  std::shared_ptr<common::FramePool> pool_;

  // Mapper state: the shared shuffle pipeline (src/shuffle), wired to
  // this rank's transport through transport_send(). The buffer holds the
  // combine stage; the encoder owns partitioning, spill-time combining
  // and frame flush policy; the compressor is the optional codec stage
  // (self-describing framing: every wire frame decodes, skips use the
  // stored escape).
  std::optional<shuffle::CombineRunner> combine_runner_;
  std::optional<shuffle::MapOutputBuffer> map_buffer_;
  std::optional<shuffle::FrameCompressor> compressor_;
  std::optional<shuffle::SpillEncoder> encoder_;
  /// The mapper's worker pool (worker_pool()), created on first use so
  /// single-threaded configurations never spawn anything.
  std::unique_ptr<shuffle::WorkerPool> worker_pool_;
  /// Outstanding nonblocking frame sends, one bounded window per
  /// destination reducer (kMaxInflightFrames in mpid.cpp).
  std::vector<std::deque<minimpi::Request>> inflight_;

  // Mapper state: one lane per reducer. Under the resilient shuffle sent
  // frames are retained (with their trailers) until the master's ack, so
  // a restarted reducer can re-pull the whole lane at any point of the
  // round.
  struct SendLane {
    std::uint32_t next_seq = 0;
    std::vector<std::vector<std::byte>> retained;
  };
  std::vector<SendLane> lanes_;
  std::uint32_t incarnation_ = 0;  // mapper attempt stamped into trailers
  int attempt_ = 0;

  /// Node-aggregation staging (Config::node_aggregation): every mapper —
  /// leader or not — parks its realigned frames here instead of sending,
  /// and nothing leaves the rank until finalize(). That makes the intra-
  /// node exchange crash-free by construction: an injected map crash can
  /// only fire during the map loop, so restart_mapper() just discards the
  /// stage and no cross-rank incarnation protocol is needed.
  std::vector<std::vector<std::byte>> node_staged_;

  // Reducer state: one lane per mapper. Frames stage here until their
  // lane is sealed and complete, then move to collected_ at once.
  struct RecvLane {
    std::uint32_t incarnation = 0;
    std::map<std::uint32_t, std::vector<std::byte>> frames;  // seq -> payload
    std::optional<std::uint32_t> sealed_total;
    bool delivered = false;
  };
  std::vector<RecvLane> recv_lanes_;
  int lanes_delivered_ = 0;
  /// Decoded frames of the delivered lanes, lane by lane in sequence
  /// order; next_frame drains this.
  std::deque<std::vector<std::byte>> collected_;

  std::optional<std::uint64_t> crash_tick_;  // injected reducer crash plan
  std::uint64_t progress_ticks_ = 0;

  // Reducer state: one decoded frame at a time is reverse-realigned in
  // place. recv() materializes from views into delivery_frame_, so a
  // pair costs one copy (wire -> caller string).
  // The reader and view alias delivery_frame_, which is released to the
  // pool only once fully drained.
  /// Consumer side of the codec stage (engaged when compression is on):
  /// decodes wire frames into pool-recycled buffers.
  std::optional<shuffle::FrameDecoder> decoder_;
  std::vector<std::byte> delivery_frame_;
  std::optional<common::KvListReader> delivery_reader_;
  std::optional<common::KvListView> current_view_;  // group being drained
  std::size_t current_value_index_ = 0;

  // Master state.
  JobReport report_;
  bool finalized_ = false;
  int rounds_completed_ = 0;  // chain barriers passed (finalize included)
};

}  // namespace mpid::core
