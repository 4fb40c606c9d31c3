#include "mpid/core/mpid.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "mpid/common/codec.hpp"
#include "mpid/common/hash.hpp"
#include "mpid/core/frame.hpp"
#include "mpid/shuffle/nodeagg.hpp"

namespace mpid::core {

namespace {

// Tags on the private (dup'd) communicator. Only kDataTag is ever in the
// fault injector's scope: lane control, the done handshake and the node
// forward stay reliable so recovery itself cannot be lost.
constexpr int kDataTag = 1;  // a framed partition payload (frame.hpp)
constexpr int kSealTag = 2;  // mapper -> reducer: lane closed, carrying
                             // {incarnation, total frames}
constexpr int kDoneTag = 3;  // rank -> master completion + stats
constexpr int kAckTag = 4;   // master -> rank shutdown acknowledgement
constexpr int kLaneAckTag = 5;   // reducer -> mapper: lane complete
constexpr int kLaneNackTag = 6;  // reducer -> mapper: list of missing seqs
constexpr int kRepullTag = 7;    // restarted reducer -> mapper: resend lane
// Node aggregation: mapper -> node leader staged-frame forward (modeled
// shared-memory transfer, so reliable: outside the injector's kDataTag
// scope). An empty payload is the member's end-of-stream marker (flushed
// frames are never empty).
constexpr int kNodeTag = 8;

/// Owned nonblocking frame sends outstanding per destination reducer
/// before the mapper waits on the oldest. Two would be classic double
/// buffering; four deepens the pipeline.
constexpr std::size_t kMaxInflightFrames = 4;

static_assert(std::is_trivially_copyable_v<Stats>,
              "Stats travels as a raw MPI payload");

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

}  // namespace

MpiD::MpiD(minimpi::Comm& comm, Config config)
    : comm_(comm), data_comm_(comm.dup()), config_(config) {
  if (config_.mappers < 1 || config_.reducers < 1) {
    throw std::invalid_argument("MpiD: need at least one mapper and reducer");
  }
  if (comm.size() != config_.world_size()) {
    throw std::invalid_argument(
        "MpiD: communicator size must be 1 (master) + mappers + reducers");
  }
  config_.validate();  // shared shuffle knobs (spill/frame/compression)
  pool_ = config_.frame_pool ? config_.frame_pool
                             : common::FramePool::process_pool();
  // Resolve the two-tier store's arbiter: an explicitly shared budget wins
  // (in-process worlds can cap the whole job with one arbiter); otherwise
  // a bounded memory_budget_bytes gets this rank its own.
  if (!config_.memory_budget && config_.memory_budget_bytes > 0) {
    config_.memory_budget =
        std::make_shared<store::MemoryBudget>(config_.memory_budget_bytes);
  }
  const auto rank = comm.rank();
  if (rank == 0) {
    role_ = Role::kMaster;
  } else if (rank <= config_.mappers) {
    role_ = Role::kMapper;
    inflight_.resize(static_cast<std::size_t>(config_.reducers));
    lanes_.resize(static_cast<std::size_t>(config_.reducers));
    // Assemble the shared shuffle pipeline (src/shuffle) over this rank's
    // transport: buffer -> combine -> partition -> encode -> [compress]
    // -> transport_send(). MPI-D realigns into bounded KvList frames and
    // ships each one the moment it fills.
    combine_runner_.emplace(config_.combiner, &stats_);
    // Budgeted mappers drain early under pressure instead of spilling to
    // disk: map output's slow tier IS the transport (frames ship the
    // moment the buffer realigns), so pressure just tightens the spill
    // cadence.
    map_buffer_.emplace(config_, &*combine_runner_, &stats_, memory_budget());
    if (compression_on()) {
      compressor_.emplace(config_, shuffle::WireFraming::kSelfDescribing,
                          common::FrameKind::kKvList, pool_.get(), &stats_);
    }
    shuffle::SpillEncoder::Setup setup;
    setup.layout = shuffle::Layout::kKvList;
    setup.partitions = static_cast<std::uint32_t>(config_.reducers);
    setup.partitioner = shuffle::Partitioner(
        static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
    // Under node aggregation the per-mapper frames never touch the
    // fabric: they stage raw for the node's combine tree, which decodes,
    // merges and only then codec-frames the merged stream (the leader's
    // compressor_ moves to the aggregator in node_agg_finalize()).
    setup.compressor =
        (compressor_ && !node_agg()) ? &*compressor_ : nullptr;
    setup.pool = pool_.get();
    setup.counters = &stats_;
    if (node_agg()) {
      setup.sink = [this](std::uint32_t /*partition: re-derived from the
                            keys by the aggregator's partitioner*/,
                          std::vector<std::byte> frame, bool) {
        node_staged_.push_back(std::move(frame));
      };
    } else {
      setup.sink = [this](std::uint32_t partition,
                          std::vector<std::byte> frame,
                          bool /*codec_framed: self-describing framing*/) {
        transport_send(partition, std::move(frame));
      };
    }
    encoder_.emplace(config_, std::move(setup));
  } else {
    role_ = Role::kReducer;
    if (compression_on()) {
      decoder_.emplace(config_.partition_frame_bytes, pool_.get(), &stats_);
    }
    recv_lanes_.resize(static_cast<std::size_t>(config_.mappers));
    if (resilient() && injector() != nullptr) {
      crash_tick_ = injector()->crash_tick(fault::TaskKind::kReduce,
                                           reducer_index(), attempt_);
    }
  }
  if (resilient() && config_.fault_injector) {
    // Arm transport faults on the data channel only (kDataTag). The world
    // hook is install-once (first caller wins), so every rank registering
    // the same injector is fine.
    auto inj = config_.fault_injector;
    inj->add_transport_scope(data_comm_.context(), kDataTag);
    comm.world().install_transport_hook(
        [inj](const minimpi::TransportEvent& ev) {
          const fault::MessageFault f =
              inj->on_message(ev.context, ev.src, ev.dst, ev.tag, ev.bytes);
          minimpi::TransportFault out;
          out.drop = f.drop;
          out.duplicate = f.duplicate;
          out.corrupt = f.corrupt;
          out.corrupt_offset = f.corrupt_offset;
          out.corrupt_mask = f.corrupt_mask;
          out.delay = f.delay;
          return out;
        });
  }
}

int MpiD::mapper_index() const {
  if (role_ != Role::kMapper) throw std::logic_error("MpiD: not a mapper");
  return comm_.rank() - 1;
}

int MpiD::reducer_index() const {
  if (role_ != Role::kReducer) throw std::logic_error("MpiD: not a reducer");
  return comm_.rank() - 1 - config_.mappers;
}

std::uint32_t MpiD::partition_for(std::string_view key) const {
  const auto reducers = static_cast<std::uint32_t>(config_.reducers);
  if (!config_.partitioner) return common::hash_partition(key, reducers);
  const auto p = config_.partitioner(key, reducers);
  if (p >= reducers) {
    throw std::out_of_range("MpiD: partitioner returned index >= reducers");
  }
  return p;
}

minimpi::Rank MpiD::reducer_rank_for(std::string_view key) const {
  return 1 + config_.mappers + static_cast<minimpi::Rank>(partition_for(key));
}

void MpiD::ensure_role(Role expected, const char* what) const {
  if (role_ != expected) {
    throw std::logic_error(std::string("MpiD: ") + what +
                           " called on the wrong role");
  }
  if (finalized_) {
    throw std::logic_error(std::string("MpiD: ") + what +
                           " called after finalize");
  }
}

void MpiD::send(std::string_view key, std::string_view value) {
  // One predictable branch per emit; the error path stays out of line.
  if (role_ != Role::kMapper || finalized_) [[unlikely]] {
    ensure_role(Role::kMapper, "send (MPI_D_Send)");
  }
  ++stats_.pairs_sent;
  map_buffer_->append(key, value);
  // "When the hash table buffer exceeds a particular size" — drain it
  // through the shared pipeline (partition select, spill-time combine,
  // realignment into partition frames).
  if (map_buffer_->should_spill()) encoder_->spill(*map_buffer_);
}

shuffle::WorkerPool& MpiD::worker_pool() {
  if (!worker_pool_) {
    worker_pool_ = std::make_unique<shuffle::WorkerPool>(config_.map_threads);
  }
  return *worker_pool_;
}

std::uint64_t MpiD::run_map_parallel(
    std::size_t chunk_count, const shuffle::ParallelMapper::ChunkFn& chunk_fn) {
  ensure_role(Role::kMapper, "run_map_parallel");
  shuffle::ParallelMapper::Setup setup;
  setup.layout = shuffle::Layout::kKvList;
  setup.partitions = static_cast<std::uint32_t>(config_.reducers);
  setup.partitioner = config_.partitioner;
  setup.combiner = config_.combiner;
  // Self-describing framing, like this rank's own compressor_ (which
  // stays idle here: the mapper owns its codec stage so the lanes'
  // counter commits cannot race it).
  setup.compress_framing = shuffle::WireFraming::kSelfDescribing;
  setup.compress_kind = common::FrameKind::kKvList;
  setup.counters = &stats_;
  // Sink runs under the mapper's sequencer lock: frames_sent /
  // bytes_sent / flush_wait_ns live in the Stats-derived block, disjoint
  // from the ShuffleCounters base fields the lane commits write.
  if (node_agg()) {
    setup.sink = [this](std::uint32_t, std::vector<std::byte> frame, bool) {
      node_staged_.push_back(std::move(frame));
    };
  } else {
    setup.sink = [this](std::uint32_t partition, std::vector<std::byte> frame,
                        bool /*codec_framed: self-describing framing*/) {
      transport_send(partition, std::move(frame));
    };
  }
  // Staged frames must reach the node's combine tree raw, so the lanes'
  // codec stage is disabled under aggregation (the merged stream is
  // codec-framed once, at the leader). The copy outlives the mapper.
  Config lane_config = config_;
  if (node_agg()) lane_config.shuffle_compression = ShuffleCompression::kOff;
  shuffle::ParallelMapper mapper(lane_config, std::move(setup));
  const std::uint64_t pairs = mapper.run(worker_pool(), chunk_count, chunk_fn);
  stats_.pairs_sent += pairs;
  return pairs;
}

void MpiD::drain_inflight(std::size_t partition) {
  auto& window = inflight_[partition];
  while (!window.empty()) {
    window.front().wait();
    window.pop_front();
  }
}

void MpiD::transport_send(std::size_t partition, std::vector<std::byte> frame) {
  const std::uint64_t start = now_ns();
  stamp_frame(frame, partition);
  isend_windowed(partition, std::move(frame));
  stats_.flush_wait_ns += now_ns() - start;
}

void MpiD::stamp_frame(std::vector<std::byte>& frame, std::size_t lane_idx) {
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();  // payload bytes, as bytes_received
  // The payload is already codec-framed when compression is on: the
  // checksum covers the compressed bytes, so a retransmit re-ships the
  // identical buffer.
  auto& lane = lanes_[lane_idx];
  append_frame_trailer(frame, incarnation_, lane.next_seq++, compression_on());
  // Retain a copy until the master's ack: a restarted reducer can re-pull
  // the whole lane, a NACK any single frame.
  if (resilient()) {
    auto copy = pool_->acquire(frame.size());
    copy.assign(frame.begin(), frame.end());
    lane.retained.push_back(std::move(copy));
  }
}

void MpiD::isend_windowed(std::size_t partition, std::vector<std::byte> frame) {
  // The destination is derived from the partition number automatically —
  // the mapper never names a rank (Section III, third challenge).
  const minimpi::Rank dst =
      1 + config_.mappers + static_cast<minimpi::Rank>(partition);
  auto& window = inflight_[partition];
  while (window.size() >= kMaxInflightFrames) {
    window.front().wait();
    window.pop_front();
  }
  window.push_back(
      data_comm_.isend_bytes_owned(dst, kDataTag, std::move(frame)));
}

bool MpiD::next_frame(std::vector<std::byte>& frame) {
  while (collected_.empty()) {
    // Every lane delivered: nothing else is owed this round, so stop
    // receiving (the finalize ack must not be stolen).
    if (lanes_delivered_ == lanes_expected()) return false;
    receive_one();
  }
  // frames_received/bytes_received were counted at reception.
  frame = std::move(collected_.front());
  collected_.pop_front();
  return true;
}

bool MpiD::fetch_delivery_frame() {
  std::vector<std::byte> frame;
  if (!next_frame(frame)) return false;
  delivery_frame_ = std::move(frame);
  // The reader is (re)constructed only after the move above, so its span
  // aliases the frame's final storage.
  delivery_reader_.emplace(delivery_frame_);
  return true;
}

bool MpiD::next_group_view() {
  current_view_.reset();
  current_value_index_ = 0;
  for (;;) {
    if (delivery_reader_) {
      // Reverse realignment, one group at a time: the view aliases the
      // delivery frame, no materialization.
      if (auto group = delivery_reader_->next()) {
        current_view_ = std::move(*group);
        return true;
      }
      // Frame fully drained: its allocation goes back to the pool for the
      // next spill (in-process worlds recycle it straight to a mapper).
      delivery_reader_.reset();
      pool_->release(std::move(delivery_frame_));
      delivery_frame_ = std::vector<std::byte>{};
    }
    if (!fetch_delivery_frame()) return false;
  }
}

bool MpiD::delivery_pending() const noexcept {
  if (current_view_ && current_value_index_ < current_view_->values.size()) {
    return true;
  }
  return delivery_reader_ && !delivery_reader_->at_end();
}

bool MpiD::recv(std::string& key, std::string& value) {
  ensure_role(Role::kReducer, "recv (MPI_D_Recv)");
  for (;;) {
    if (current_view_ && current_value_index_ < current_view_->values.size()) {
      key.assign(current_view_->key);
      value.assign(current_view_->values[current_value_index_++]);
      ++stats_.pairs_received;
      return true;
    }
    if (!next_group_view()) return false;
  }
}

bool MpiD::recv_raw_frame(std::vector<std::byte>& frame) {
  ensure_role(Role::kReducer, "recv_raw_frame");
  if (current_view_ || delivery_reader_) {
    throw std::logic_error(
        "MpiD: recv_raw_frame cannot be mixed with recv()");
  }
  return next_frame(frame);
}

void MpiD::finalize() {
  if (finalized_) throw std::logic_error("MpiD: finalize called twice");
  round_barrier(/*final=*/true);
  finalized_ = true;
}

void MpiD::next_round() {
  if (finalized_) {
    throw std::logic_error("MpiD: next_round called after finalize");
  }
  if (rounds_completed_ + 2 >
      static_cast<int>(config_.resident_rounds)) {
    throw std::logic_error(
        "MpiD: next_round would exceed Config::resident_rounds (" +
        std::to_string(config_.resident_rounds) +
        ") — the round after this barrier could never finalize");
  }
  round_barrier(/*final=*/false);
  rearm_for_next_round();
}

void MpiD::round_barrier(bool final) {
  // The round this barrier completes, 1-based, stamped into the shipped
  // stats so the master's fold proves the round count (max-aggregated).
  if (config_.resident_rounds > 1 && role_ != Role::kMaster) {
    stats_.chain_rounds =
        static_cast<std::uint64_t>(rounds_completed_) + 1;
  }

  switch (role_) {
    case Role::kMapper: {
      encoder_->spill(*map_buffer_);
      encoder_->flush_all();
      if (node_agg()) {
        node_agg_finalize();
        if (mapper_index() % ranks_per_node() != 0) {
          // Non-leaders shipped nothing across the fabric: no windows to
          // drain, no lanes to seal — just the done handshake. The recv
          // is source- and tag-selective, so nothing else can steal it.
          data_comm_.send_value(0, kDoneTag, stats_);
          (void)data_comm_.recv_value<int>(0, kAckTag);
          break;
        }
      }
      // Close every in-flight window before the SEALs: a SEAL cannot
      // overtake data (same (source, context) lane), but a drained window
      // returns the request bookkeeping to a clean state before the final
      // handshake.
      for (std::size_t p = 0; p < inflight_.size(); ++p) drain_inflight(p);
      close_lanes();
      break;
    }
    case Role::kReducer: {
      if (lanes_delivered_ != lanes_expected() || delivery_pending() ||
          !collected_.empty()) {
        throw std::logic_error(
            "MpiD: reducer must drain recv() before finalize");
      }
      data_comm_.send_value(0, kDoneTag, stats_);
      (void)data_comm_.recv_value<int>(0, kAckTag);
      break;
    }
    case Role::kMaster: {
      const int workers = config_.mappers + config_.reducers;
      Stats round_total;
      for (int i = 0; i < workers; ++i) {
        minimpi::Status st;
        const auto s = data_comm_.recv_value<Stats>(minimpi::kAnySource,
                                                    kDoneTag, &st);
        round_total += s;
        if (final) {
          // Task completions are counted once, at the last barrier — a
          // chained rank runs every round, it doesn't complete per round.
          if (st.source <= config_.mappers) {
            ++report_.mappers_completed;
          } else {
            ++report_.reducers_completed;
          }
        }
      }
      report_.totals += round_total;
      report_.round_totals.push_back(round_total);
      for (int r = 1; r <= workers; ++r) data_comm_.send_value(r, kAckTag, 0);
      break;
    }
  }
  ++rounds_completed_;
}

void MpiD::rearm_for_next_round() {
  stats_ = Stats{};
  // Each round gets its own message context, so a stale round-N frame (a
  // retransmit or duplicate still in flight at the barrier) can never
  // match a round-N+1 receive. Every rank re-dups once per barrier, and
  // dup() is deterministic, so all ranks agree on the new context.
  data_comm_ = data_comm_.dup();
  if (resilient() && injector() != nullptr) {
    injector()->add_transport_scope(data_comm_.context(), kDataTag);
  }
  // This context switch is the one thing that tells rounds apart:
  // incarnations only track mapper attempts and carry over unchanged.
  switch (role_) {
    case Role::kMapper:
      // The barrier flushed every pending frame, so the encoder reset
      // only clears bookkeeping; the writers keep their allocations.
      reset_send_side();
      break;
    case Role::kReducer:
      // progress_ticks_ / crash_tick_ are NOT reset: an injected reducer
      // crash plan spans the chain, so a tick budget larger than one
      // round's traffic fires mid-chain (the restart-under-chaining test
      // path). restart_reducer() re-arms them per attempt as usual.
      reset_receive_side();
      break;
    case Role::kMaster:
      break;
  }
}

void MpiD::reset_send_side() {
  map_buffer_->clear();
  node_staged_.clear();
  encoder_->reset();
  release_retained();
  for (auto& lane : lanes_) lane.next_seq = 0;
}

void MpiD::reset_receive_side() {
  for (auto& lane : recv_lanes_) {
    // Incarnations survive: they track the mappers' attempts.
    lane.frames.clear();
    lane.sealed_total.reset();
    lane.delivered = false;
  }
  lanes_delivered_ = 0;
  collected_.clear();
  current_view_.reset();
  delivery_reader_.reset();
  if (!delivery_frame_.empty()) pool_->release(std::move(delivery_frame_));
  delivery_frame_ = std::vector<std::byte>{};
  current_value_index_ = 0;
}

// ------------------------------------------------- node-local aggregation --

void MpiD::node_agg_finalize() {
  const int self = mapper_index();
  const int leader = (self / ranks_per_node()) * ranks_per_node();
  if (self != leader) {
    // Forward the staged stream to the node's leader over the reliable
    // intra-node tag, in frame order; the empty payload closes it.
    for (auto& frame : node_staged_) {
      data_comm_.send_bytes(1 + leader, kNodeTag, frame);
    }
    data_comm_.send_bytes(1 + leader, kNodeTag, {});
    node_staged_.clear();
    return;
  }
  // Leader: merge every member stream through the node's combine tree in
  // fixed member order — self first (the leader is the lowest co-located
  // index), then peers by ascending mapper index — so the merged stream
  // is deterministic. The tree's sink is transport_send(): under the
  // resilient shuffle the AGGREGATED frames are what the lanes retain,
  // so NACK/REPULL retransmission re-serves exactly these bytes.
  shuffle::NodeAggregator::Setup setup;
  setup.out_layout = shuffle::Layout::kKvList;
  setup.partitions = static_cast<std::uint32_t>(config_.reducers);
  setup.partitioner = shuffle::Partitioner(
      static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
  setup.combine = &*combine_runner_;
  setup.compressor = compressor_ ? &*compressor_ : nullptr;
  setup.pool = pool_.get();
  setup.budget = memory_budget();
  setup.counters = &stats_;
  setup.sink = [this](std::uint32_t partition, std::vector<std::byte> frame,
                      bool /*codec_framed: self-describing framing*/) {
    transport_send(partition, std::move(frame));
  };
  shuffle::NodeAggregator agg(config_, std::move(setup));
  for (auto& frame : node_staged_) {
    agg.add_frame(frame, shuffle::Layout::kKvList);
    pool_->release(std::move(frame));
  }
  node_staged_.clear();
  const int node_end = std::min(leader + ranks_per_node(), config_.mappers);
  std::vector<std::byte> msg;
  for (int m = leader + 1; m < node_end; ++m) {
    for (;;) {
      // Source- and tag-selective: a queued REPULL or lane control from a
      // restarted reducer stays pending for resilient_mapper_finalize().
      data_comm_.recv_bytes(1 + m, kNodeTag, msg);
      if (msg.empty()) break;
      agg.add_frame(msg, shuffle::Layout::kKvList);
    }
  }
  agg.finish();
}

// ----------------------------------------------------------- data channel --

void MpiD::send_seal(int reducer) {
  // kSealTag is out of the injector's scope, so a SEAL always arrives; it
  // tells the reducer how many frames incarnation `incarnation_` shipped.
  std::vector<std::byte> seal;
  seal.reserve(8);
  put_u32(seal, incarnation_);
  put_u32(seal, lanes_[static_cast<std::size_t>(reducer)].next_seq);
  data_comm_.send_bytes(1 + config_.mappers + reducer, kSealTag, seal);
}

void MpiD::handle_lane_control(const minimpi::Status& st,
                               std::span<const std::byte> payload,
                               std::vector<char>& acked, int& remaining) {
  const int lane_idx = st.source - 1 - config_.mappers;
  if (lane_idx < 0 || lane_idx >= config_.reducers) {
    throw std::runtime_error("MpiD: lane control from a non-reducer rank");
  }
  const auto u = static_cast<std::size_t>(lane_idx);
  auto& lane = lanes_[u];
  if (st.tag == kLaneAckTag) {
    if (!acked[u]) {
      acked[u] = 1;
      --remaining;
    }
    return;
  }
  if (st.tag != kLaneNackTag && st.tag != kRepullTag) {
    throw std::runtime_error("MpiD: unexpected tag in mapper finalize");
  }
  if (!resilient()) {
    // Without retention there is nothing to re-send: fail loudly rather
    // than hang the lane or let the reducer deliver a gap.
    throw std::runtime_error(
        "MpiD: mapper rank " + std::to_string(comm_.rank()) + " got a " +
        (st.tag == kLaneNackTag ? "NACK" : "REPULL") + " for lane " +
        std::to_string(lane_idx) + " (reducer rank " +
        std::to_string(st.source) +
        ") but retains no frames: resilient_shuffle is off");
  }
  const std::uint64_t start = now_ns();
  std::uint32_t resent = 0;
  if (st.tag == kRepullTag) {
    for (const auto& frame : lane.retained) {
      data_comm_.send_bytes(st.source, kDataTag, frame);
    }
    resent = static_cast<std::uint32_t>(lane.retained.size());
  } else {
    if (payload.size() < 4) throw std::runtime_error("MpiD: short NACK");
    std::uint32_t count = 0;
    std::memcpy(&count, payload.data(), 4);
    if (payload.size() < 4 + std::size_t{count} * 4) {
      throw std::runtime_error("MpiD: truncated NACK");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t seq = 0;
      std::memcpy(&seq, payload.data() + 4 + std::size_t{i} * 4, 4);
      if (seq >= lane.retained.size()) continue;  // stale-incarnation seq
      // Retransmits go back through the hooked send path: they can be
      // dropped again, and the next SEAL round NACKs again.
      data_comm_.send_bytes(st.source, kDataTag, lane.retained[seq]);
      ++resent;
    }
  }
  stats_.frames_retransmitted += resent;
  ++stats_.retransmit_requests;
  send_seal(lane_idx);
  if (acked[u]) {
    acked[u] = 0;
    ++remaining;
  }
  if (auto* inj = injector()) {
    inj->record_recovery(
        fault::Kind::kRetransmit, "map:" + std::to_string(mapper_index()),
        st.tag == kRepullTag
            ? "repull of " + std::to_string(resent) + " frames by reducer " +
                  std::to_string(lane_idx)
            : std::to_string(resent) + " frames to reducer " +
                  std::to_string(lane_idx));
  }
  stats_.recovery_wall_ns += now_ns() - start;
}

void MpiD::close_lanes() {
  for (int r = 0; r < config_.reducers; ++r) send_seal(r);
  std::vector<char> acked(static_cast<std::size_t>(config_.reducers), 0);
  int remaining = config_.reducers;
  std::vector<std::byte> msg;
  while (remaining > 0) {
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
    handle_lane_control(st, msg, acked, remaining);
  }
  data_comm_.send_value(0, kDoneTag, stats_);
  // A reducer can still restart after acking (its reduce function crashed)
  // and re-pull; keep servicing until the master's ack, which it sends
  // only once every reducer reported done — nothing can follow it.
  for (;;) {
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
    if (st.source == 0 && st.tag == kAckTag) break;
    handle_lane_control(st, msg, acked, remaining);
  }
  release_retained();
}

void MpiD::release_retained() {
  for (auto& lane : lanes_) {
    for (auto& frame : lane.retained) pool_->release(std::move(frame));
    lane.retained.clear();
  }
}

void MpiD::receive_one() {
  std::vector<std::byte> msg;
  const minimpi::Status st =
      data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
  const int m = st.source - 1;
  if (m < 0 || m >= config_.mappers) {
    throw std::runtime_error("MpiD: data-channel message from a non-mapper");
  }
  auto& lane = recv_lanes_[static_cast<std::size_t>(m)];
  // A new incarnation voids the dead attempt's frames and SEAL — unless
  // the lane was already delivered: those frames are gone to the reducer.
  const auto adopt = [&](std::uint32_t incarnation) {
    if (lane.delivered) {
      throw std::runtime_error(
          "MpiD: reducer rank " + std::to_string(comm_.rank()) +
          " saw incarnation " + std::to_string(incarnation) + " on lane " +
          std::to_string(m) + " after delivering incarnation " +
          std::to_string(lane.incarnation));
    }
    lane.frames.clear();
    lane.sealed_total.reset();
    lane.incarnation = incarnation;
  };
  if (st.tag == kSealTag) {
    if (msg.size() < 8) throw std::runtime_error("MpiD: short SEAL");
    std::uint32_t inc = 0;
    std::uint32_t total = 0;
    std::memcpy(&inc, msg.data(), 4);
    std::memcpy(&total, msg.data() + 4, 4);
    if (inc < lane.incarnation) return;  // a dead attempt's seal
    if (inc > lane.incarnation) adopt(inc);
    lane.sealed_total = total;
    if (lane.delivered) {
      // A re-SEAL after a retransmit: the mapper un-acked the lane.
      data_comm_.send_bytes(st.source, kLaneAckTag, {});
    } else if (lane.frames.size() == std::size_t{total}) {
      deliver_lane(m);
    } else {
      // {u32 count, u32 seq...}: the sequence numbers still missing.
      std::vector<std::byte> nack(4);
      std::uint32_t missing = 0;
      for (std::uint32_t s = 0; s < total; ++s) {
        if (!lane.frames.contains(s)) {
          put_u32(nack, s);
          ++missing;
        }
      }
      std::memcpy(nack.data(), &missing, 4);
      data_comm_.send_bytes(st.source, kLaneNackTag, nack);
    }
    return;
  }
  if (st.tag != kDataTag) {
    throw std::runtime_error("MpiD: unexpected tag on the data channel");
  }
  // Verify before trusting any trailer field: the checksum spans
  // (incarnation, seq, payload), so a flipped bit cannot reset a lane or
  // claim a wrong slot. The codec bit must agree with this job's mode —
  // uniform across ranks — so a mismatch is corruption the checksum
  // happened to pass.
  const auto trailer = strip_frame_trailer(msg);
  if (!trailer || trailer->codec_framed != compression_on()) {
    ++stats_.corrupt_frames_dropped;
    if (auto* inj = injector()) {
      inj->note(fault::Kind::kCorruptDetected,
                "reduce:" + std::to_string(reducer_index()),
                "frame from mapper " + std::to_string(m));
    }
    return;  // the mapper's SEAL round will NACK the gap
  }
  if (trailer->incarnation < lane.incarnation) {
    ++stats_.duplicate_frames_dropped;  // a dead attempt's frame
    return;
  }
  if (trailer->incarnation > lane.incarnation) adopt(trailer->incarnation);
  if (lane.delivered || lane.frames.contains(trailer->seq)) {
    ++stats_.duplicate_frames_dropped;
    if (auto* inj = injector()) {
      inj->note(fault::Kind::kDuplicateDetected,
                "reduce:" + std::to_string(reducer_index()),
                "mapper " + std::to_string(m) + " seq " +
                    std::to_string(trailer->seq));
    }
    return;
  }
  ++stats_.frames_received;
  stats_.bytes_received += msg.size();
  lane.frames.emplace(trailer->seq, std::move(msg));
  ++progress_ticks_;
  if (crash_tick_ && progress_ticks_ >= *crash_tick_) {
    crash_tick_.reset();
    if (auto* inj = injector()) {
      inj->note(fault::Kind::kTaskCrash,
                "reduce:" + std::to_string(reducer_index()) + "#" +
                    std::to_string(attempt_));
    }
    throw fault::TaskCrash(fault::TaskKind::kReduce, reducer_index(),
                           attempt_);
  }
  if (lane.sealed_total && lane.frames.size() == *lane.sealed_total) {
    deliver_lane(m);
  }
}

void MpiD::deliver_lane(int mapper) {
  // Every lane decodes here: the checksum already vouched for the wire
  // bytes, and staging decoded frames lets every recv_* flavor skip
  // per-frame special cases.
  auto& lane = recv_lanes_[static_cast<std::size_t>(mapper)];
  for (auto& [seq, payload] : lane.frames) {
    if (compression_on()) {
      collected_.push_back(decoder_->decode(std::move(payload)));
    } else {
      collected_.push_back(std::move(payload));
    }
  }
  lane.frames.clear();
  lane.delivered = true;
  ++lanes_delivered_;
  data_comm_.send_bytes(1 + mapper, kLaneAckTag, {});
}

void MpiD::restart_mapper() {
  if (role_ != Role::kMapper || !resilient()) {
    throw std::logic_error("MpiD: restart_mapper needs a resilient mapper");
  }
  if (finalized_) {
    throw std::logic_error("MpiD: restart_mapper called after finalize");
  }
  const std::uint64_t start = now_ns();
  ++attempt_;
  ++incarnation_;
  ++stats_.task_restarts;
  for (std::size_t p = 0; p < inflight_.size(); ++p) drain_inflight(p);
  reset_send_side();
  if (auto* inj = injector()) {
    inj->record_recovery(fault::Kind::kTaskReexec,
                         "map:" + std::to_string(mapper_index()) + "#" +
                             std::to_string(attempt_),
                         "incarnation " + std::to_string(incarnation_));
  }
  stats_.recovery_wall_ns += now_ns() - start;
}

void MpiD::restart_reducer() {
  if (role_ != Role::kReducer || !resilient()) {
    throw std::logic_error("MpiD: restart_reducer needs a resilient reducer");
  }
  if (finalized_) {
    throw std::logic_error("MpiD: restart_reducer called after finalize");
  }
  const std::uint64_t start = now_ns();
  ++attempt_;
  ++stats_.task_restarts;
  reset_receive_side();
  progress_ticks_ = 0;
  crash_tick_.reset();
  if (auto* inj = injector()) {
    crash_tick_ =
        inj->crash_tick(fault::TaskKind::kReduce, reducer_index(), attempt_);
    inj->record_recovery(fault::Kind::kRepull,
                         "reduce:" + std::to_string(reducer_index()) + "#" +
                             std::to_string(attempt_),
                         "re-pulling " + std::to_string(lanes_expected()) +
                             " lanes");
  }
  // Only the ranks that shipped lanes can re-serve them: every mapper
  // normally, the node leaders under node aggregation (their retained
  // lanes hold the aggregated frames).
  for (int m = 0; m < config_.mappers; ++m) {
    if (is_agg_sender(m)) data_comm_.send_bytes(1 + m, kRepullTag, {});
  }
  stats_.recovery_wall_ns += now_ns() - start;
}

const JobReport& MpiD::report() const {
  if (role_ != Role::kMaster || !finalized_) {
    throw std::logic_error("MpiD: report available on the master after finalize");
  }
  return report_;
}

}  // namespace mpid::core
