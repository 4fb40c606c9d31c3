#include "mpid/shuffle/parallel.hpp"

#include <algorithm>
#include <utility>

namespace mpid::shuffle {

namespace {
/// Map chunks per batch. Fixed — not derived from map_threads — so the
/// chunk cadence, and therefore the wire bytes, are identical at every
/// thread count (the parity guarantee). 16 keeps four workers at ~4
/// steal-able chunks each without shrinking chunks so far that the
/// per-chunk flush overhead shows.
constexpr std::size_t kMapChunks = 16;
}  // namespace

std::size_t resolve_map_chunks(std::size_t items) {
  return std::max<std::size_t>(1, std::min(kMapChunks, items));
}

ParallelMapper::Lane::Lane(const ShuffleOptions& options, const Setup& setup)
    : combine(setup.combiner, &counters),
      buffer(options, &combine, &counters, options.memory_budget.get()),
      encoder(options,
              SpillEncoder::Setup{
                  setup.layout,
                  setup.partitions,
                  setup.frame_flush_bytes,
                  Partitioner(setup.partitions, setup.partitioner),
                  // Lane encoders never compress: the shared codec stage
                  // is stateful (kAuto back-off) and runs at the
                  // serialized sequencer drain instead.
                  /*compressor=*/nullptr,
                  // No frame pool either — pools are not synchronized,
                  // and lanes run concurrently.
                  /*pool=*/nullptr,
                  &counters,
                  // The lane is heap-allocated, so `this` is stable:
                  // flushed frames land in the running chunk's list.
                  /*sink=*/
                  [this](std::uint32_t partition, std::vector<std::byte> frame,
                         bool /*codec_framed*/) {
                    frames.push_back(Frame{partition, std::move(frame)});
                  },
              }) {}

ParallelMapper::ParallelMapper(const ShuffleOptions& options, Setup setup)
    : options_(options), setup_(std::move(setup)), commit_(setup_.counters) {
  if (options_.shuffle_compression != ShuffleCompression::kOff) {
    compressor_.emplace(options_, setup_.compress_framing,
                        setup_.compress_kind, /*pool=*/nullptr,
                        &codec_counters_);
  }
}

std::uint64_t ParallelMapper::run(WorkerPool& pool, std::size_t chunk_count,
                                  const ChunkFn& chunk_fn) {
  next_chunk_ = 0;
  parked_.clear();
  // (Re)build one lane per worker. Lanes persist for the batch: their
  // arenas warm up across the chunks a worker executes, while the
  // chunk-local cadence (drained empty at every chunk boundary) keeps
  // the produced bytes independent of that reuse.
  if (lanes_.size() != pool.workers()) {
    lanes_.clear();
    lanes_.reserve(pool.workers());
    for (std::size_t w = 0; w < pool.workers(); ++w) {
      lanes_.push_back(std::make_unique<Lane>(options_, setup_));
    }
  }
  for (auto& lane : lanes_) lane->pairs = 0;

  pool.run(chunk_count, [&](std::size_t chunk, std::size_t worker) {
    run_chunk(chunk, worker, chunk_fn);
  });

  // The pool has joined, so the codec block is quiescent: fold it into
  // the shared target like any other worker block.
  commit_.commit(codec_counters_);
  codec_counters_ = ShuffleCounters{};

  std::uint64_t pairs = 0;
  for (auto& lane : lanes_) pairs += lane->pairs;
  return pairs;
}

void ParallelMapper::run_chunk(std::size_t chunk, std::size_t worker,
                               const ChunkFn& chunk_fn) {
  Lane& lane = *lanes_[worker];
  lane.frames.clear();

  const EmitFn emit = [&lane](std::string_view key, std::string_view value) {
    lane.buffer.append(key, value);
    ++lane.pairs;
    if (lane.buffer.should_spill()) {
      lane.encoder.spill(lane.buffer);
    }
  };

  try {
    chunk_fn(chunk, emit);
    if (!lane.buffer.empty()) lane.encoder.spill(lane.buffer);
    lane.encoder.flush_all();
  } catch (...) {
    // Leave the lane drained so a later chunk on this worker (another
    // task may already be in flight) starts from the clean state the
    // cadence requires.
    lane.buffer.clear();
    lane.encoder.reset();
    lane.frames.clear();
    commit_.commit(lane.counters);
    lane.counters = ShuffleCounters{};
    throw;
  }

  // Commit-time accumulation: this chunk's counter block folds into the
  // shared target from the worker thread, then the lane block resets for
  // the worker's next chunk.
  commit_.commit(lane.counters);
  lane.counters = ShuffleCounters{};

  sequence(chunk, std::move(lane.frames));
  lane.frames.clear();
}

void ParallelMapper::sequence(std::size_t chunk, std::vector<Frame> frames) {
  std::lock_guard lock(seq_mu_);
  parked_.emplace(chunk, std::move(frames));
  // Drain every consecutive chunk starting at next_chunk_. Holding the
  // lock through delivery serializes the compressor and the sink — the
  // two stages whose state/order the determinism contract protects.
  for (auto it = parked_.find(next_chunk_); it != parked_.end();
       it = parked_.find(next_chunk_)) {
    for (auto& frame : it->second) deliver(frame);
    parked_.erase(it);
    ++next_chunk_;
  }
}

void ParallelMapper::deliver(Frame& frame) {
  if (compressor_) {
    bool codec_framed = false;
    auto wire = compressor_->encode(std::move(frame.bytes), codec_framed);
    setup_.sink(frame.partition, std::move(wire), codec_framed);
    return;
  }
  setup_.sink(frame.partition, std::move(frame.bytes), false);
}

}  // namespace mpid::shuffle
