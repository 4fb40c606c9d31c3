#include "mpid/shuffle/compress.hpp"

#include <chrono>
#include <utility>

namespace mpid::shuffle {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::vector<std::byte> FrameCompressor::encode(std::vector<std::byte> frame,
                                               bool& codec_framed) {
  codec_framed = false;
  if (!enabled()) return frame;
  counters_->shuffle_bytes_raw += frame.size();

  bool skip = false;
  if (options_.shuffle_compression == ShuffleCompression::kAuto) {
    if (frame.size() < options_.compress_min_frame_bytes) {
      skip = true;
    } else if (skip_remaining_ > 0) {
      --skip_remaining_;
      skip = true;
    }
  }

  if (skip && framing_ == WireFraming::kFlagged) {
    // Raw-body escape: the frame ships exactly as realigned and the
    // caller's transport flags it unframed. No encode cost to account.
    ++counters_->frames_stored_uncompressed;
    counters_->shuffle_bytes_wire += frame.size();
    return frame;
  }

  std::vector<std::byte> wire;
  if (pool_) {
    wire = pool_->acquire(frame.size() + 16 + kFrameTailRoom);
    wire.clear();
  } else {
    wire.reserve(frame.size() + 16 + kFrameTailRoom);
  }
  const std::uint64_t start = now_ns();
  const auto result = skip ? common::store_frame(frame, wire)
                           : common::encode_frame(kind_, frame, wire);
  counters_->compress_ns += now_ns() - start;
  counters_->shuffle_bytes_wire += wire.size();
  if (result.codec == common::FrameCodec::kStored) {
    ++counters_->frames_stored_uncompressed;
  }
  if (options_.shuffle_compression == ShuffleCompression::kAuto && !skip) {
    const bool poor = static_cast<double>(result.wire_bytes) >
                      options_.compress_skip_ratio *
                          static_cast<double>(result.raw_bytes);
    if (poor) {
      if (++poor_samples_ >= options_.compress_skip_after) {
        skip_remaining_ = options_.compress_skip_frames;
        poor_samples_ = 0;
      }
    } else {
      poor_samples_ = 0;
    }
  }
  if (pool_) pool_->release(std::move(frame));
  codec_framed = true;
  return wire;
}

std::vector<std::byte> FrameDecoder::decode(std::vector<std::byte> wire) {
  std::vector<std::byte> frame;
  if (pool_) frame = pool_->acquire(capacity_hint_);
  const std::uint64_t start = now_ns();
  common::decode_frame(wire, frame);
  counters_->decompress_ns += now_ns() - start;
  if (pool_) pool_->release(std::move(wire));
  return frame;
}

void FrameDecoder::decode_into(std::span<const std::byte> wire,
                               std::vector<std::byte>& out) {
  const std::uint64_t start = now_ns();
  common::decode_frame(wire, out);
  counters_->decompress_ns += now_ns() - start;
}

}  // namespace mpid::shuffle
