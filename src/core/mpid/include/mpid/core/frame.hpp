// The MPI-D data-channel frame (DESIGN.md §6).
//
// Every data frame a mapper ships — a realigned KvList frame or its
// codec frame — is the payload followed by a 16-byte trailer:
//
//   payload | u32 incarnation | u32 seq (top bit: codec) | u64 checksum
//
// A trailer rather than a header lets the sender append in place and the
// receiver strip it with resize(), so neither side copies the payload.
// The codec bit is set when the payload is a codec frame; the checksum
// covers the seq field as sent, so the effective sequence space is 31
// bits, far beyond any real lane length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "mpid/common/hash.hpp"

namespace mpid::core {

inline constexpr std::size_t kFrameTrailerBytes = 16;
inline constexpr std::uint32_t kSeqCodecBit = 0x80000000u;

/// The decoded trailer of a verified frame.
struct FrameTrailer {
  std::uint32_t incarnation = 0;
  std::uint32_t seq = 0;  // codec bit masked off
  bool codec_framed = false;
};

/// Covers the payload *and* the (incarnation, seq field) pair, so a bit
/// flipped anywhere in the frame is caught: the payload hash and the
/// header mix are each bijective in their input, and XOR keeps that.
inline std::uint64_t frame_checksum(
    std::uint32_t incarnation, std::uint32_t seq_field,
    std::span<const std::byte> payload) noexcept {
  return common::wordhash64(payload) ^
         common::fmix64((std::uint64_t{incarnation} << 32) | seq_field);
}

/// Appends the trailer of frame `seq` of an `incarnation` lane.
inline void append_frame_trailer(std::vector<std::byte>& frame,
                                 std::uint32_t incarnation, std::uint32_t seq,
                                 bool codec_framed) {
  const std::uint32_t seq_field = seq | (codec_framed ? kSeqCodecBit : 0u);
  const std::uint64_t checksum =
      frame_checksum(incarnation, seq_field, frame);
  const std::size_t at = frame.size();
  frame.resize(at + kFrameTrailerBytes);
  std::memcpy(frame.data() + at, &incarnation, 4);
  std::memcpy(frame.data() + at + 4, &seq_field, 4);
  std::memcpy(frame.data() + at + 8, &checksum, 8);
}

/// Verifies a received frame and strips its trailer in place. Returns
/// nullopt, leaving the frame untouched, when it is too short or fails
/// its checksum — verification comes before any trailer field is trusted.
inline std::optional<FrameTrailer> strip_frame_trailer(
    std::vector<std::byte>& frame) noexcept {
  if (frame.size() < kFrameTrailerBytes) return std::nullopt;
  const std::size_t at = frame.size() - kFrameTrailerBytes;
  std::uint32_t incarnation = 0;
  std::uint32_t seq_field = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&incarnation, frame.data() + at, 4);
  std::memcpy(&seq_field, frame.data() + at + 4, 4);
  std::memcpy(&checksum, frame.data() + at + 8, 8);
  if (frame_checksum(incarnation, seq_field,
                     std::span<const std::byte>(frame.data(), at)) !=
      checksum) {
    return std::nullopt;
  }
  frame.resize(at);
  return FrameTrailer{incarnation, seq_field & ~kSeqCodecBit,
                      (seq_field & kSeqCodecBit) != 0};
}

}  // namespace mpid::core
