// KV-frame-aware block codec for shuffle wire frames.
//
// The shuffle ships realigned key-value frames (kvframe.hpp) whose bytes
// are highly redundant on MapReduce workloads: WordCount frames repeat the
// value "1" thousands of times, sorted spill runs carry keys that share
// long prefixes, and GridMix records repeat dictionary words. The copy
// stage the paper measures as dominant (Figure 1, Table I) is therefore
// mostly redundant bytes on the wire — trading cheap CPU for shuffle
// bandwidth is the same lever Hadoop exposes as
// `mapred.compress.map.output`.
//
// The codec is frame-structure-aware rather than generic:
//
//   * keys are prefix-delta coded against the previous key of the frame
//     ([shared][suffix-len][suffix bytes]) — a no-op-cost transform on
//     unsorted frames, a large win on sorted runs and on the grouped
//     (equal keys adjacent) layout both runtimes emit;
//   * values are run-length coded (consecutive identical values collapse
//     to one token) and dictionary coded (a value seen anywhere earlier
//     in the frame becomes a varint back-reference) — WordCount's "1"
//     costs two bytes per group instead of two bytes per pair;
//   * an optional byte-oriented LZ stage (greedy LZ77, varint tokens)
//     squeezes residual redundancy out of the transformed stream, and
//     doubles as the fallback for payloads that are not KV frames at all;
//   * every encode is guarded by a stored escape: if the encoded form is
//     not smaller than the raw frame (times `max_wire_fraction`), the
//     frame ships verbatim, so the worst case is the raw frame plus a
//     few header bytes.
//
// Wire format of one codec frame (self-describing; all varints LEB128):
//
//   [u8 codec id][varint raw size][payload bytes]
//
// decode_frame() dispatches on the codec id, so a receiver needs no
// out-of-band negotiation beyond "this buffer is a codec frame". Decoding
// is hostile-input safe: corrupt or truncated frames throw
// std::runtime_error, never read out of bounds, and never allocate more
// than the declared raw size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace mpid::common {

/// Structure hint for the encoder: which wire layout `raw` uses.
/// (The *decoder* never needs it — codec frames are self-describing.)
enum class FrameKind : std::uint8_t {
  kKvList,  // KvListWriter frames: [klen][key][count]([vlen][v])*count ...
  kKvPair,  // KvWriter frames:     [klen][vlen][key][value] ...
  kOpaque,  // arbitrary bytes: only the LZ stage / stored escape apply
};

/// Codec id stamped into byte 0 of a codec frame.
enum class FrameCodec : std::uint8_t {
  kStored = 0,    // payload is the raw frame verbatim
  kKvList = 1,    // KV transform of a KvList frame
  kKvPair = 2,    // KV transform of a flat pair frame
  kLz = 3,        // byte-oriented LZ over the raw bytes
  kKvListLz = 4,  // KV transform of a KvList frame, then LZ
  kKvPairLz = 5,  // KV transform of a flat pair frame, then LZ
};

struct CodecOptions {
  /// Skip the LZ stage (and the LZ fallback): the KV transform alone is
  /// already within ~20% of the two-stage ratio on combiner-off frames
  /// and roughly twice as fast to encode.
  bool enable_lz = true;
  /// Encoded/raw must come in at or below this fraction, or the frame is
  /// stored verbatim — the escape that bounds incompressible-input cost.
  double max_wire_fraction = 0.95;
};

/// What one encode_frame() call did (the caller folds this into Stats).
struct EncodeResult {
  FrameCodec codec = FrameCodec::kStored;
  std::size_t raw_bytes = 0;   // input frame size
  std::size_t wire_bytes = 0;  // bytes appended to `out` (header included)
};

/// Encodes `raw` as one self-describing codec frame appended to `out`.
/// Tries the KV transform matching `kind` (falling back to LZ when the
/// frame does not parse), then the stored escape. Never throws on any
/// input; the output always round-trips through decode_frame(). The wire
/// frame is *appended* to `out` (so a caller can prefix its own header);
/// clear the buffer first when reusing one across frames.
EncodeResult encode_frame(FrameKind kind, std::span<const std::byte> raw,
                          std::vector<std::byte>& out,
                          const CodecOptions& options = {});

/// Appends `raw` as a stored codec frame without attempting compression —
/// the cheap path for frames the caller already decided not to compress
/// (below a size threshold, or skipped by an auto heuristic).
EncodeResult store_frame(std::span<const std::byte> raw,
                         std::vector<std::byte>& out);

/// Decodes one codec frame produced by encode_frame() into `out` (cleared
/// first; capacity is reused, so pool-recycled buffers decode in place).
/// Returns the codec the frame was encoded with. Throws
/// std::runtime_error on corrupt, truncated or oversized input.
FrameCodec decode_frame(std::span<const std::byte> wire,
                        std::vector<std::byte>& out);

/// The codec id of a wire buffer, or nullopt if the buffer is empty or
/// the id byte is not a known codec (diagnostics / tests).
std::optional<FrameCodec> peek_codec(std::span<const std::byte> wire) noexcept;

}  // namespace mpid::common
