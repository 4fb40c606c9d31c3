// Contiguous key-value frame serialization.
//
// This is the substrate of MPI-D "data realignment" (Section IV.A of the
// paper): variable-sized, non-contiguous key-value pairs are reformatted
// into address-sequential byte buffers suitable for a single MPI_Send, and
// recovered to key-value pairs on the receiving side.
//
// Wire formats (all integers are LEB128 varints):
//   flat pair frame:  [klen][vlen][key bytes][value bytes]
//   key/value-list:   [klen][key bytes][count][vlen][v bytes] * count
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace mpid::common {

/// Appends a LEB128 varint to `out`.
void put_varint(std::vector<std::byte>& out, std::uint64_t value);

/// Reads a LEB128 varint at `offset`, advancing it. Returns nullopt on
/// truncated or overlong (>10 byte) input.
std::optional<std::uint64_t> get_varint(std::span<const std::byte> buf,
                                        std::size_t& offset);

/// A borrowed view of one key-value pair inside a frame buffer.
struct KvView {
  std::string_view key;
  std::string_view value;
};

/// Serializes flat (key, value) pairs into one contiguous buffer.
class KvWriter {
 public:
  void append(std::string_view key, std::string_view value);
  std::size_t pair_count() const noexcept { return pairs_; }
  std::size_t byte_size() const noexcept { return buf_.size(); }
  const std::vector<std::byte>& buffer() const noexcept { return buf_; }
  std::vector<std::byte> take() noexcept;
  void clear() noexcept;
  /// Adopts `recycled` (typically from a FramePool) as the backing buffer,
  /// discarding its contents but keeping its allocation — the move-only
  /// complement of take() that lets buffers cycle writer → wire → pool →
  /// writer without copies.
  void reset(std::vector<std::byte>&& recycled) noexcept;
  /// Grows the backing buffer to at least `bytes` capacity up front, so a
  /// spill whose exact size is known (KvCombineTable byte accounting)
  /// never reallocates mid-append.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::byte> buf_;
  std::size_t pairs_ = 0;
};

/// Iterates flat (key, value) pairs out of a contiguous buffer.
///
/// The returned views alias the underlying buffer, which must outlive them.
class KvReader {
 public:
  explicit KvReader(std::span<const std::byte> buf) noexcept : buf_(buf) {}

  /// Returns the next pair, or nullopt at end of buffer.
  /// Throws std::runtime_error on a corrupt frame.
  std::optional<KvView> next();

  bool at_end() const noexcept { return offset_ == buf_.size(); }
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::span<const std::byte> buf_;
  std::size_t offset_ = 0;
};

/// Serializes (key, [value...]) groups — the combined form MPI-D builds in
/// its hash-table buffer before spilling to a partition.
class KvListWriter {
 public:
  /// Starts a group for `key` with a known value count.
  void begin_group(std::string_view key, std::size_t value_count);
  /// Adds one value to the currently open group; must be called exactly
  /// `value_count` times per begin_group.
  void add_value(std::string_view value);
  /// Appends values already serialized in this writer's wire format
  /// (varint-length-prefixed), e.g. streamed straight out of
  /// KvCombineTable's value slabs. `value_count` says how many of the
  /// open group's pending values the bytes settle; a multi-chunk run may
  /// pass 0 for all chunks but the one that closes the tally.
  void add_encoded_values(std::span<const std::byte> encoded,
                          std::size_t value_count);
  std::size_t group_count() const noexcept { return groups_; }
  std::size_t byte_size() const noexcept { return buf_.size(); }
  const std::vector<std::byte>& buffer() const noexcept { return buf_; }
  std::vector<std::byte> take() noexcept;
  void clear() noexcept;
  /// Adopts `recycled` as the backing buffer (see KvWriter::reset).
  void reset(std::vector<std::byte>&& recycled) noexcept;
  /// Pre-sizes the backing buffer (see KvWriter::reserve).
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::byte> buf_;
  std::size_t groups_ = 0;
  std::size_t pending_values_ = 0;
};

/// A borrowed view of one (key, [value...]) group.
struct KvListView {
  std::string_view key;
  std::vector<std::string_view> values;
};

/// Iterates (key, [value...]) groups out of a contiguous buffer.
class KvListReader {
 public:
  explicit KvListReader(std::span<const std::byte> buf) noexcept : buf_(buf) {}

  /// Returns the next group, or nullopt at end of buffer.
  /// Throws std::runtime_error on a corrupt frame.
  std::optional<KvListView> next();

  /// As next(), but refills a view the caller owns: its value vector keeps
  /// its capacity, so a reader drained group by group allocates only when
  /// a group outgrows every earlier one. Returns false at end of buffer
  /// (the view is then unchanged).
  bool next(KvListView& view);

  bool at_end() const noexcept { return offset_ == buf_.size(); }

 private:
  std::span<const std::byte> buf_;
  std::size_t offset_ = 0;
};

}  // namespace mpid::common
