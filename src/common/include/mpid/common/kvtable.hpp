// KvCombineTable: the allocation-free combine buffer of the map stage.
//
// Both runtimes buffer every emitted (key, value) pair until a spill
// realigns the buffer into partition frames (Section IV.A of the paper).
// A node-based std::unordered_map<std::string, std::vector<std::string>>
// makes that hot path pay a hash-node allocation, a key copy and a
// small-string append per MPI_D_Send. This table replaces it with the
// cache-conscious layout production shuffle engines use:
//
//   * an open-addressing slot array (linear probing) of packed 32-bit
//     words — entry index plus a fingerprint byte — so a probe touches a
//     single contiguous array and compares keys only on a fingerprint hit;
//   * a dense entry array in first-insertion order (the slot array stores
//     entry indices), which makes iteration a linear scan and growth a
//     control-array rebuild — entries never move;
//   * keys interned into a bump-pointer arena (chunked, stable addresses);
//   * per-key value lists as chains of fixed-size blocks slab-allocated
//     from a second arena, values serialized varint-length-prefixed —
//     exactly the byte layout KvListWriter ships, so a spill streams
//     values from the slab into the frame without re-encoding.
//
// recycle() drains everything back to empty while keeping every arena
// chunk and the slot array, so the steady state of map → spill → map does
// zero allocations per pair. Incremental combining (collect / replace)
// rewrites one key's chain in place, returning displaced blocks to an
// internal free list.
//
// Iteration is deterministic: first-insertion order, or sorted by key on
// demand (for_each(sorted=true)) to feed Hadoop-style sorted spills. The
// sort never compares through the entry array: one sequential pass packs
// each entry's first 8 key bytes (big-endian, zero-padded) with its index,
// an LSD radix sort orders those pairs by prefix (skipping byte positions
// every key shares), and only runs of equal prefixes fall back to a full
// key compare. The drain then prefetches the entry, key and first value
// block a few positions ahead of the visit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mpid::common {

class KvListWriter;

/// A chunked bump-pointer allocator with stable addresses. recycle()
/// rewinds to the first chunk without freeing, so steady-state allocation
/// is a pointer bump.
class BumpArena {
 public:
  explicit BumpArena(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;
  BumpArena(BumpArena&&) = default;
  BumpArena& operator=(BumpArena&&) = default;

  /// Returns `n` bytes aligned to `align` (a power of two). Oversize
  /// requests get a dedicated chunk.
  std::byte* allocate(std::size_t n, std::size_t align);

  /// Rewinds every chunk to empty; keeps all allocations.
  void recycle() noexcept {
    current_ = 0;
    offset_ = 0;
    used_ = 0;
  }

  /// Bytes handed out since construction or the last recycle().
  std::size_t bytes_used() const noexcept { return used_; }

  /// Total bytes owned by the arena (capacity across all chunks).
  std::size_t bytes_reserved() const noexcept { return reserved_; }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index of the chunk being bumped
  std::size_t offset_ = 0;   // bump offset within chunks_[current_]
  std::size_t used_ = 0;
  std::size_t reserved_ = 0;
};

class KvCombineTable {
 public:
  struct Options {
    /// Initial slot count; rounded up to a power of two.
    std::size_t initial_slots = 1024;
    /// Chunk size of the key-interning arena.
    std::size_t key_arena_chunk_bytes = 64 * 1024;
    /// Payload size of a chain's first value-slab block. Blocks double
    /// from here up to value_block_bytes, so the skewed tail of keys with
    /// one or two short values costs ~a cache line of slab, not a full
    /// block — the slab footprint tracks the data, and a spill's
    /// insertion-order drain walks the arena near-sequentially.
    std::size_t value_block_first_bytes = 32;
    /// Payload size cap of one value-slab block. A value longer than
    /// this gets a dedicated block; short values pack many per block.
    std::size_t value_block_bytes = 1024;
    /// Chunk size of the value-slab arena.
    std::size_t slab_chunk_bytes = 64 * 1024;
  };

  struct Counters {
    std::uint64_t rehashes = 0;       // slot-array growth events
    std::uint64_t block_reuses = 0;   // slab blocks served from the free list
    std::uint64_t recycles = 0;       // recycle() calls
  };

  KvCombineTable() : KvCombineTable(Options()) {}
  explicit KvCombineTable(Options options);

  KvCombineTable(const KvCombineTable&) = delete;
  KvCombineTable& operator=(const KvCombineTable&) = delete;

  /// Streams one entry's values back out of its slab chain, in append
  /// order. Views alias the slab and stay valid until replace()/recycle().
  class ValueCursor {
   public:
    std::optional<std::string_view> next();

    /// Streams every remaining value into `out`'s open group as raw
    /// encoded bytes — the slabs hold the writer's exact wire format, so
    /// this is a block memcpy per chain link, no per-value decode or
    /// re-encode. The caller's begin_group must have declared at least
    /// the remaining count. Consumes the cursor.
    void drain_to(KvListWriter& out);

   private:
    friend class KvCombineTable;
    const std::byte* block_ = nullptr;  // current block header
    std::size_t offset_ = 0;            // payload offset within the block
    std::size_t remaining_ = 0;         // values left across the chain
  };

  /// One entry as seen by for_each: the interned key, the value count
  /// (known up front — KvListWriter::begin_group needs it), the exact
  /// serialized size of the (key, value-list) group, and a value cursor.
  struct EntryView {
    std::string_view key;
    /// The cached fnv1a64(key) — the same hash hash_partition() computes,
    /// so a spill can pick the partition without rehashing the key.
    std::uint64_t key_hash = 0;
    std::size_t value_count = 0;
    /// Exact bytes this entry serializes to as a KvListWriter group.
    std::size_t frame_bytes = 0;
    ValueCursor values;
  };

  /// Appends `value` under `key`, interning the key on first sight.
  /// Returns the entry's value count after the append (the incremental-
  /// combine trigger).
  std::size_t append(std::string_view key, std::string_view value);

  /// The dense index of the entry the last append() touched. With
  /// entry_at()/replace_at() an incremental combine right after an append
  /// reuses the probe that append already paid for instead of re-hashing
  /// the key twice more.
  std::uint32_t last_index() const noexcept { return last_index_; }

  /// The entry at a dense index in [0, size()), in first-insertion order.
  EntryView entry_at(std::uint32_t index) const noexcept {
    return view_of(index);
  }

  /// Copies one entry's values into `out` (appended; caller clears).
  /// Returns false if the key is absent.
  bool collect(std::string_view key, std::vector<std::string>& out) const;

  /// Replaces one entry's value list in place (the combiner's output),
  /// releasing the old chain's blocks to the free list. The key must be
  /// present.
  void replace(std::string_view key, std::span<const std::string> values);

  /// As replace(), but addressed by dense index — no probe.
  void replace_at(std::uint32_t index, std::span<const std::string> values);

  /// Looks one entry up without touching it.
  std::optional<EntryView> find(std::string_view key) const;

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }

  /// Spill-threshold accounting: interned key bytes + encoded value bytes
  /// + per-entry bookkeeping. Monotone under append; shrinks on replace.
  std::size_t bytes_used() const noexcept { return bytes_used_; }

  /// High-water mark of bytes_used() since construction (not reset by
  /// recycle — it sizes frame reservations across spill rounds).
  std::size_t bytes_peak() const noexcept { return bytes_peak_; }

  /// Largest frame_bytes among the current entries: the exact worst-case
  /// overshoot of a partition frame past its flush threshold, so frames
  /// reserved at target + max_entry_frame_bytes() never reallocate
  /// mid-spill. One O(entries) scan at the spill boundary — cheaper than
  /// bookkeeping on every append, and it warms the entry array the drain
  /// is about to walk.
  std::size_t max_entry_frame_bytes() const noexcept;

  /// Visits every entry: first-insertion order, or sorted by key when
  /// `sorted` — unsigned byte-wise, a key before every key it prefixes
  /// (std::string_view order). Sorting orders (prefix, index) pairs;
  /// entries themselves never move. The sorted visit prefetches the
  /// entry kPrefetchAhead * 2 positions ahead, then its key and first
  /// value block kPrefetchAhead ahead, so the random-order walk does not
  /// stall on them. `fn` receives an EntryView by value.
  template <typename Fn>
  void for_each(bool sorted, Fn&& fn) const {
    if (!sorted) {
      for (std::uint32_t i = 0; i < entries_.size(); ++i) fn(view_of(i));
      return;
    }
    const auto order = sort_by_key();
    const std::size_t n = order.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (k + 2 * kPrefetchAhead < n) {
        __builtin_prefetch(&entries_[order[k + 2 * kPrefetchAhead].index]);
      }
      if (k + kPrefetchAhead < n) {
        const Entry& ahead = entries_[order[k + kPrefetchAhead].index];
        __builtin_prefetch(ahead.key);
        __builtin_prefetch(ahead.head);
      }
      fn(view_of(order[k].index));
    }
  }

  /// Drains the table back to empty without freeing: slots are cleared,
  /// both arenas rewind, the block free list resets. All EntryViews and
  /// interned keys are invalidated.
  void recycle() noexcept;

  const Counters& counters() const noexcept { return counters_; }

 private:
  /// Slab block header; `cap` payload bytes follow in the same arena
  /// allocation. Chains are singly linked in append order.
  struct Block {
    Block* next = nullptr;
    std::uint32_t used = 0;
    std::uint32_t cap = 0;
  };

  struct Entry {
    const char* key = nullptr;  // interned; stable until recycle()
    std::uint32_t key_len = 0;
    std::uint32_t value_count = 0;
    std::uint64_t hash = 0;          // cached for rehash
    std::size_t encoded_bytes = 0;   // varint+payload bytes across the chain
    Block* head = nullptr;
    Block* tail = nullptr;
  };

  static std::byte* payload(Block* b) noexcept {
    return reinterpret_cast<std::byte*>(b + 1);
  }
  static const std::byte* payload(const Block* b) noexcept {
    return reinterpret_cast<const std::byte*>(b + 1);
  }

  std::uint8_t fingerprint(std::uint64_t hash) const noexcept {
    // Top bits (the mask consumes the low ones); never 0 = empty.
    return static_cast<std::uint8_t>((hash >> 57) | 0x80);
  }

  /// One slot word: entry index in the high 24 bits, fingerprint in the
  /// low 8. The fingerprint's set high bit makes 0 mean "empty", and the
  /// packing keeps a probe inside a single cache line instead of touching
  /// a control array and an index array separately.
  static std::uint32_t pack_slot(std::uint32_t entry,
                                 std::uint8_t fp) noexcept {
    return (entry << 8) | fp;
  }
  static std::uint32_t slot_entry(std::uint32_t slot) noexcept {
    return slot >> 8;
  }
  static std::uint8_t slot_fp(std::uint32_t slot) noexcept {
    return static_cast<std::uint8_t>(slot);
  }

  /// Probes for `key`; returns the entry index or UINT32_MAX, leaving the
  /// slot index of the miss in `slot` for the subsequent insert.
  std::uint32_t probe(std::string_view key, std::uint64_t hash,
                      std::size_t& slot) const noexcept;

  Block* allocate_block(std::size_t min_payload, std::size_t target_payload);
  void release_chain(Entry& e) noexcept;
  void append_encoded(Entry& e, std::string_view value);
  void grow();
  EntryView view_of(std::uint32_t index) const noexcept;
  /// One entry of the sort: the key's first 8 bytes, big-endian and
  /// zero-padded (so integer order is byte order), and its entry index.
  struct SortSlot {
    std::uint64_t prefix = 0;
    std::uint32_t index = 0;
  };
  static constexpr std::size_t kPrefetchAhead = 4;

  /// Every entry, ascending by key.
  std::vector<SortSlot> sort_by_key() const;
  static std::size_t group_frame_bytes(const Entry& e) noexcept;

  Options options_;
  std::vector<std::uint32_t> slots_;  // packed (entry, fp); 0 = empty
  std::vector<Entry> entries_;        // dense, first-insertion order
  std::size_t slot_mask_ = 0;
  BumpArena key_arena_;
  BumpArena slab_arena_;
  Block* free_blocks_ = nullptr;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_peak_ = 0;
  std::uint32_t last_index_ = 0;
  Counters counters_;
};

}  // namespace mpid::common
