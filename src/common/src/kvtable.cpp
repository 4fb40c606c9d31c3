#include "mpid/common/kvtable.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvframe.hpp"

namespace mpid::common {

namespace {

constexpr std::uint32_t kNoEntry = std::numeric_limits<std::uint32_t>::max();

/// Per-entry bookkeeping charged against the spill threshold on top of the
/// raw key/value bytes: the Entry record plus roughly one slot.
constexpr std::size_t kEntryOverhead = sizeof(std::uint64_t) * 8;

std::size_t varint_len(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Encodes a LEB128 varint at `out`; returns the bytes written. The caller
/// guarantees capacity (10 bytes suffice for any u64).
std::size_t encode_varint(std::byte* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<std::byte>(v);
  return n;
}

/// The first 8 bytes of `key` as a big-endian integer, zero-padded, so
/// integer order is unsigned byte order.
std::uint64_t key_prefix(const char* key, std::uint32_t len) noexcept {
  std::uint64_t word = 0;
  if (len >= sizeof(word)) {
    std::memcpy(&word, key, sizeof(word));
  } else {
    std::memcpy(&word, key, len);
  }
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Sorts `slots` by their 64-bit `prefix`: LSD radix, one byte per pass,
/// least significant first. Each pass is stable, so it keeps the order
/// the earlier passes made.
template <typename Slot>
void radix_sort_by_prefix(std::vector<Slot>& slots) {
  const std::size_t n = slots.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const auto& s : slots) {
    for (unsigned b = 0; b < 8; ++b) ++counts[b][(s.prefix >> (8 * b)) & 0xff];
  }
  std::vector<Slot> scratch(n);
  Slot* src = slots.data();
  Slot* dst = scratch.data();
  for (unsigned b = 0; b < 8; ++b) {
    const unsigned shift = 8 * b;
    auto& count = counts[b];
    // Every key has the same byte here (short keys' zero padding, or a
    // shared leading byte), so the pass would move nothing.
    if (count[(src[0].prefix >> shift) & 0xff] == n) continue;
    std::uint32_t offset = 0;
    for (auto& c : count) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(src[i].prefix >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != slots.data()) slots.swap(scratch);
}

}  // namespace

// ------------------------------------------------------------- BumpArena --

std::byte* BumpArena::allocate(std::size_t n, std::size_t align) {
  for (;;) {
    if (current_ < chunks_.size()) {
      auto& chunk = chunks_[current_];
      const std::size_t aligned =
          (offset_ + align - 1) & ~(align - 1);
      if (aligned + n <= chunk.size) {
        offset_ = aligned + n;
        used_ += n;
        return chunk.mem.get() + aligned;
      }
      // This chunk is spent (or too small for an oversize request after a
      // recycle); move on. The skipped tail is reclaimed at the next
      // recycle, not leaked.
      ++current_;
      offset_ = 0;
      continue;
    }
    const std::size_t size = std::max(chunk_bytes_, n + align);
    chunks_.push_back({std::make_unique<std::byte[]>(size), size});
    reserved_ += size;
  }
}

// ------------------------------------------------------- KvCombineTable --

KvCombineTable::KvCombineTable(Options options)
    : options_(options),
      key_arena_(options.key_arena_chunk_bytes),
      slab_arena_(options.slab_chunk_bytes) {
  const std::size_t slots =
      std::bit_ceil(std::max<std::size_t>(options_.initial_slots, 8));
  slots_.assign(slots, 0);
  slot_mask_ = slots - 1;
}

std::uint32_t KvCombineTable::probe(std::string_view key, std::uint64_t hash,
                                    std::size_t& slot) const noexcept {
  const std::uint8_t fp = fingerprint(hash);
  std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
  for (;;) {
    const std::uint32_t s = slots_[i];
    if (s == 0) {
      slot = i;
      return kNoEntry;
    }
    if (slot_fp(s) == fp) {
      const std::uint32_t e = slot_entry(s);
      const Entry& entry = entries_[e];
      // The cached full hash screens out fingerprint collisions before
      // the memcmp touches the interned key's cache line.
      if (entry.hash == hash && entry.key_len == key.size() &&
          std::memcmp(entry.key, key.data(), key.size()) == 0) {
        slot = i;
        return e;
      }
    }
    i = (i + 1) & slot_mask_;
  }
}

void KvCombineTable::grow() {
  const std::size_t slots = (slot_mask_ + 1) * 2;
  slots_.assign(slots, 0);
  slot_mask_ = slots - 1;
  for (std::uint32_t e = 0; e < entries_.size(); ++e) {
    const std::uint64_t hash = entries_[e].hash;
    std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
    slots_[i] = pack_slot(e, fingerprint(hash));
  }
  ++counters_.rehashes;
}

KvCombineTable::Block* KvCombineTable::allocate_block(
    std::size_t min_payload, std::size_t target_payload) {
  const std::size_t want = std::max(
      min_payload, std::min(target_payload, options_.value_block_bytes));
  if (free_blocks_ != nullptr && free_blocks_->cap >= want) {
    Block* b = free_blocks_;
    free_blocks_ = b->next;
    b->next = nullptr;
    b->used = 0;
    ++counters_.block_reuses;
    return b;
  }
  auto* mem = slab_arena_.allocate(sizeof(Block) + want, alignof(Block));
  auto* b = new (mem) Block;
  b->cap = static_cast<std::uint32_t>(want);
  return b;
}

void KvCombineTable::release_chain(Entry& e) noexcept {
  // Prepend the whole chain to the free list, preserving relative order.
  if (e.head == nullptr) return;
  e.tail->next = free_blocks_;
  free_blocks_ = e.head;
  e.head = nullptr;
  e.tail = nullptr;
}

void KvCombineTable::append_encoded(Entry& e, std::string_view value) {
  const std::size_t need = varint_len(value.size()) + value.size();
  Block* tail = e.tail;
  if (tail == nullptr || tail->cap - tail->used < need) {
    // Chains grow geometrically: a first block sized for a handful of
    // short values, doubling toward the cap as the chain proves hot.
    const std::size_t target =
        tail == nullptr ? options_.value_block_first_bytes
                        : static_cast<std::size_t>(tail->cap) * 2;
    Block* b = allocate_block(need, target);
    if (tail == nullptr) {
      e.head = b;
    } else {
      tail->next = b;
    }
    e.tail = b;
    tail = b;
  }
  std::byte* out = payload(tail) + tail->used;
  std::size_t n = encode_varint(out, value.size());
  std::memcpy(out + n, value.data(), value.size());
  tail->used += static_cast<std::uint32_t>(need);
  ++e.value_count;
  e.encoded_bytes += need;
  bytes_used_ += need;
}

std::size_t KvCombineTable::group_frame_bytes(const Entry& e) noexcept {
  return varint_len(e.key_len) + e.key_len + varint_len(e.value_count) +
         e.encoded_bytes;
}

std::size_t KvCombineTable::append(std::string_view key,
                                   std::string_view value) {
  // Grow at 3/4 occupancy, before the probe, so the insert slot is valid
  // and probe runs stay short.
  if ((entries_.size() + 1) * 4 > (slot_mask_ + 1) * 3) grow();
  const std::uint64_t hash = fnv1a64(key);
  std::size_t slot = 0;
  std::uint32_t e = probe(key, hash, slot);
  if (e == kNoEntry) {
    e = static_cast<std::uint32_t>(entries_.size());
    if (e >= (1u << 24)) {
      // The packed slot word carries a 24-bit entry index; a combine
      // buffer approaching 16M distinct keys has long overshot any sane
      // spill threshold.
      throw std::length_error("KvCombineTable: entry limit exceeded");
    }
    Entry entry;
    auto* interned = key_arena_.allocate(std::max<std::size_t>(key.size(), 1),
                                         alignof(char));
    std::memcpy(interned, key.data(), key.size());
    entry.key = reinterpret_cast<const char*>(interned);
    entry.key_len = static_cast<std::uint32_t>(key.size());
    entry.hash = hash;
    entries_.push_back(entry);
    slots_[slot] = pack_slot(e, fingerprint(hash));
    bytes_used_ += key.size() + kEntryOverhead;
  }
  Entry& entry = entries_[e];
  append_encoded(entry, value);
  bytes_peak_ = std::max(bytes_peak_, bytes_used_);
  last_index_ = e;
  return entry.value_count;
}

std::size_t KvCombineTable::max_entry_frame_bytes() const noexcept {
  std::size_t max_bytes = 0;
  for (const auto& e : entries_) {
    max_bytes = std::max(max_bytes, group_frame_bytes(e));
  }
  return max_bytes;
}

std::optional<std::string_view> KvCombineTable::ValueCursor::next() {
  if (remaining_ == 0) return std::nullopt;
  const auto* b = reinterpret_cast<const Block*>(block_);
  if (offset_ == b->used) {
    b = b->next;
    block_ = reinterpret_cast<const std::byte*>(b);
    offset_ = 0;
  }
  // Tight LEB128 decode: the table wrote this encoding itself, so the
  // bounds-checked get_varint path is unnecessary on the read side. The
  // common case (length < 128) never enters the loop.
  const std::byte* base = payload(b);
  const std::byte* p = base + offset_;
  std::uint64_t len = static_cast<std::uint8_t>(*p++);
  if (len >= 0x80) {
    len &= 0x7f;
    int shift = 7;
    for (;;) {
      const std::uint64_t byte = static_cast<std::uint8_t>(*p++);
      len |= (byte & 0x7f) << shift;
      if (byte < 0x80) break;
      shift += 7;
    }
  }
  const auto* begin = reinterpret_cast<const char*>(p);
  offset_ = static_cast<std::size_t>(p - base) + static_cast<std::size_t>(len);
  --remaining_;
  return std::string_view(begin, static_cast<std::size_t>(len));
}

void KvCombineTable::ValueCursor::drain_to(KvListWriter& out) {
  const auto* b = reinterpret_cast<const Block*>(block_);
  std::size_t off = offset_;
  while (remaining_ > 0) {
    if (off == b->used) {
      b = b->next;
      off = 0;
      continue;
    }
    const bool last = b->next == nullptr;
    out.add_encoded_values(
        std::span(payload(b) + off, b->used - off),
        last ? remaining_ : 0);
    if (last) {
      remaining_ = 0;
      off = b->used;
      break;
    }
    b = b->next;
    off = 0;
  }
  block_ = reinterpret_cast<const std::byte*>(b);
  offset_ = off;
}

KvCombineTable::EntryView KvCombineTable::view_of(
    std::uint32_t index) const noexcept {
  const Entry& e = entries_[index];
  EntryView view;
  view.key = std::string_view(e.key, e.key_len);
  view.key_hash = e.hash;
  view.value_count = e.value_count;
  view.frame_bytes = group_frame_bytes(e);
  view.values.block_ = reinterpret_cast<const std::byte*>(e.head);
  view.values.offset_ = 0;
  view.values.remaining_ = e.value_count;
  return view;
}

std::optional<KvCombineTable::EntryView> KvCombineTable::find(
    std::string_view key) const {
  std::size_t slot = 0;
  const std::uint32_t e = probe(key, fnv1a64(key), slot);
  if (e == kNoEntry) return std::nullopt;
  return view_of(e);
}

bool KvCombineTable::collect(std::string_view key,
                             std::vector<std::string>& out) const {
  auto entry = find(key);
  if (!entry) return false;
  while (auto v = entry->values.next()) out.emplace_back(*v);
  return true;
}

void KvCombineTable::replace(std::string_view key,
                             std::span<const std::string> values) {
  std::size_t slot = 0;
  const std::uint32_t idx = probe(key, fnv1a64(key), slot);
  if (idx == kNoEntry) {
    throw std::logic_error("KvCombineTable: replace of an absent key");
  }
  replace_at(idx, values);
}

void KvCombineTable::replace_at(std::uint32_t index,
                                std::span<const std::string> values) {
  Entry& e = entries_[index];
  release_chain(e);
  bytes_used_ -= e.encoded_bytes;
  e.encoded_bytes = 0;
  e.value_count = 0;
  for (const auto& v : values) append_encoded(e, v);
  bytes_peak_ = std::max(bytes_peak_, bytes_used_);
}

std::vector<KvCombineTable::SortSlot> KvCombineTable::sort_by_key() const {
  const std::size_t n = entries_.size();
  std::vector<SortSlot> order(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    order[i] = {key_prefix(entries_[i].key, entries_[i].key_len), i};
  }
  radix_sort_by_prefix(order);
  // Tie pass: only keys sharing all 8 prefix bytes (or a short key and
  // its zero-extended twins, "ab" vs "ab\0") need the full compare.
  const auto key_less = [this](const SortSlot& a, const SortSlot& b) {
    const Entry& x = entries_[a.index];
    const Entry& y = entries_[b.index];
    return std::string_view(x.key, x.key_len) <
           std::string_view(y.key, y.key_len);
  };
  for (std::size_t lo = 0; lo < n;) {
    std::size_t hi = lo + 1;
    while (hi < n && order[hi].prefix == order[lo].prefix) ++hi;
    if (hi - lo > 1) {
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(lo),
                order.begin() + static_cast<std::ptrdiff_t>(hi), key_less);
    }
    lo = hi;
  }
  return order;
}

void KvCombineTable::recycle() noexcept {
  entries_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  key_arena_.recycle();
  slab_arena_.recycle();
  free_blocks_ = nullptr;  // block memory lives in the slab arena
  bytes_used_ = 0;
  ++counters_.recycles;
}

}  // namespace mpid::common
