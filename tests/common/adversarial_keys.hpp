// Seeded key sets built to break a key sort that works on fixed-width
// key prefixes: long shared stems, keys that differ only after byte 8,
// keys that are zero-extensions of other keys ("ab", "ab\0", "ab\0\0"),
// embedded NULs, bytes 0x80-0xFF (where signed and unsigned char order
// disagree) and the empty key. Shared by the KvCombineTable and
// MapOutputBuffer sort-order tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/prng.hpp"

namespace mpid::test {

/// `n` distinct keys from `seed`, in a seeded random order. From 13 keys
/// up, the set holds every fixed special case (the empty key, "ab" and its
/// zero-extensions, 0x7F/0x80/0xFF, keys around an 8-byte boundary);
/// smaller sets are drawn from the specials and random keys alike.
inline std::vector<std::string> adversarial_keys(std::size_t n,
                                                 std::uint64_t seed) {
  using std::string_literals::operator""s;
  common::Xoshiro256StarStar rng(seed);
  const auto shuffle = [&](auto first, auto last) {
    for (auto n_left = last - first; n_left > 1; --n_left) {
      std::swap(first[n_left - 1],
                first[static_cast<std::ptrdiff_t>(rng.next_below(
                    static_cast<std::uint64_t>(n_left)))]);
    }
  };
  // A small alphabet makes shared prefixes and near-duplicates common.
  const std::string alphabet = "\x00\x01" "ab\x7f\x80\xfe\xff"s;
  const auto random_bytes = [&](std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    return s;
  };
  const std::vector<std::string> stems = {
      "abcdefgh"s, "\xff\xff\xff\xff\xff\xff\xff\xff"s,
      "\x80\x00\x80\x00\x80\x00\x80\x00"s, "\x00\x00\x00\x00\x00\x00\x00"s};

  std::vector<std::string> pool = {
      ""s, "\x00"s, "ab"s, "ab\x00"s, "ab\x00\x00"s, "\x7f"s, "\x80"s,
      "\xff"s, "abcdefgh"s, "abcdefgh\x00"s, "abcdefghi"s,
      "abcdefg\x80"s, "abcdefg\x7f"s};
  const std::size_t specials = pool.size();
  std::set<std::string> seen(pool.begin(), pool.end());
  while (pool.size() < n + 16) {
    std::string key;
    switch (rng.next_below(4)) {
      case 0:  // short random key: padding and signedness in the prefix
        key = random_bytes(rng.next_below(9));
        break;
      case 1:  // a shared 8-byte stem: the order lives past the prefix
        key = stems[rng.next_below(stems.size())] +
              random_bytes(rng.next_below(6));
        break;
      case 2:  // a zero-extension of an earlier key
        key = pool[rng.next_below(pool.size())] +
              std::string(1 + rng.next_below(3), '\0');
        break;
      default:  // a long random key
        key = random_bytes(8 + rng.next_below(16));
        break;
    }
    if (seen.insert(key).second) pool.push_back(std::move(key));
  }
  shuffle(pool.begin() + (n >= specials ? specials : 0), pool.end());
  pool.resize(n);
  shuffle(pool.begin(), pool.end());
  return pool;
}

}  // namespace mpid::test
