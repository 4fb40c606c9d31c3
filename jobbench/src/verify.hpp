// Serial references built during set-up, and the checks every timed
// job's output must pass against them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jobbench {

using KvPair = std::pair<std::string, std::string>;
using KvVec = std::vector<KvPair>;

/// Order-independent digest of a pair multiset: the pair count plus two
/// independent 64-bit hash sums. A dropped or duplicated pair changes the
/// count; an altered one changes both sums.
class PairDigest {
 public:
  void add(std::string_view key, std::string_view value) noexcept;
  std::uint64_t count() const noexcept { return count_; }
  bool operator==(const PairDigest&) const = default;

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_a_ = 0;
  std::uint64_t sum_b_ = 0;
};

/// Calls `fn` on every "key\tvalue" line of a part file. Returns a
/// reason when a line has no tab or, with `require_key_order`, when a key
/// sorts before its predecessor; empty when the body is well formed.
std::string scan_part(
    std::string_view body, bool require_key_order,
    const std::function<void(std::string_view, std::string_view)>& fn);

/// Empty when `got` equals `want`; otherwise the first difference.
std::string diff_pairs(const KvVec& got, const KvVec& want);
/// Empty when the digests agree; otherwise which part differs.
std::string diff_digest(const PairDigest& got, const PairDigest& want);

/// Calls `fn` on each space-separated word of `line` (the WordCount map's
/// tokenizer, shared with its reference).
template <typename Fn>
void for_each_word(std::string_view line, Fn&& fn) {
  std::size_t start = 0;
  while (start < line.size()) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) fn(line.substr(start, end - start));
    start = end + 1;
  }
}

/// A sort record's 10-byte key and the rest after the separator tab.
std::pair<std::string_view, std::string_view> split_record(
    std::string_view record);

/// WordCount: (word, decimal count) for every word of `text`, sorted.
KvVec wordcount_reference(std::string_view text);

/// Sort: digest of the (key, rest) pairs the identity sort must output.
PairDigest sort_reference(std::string_view records);

/// Connected components: rounds the label-propagation chain runs,
/// counting the final round in which no label changes.
int cc_reference_rounds(std::string_view edge_text);

}  // namespace jobbench
