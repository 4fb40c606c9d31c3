#include "verify.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "mpid/mapred/input.hpp"

namespace jobbench {

namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_bytes(std::string_view bytes, std::uint64_t h) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix(h);
}

std::uint64_t hash_pair(std::string_view key, std::string_view value,
                        std::uint64_t seed) noexcept {
  // The key's hash seeds the value's, so ("ab", "c") != ("a", "bc").
  return hash_bytes(value, hash_bytes(key, seed) ^ key.size());
}

std::string show(const KvPair& pair) {
  return "(" + pair.first + ", " + pair.second.substr(0, 32) + ")";
}

}  // namespace

void PairDigest::add(std::string_view key, std::string_view value) noexcept {
  ++count_;
  sum_a_ += hash_pair(key, value, 0xcbf29ce484222325ULL);
  sum_b_ += hash_pair(key, value, 0x9e3779b97f4a7c15ULL);
}

std::string scan_part(
    std::string_view body, bool require_key_order,
    const std::function<void(std::string_view, std::string_view)>& fn) {
  mpid::mapred::LineReader lines(body);
  std::string_view previous;
  bool first = true;
  while (const auto line = lines.next()) {
    const auto tab = line->find('\t');
    if (tab == std::string_view::npos) {
      return "part line without a tab: " + std::string(line->substr(0, 40));
    }
    const auto key = line->substr(0, tab);
    if (require_key_order && !first && key < previous) {
      return "part file out of key order at " + std::string(key);
    }
    previous = key;
    first = false;
    fn(key, line->substr(tab + 1));
  }
  return {};
}

std::string diff_pairs(const KvVec& got, const KvVec& want) {
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  if (g == got.end() && w == want.end()) return {};
  if (g == got.end()) return "missing " + show(*w);
  if (w == want.end()) return "extra " + show(*g);
  return "got " + show(*g) + ", want " + show(*w);
}

std::string diff_digest(const PairDigest& got, const PairDigest& want) {
  if (got == want) return {};
  if (got.count() != want.count()) {
    return "pair count " + std::to_string(got.count()) + ", want " +
           std::to_string(want.count());
  }
  return "pair contents differ (same count " + std::to_string(got.count()) +
         ")";
}

std::pair<std::string_view, std::string_view> split_record(
    std::string_view record) {
  constexpr std::size_t kKeyBytes = 10;
  if (record.size() <= kKeyBytes) return {record, {}};
  return {record.substr(0, kKeyBytes), record.substr(kKeyBytes + 1)};
}

KvVec wordcount_reference(std::string_view text) {
  std::map<std::string, std::uint64_t, std::less<>> counts;
  mpid::mapred::LineReader lines(text);
  while (const auto line = lines.next()) {
    for_each_word(*line, [&](std::string_view word) {
      auto it = counts.find(word);
      if (it == counts.end()) it = counts.emplace(std::string(word), 0).first;
      ++it->second;
    });
  }
  KvVec out;
  out.reserve(counts.size());
  for (const auto& [word, n] : counts) out.emplace_back(word, std::to_string(n));
  return out;
}

PairDigest sort_reference(std::string_view records) {
  PairDigest digest;
  mpid::mapred::LineReader lines(records);
  while (const auto line = lines.next()) {
    if (line->empty()) continue;
    const auto [key, rest] = split_record(*line);
    digest.add(key, rest);
  }
  return digest;
}

int cc_reference_rounds(std::string_view edge_text) {
  // Vertex names are fixed width, so string order is label order.
  std::unordered_map<std::string, int> ids;
  std::vector<std::string> labels;
  std::vector<std::pair<int, int>> edges;
  auto id_of = [&](std::string_view name) {
    const auto [it, fresh] =
        ids.emplace(std::string(name), static_cast<int>(labels.size()));
    if (fresh) labels.emplace_back(name);
    return it->second;
  };
  mpid::mapred::LineReader lines(edge_text);
  while (const auto line = lines.next()) {
    const auto a = line->find(' ');
    if (a == std::string_view::npos) continue;
    const auto b = line->find(' ', a + 1);
    const int u = id_of(line->substr(0, a));
    const int v = id_of(line->substr(a + 1, b - a - 1));
    edges.emplace_back(u, v);
  }
  // Synchronous min-label rounds: every vertex adopts the least label
  // among itself and its neighbours; the chain stops after the first
  // round that changes nothing (64 is cc_job's round budget).
  constexpr int kMaxRounds = 64;
  int rounds = 0;
  while (rounds < kMaxRounds) {
    ++rounds;
    std::vector<std::string> next = labels;
    for (const auto& [u, v] : edges) {
      if (labels[v] < next[u]) next[u] = labels[v];
      if (labels[u] < next[v]) next[v] = labels[u];
    }
    const bool changed = next != labels;
    labels = std::move(next);
    if (!changed) break;
  }
  return rounds;
}

}  // namespace jobbench
