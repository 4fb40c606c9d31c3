#include "phases.hpp"

#include <stdexcept>
#include <string>

namespace jobbench {

namespace {

/// b - a, refusing a missing mark or a negative span.
std::int64_t span(std::int64_t a, std::int64_t b, std::size_t round,
                  const char* what) {
  const std::string where =
      "round " + std::to_string(round + 1) + ": " + what;
  if (a == kNoMark || b == kNoMark) {
    throw std::runtime_error(where + " has a missing boundary");
  }
  if (b < a) {
    throw std::runtime_error(where + " is negative (" +
                             std::to_string(b - a) + " ns)");
  }
  return b - a;
}

}  // namespace

Phases cut_phases(const std::vector<RoundMarks>& rounds,
                  std::int64_t wall_ns) {
  if (rounds.empty()) throw std::runtime_error("job ran no rounds");
  Phases p;
  p.wall_ns = wall_ns;
  p.startup_ns = span(0, rounds.front().first_map, 0, "startup");
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundMarks& m = rounds[r];
    if (r > 0) {
      p.barrier_ns +=
          span(rounds[r - 1].last_reduce, m.first_map, r, "round barrier");
    }
    p.map_ns += span(m.first_map, m.last_map, r, "map phase");
    p.shuffle_tail_ns += span(m.last_map, m.first_reduce, r, "shuffle tail");
    p.reduce_ns += span(m.first_reduce, m.last_reduce, r, "reduce phase");
    p.round_ns.push_back(m.last_reduce - m.first_map);
  }
  p.teardown_ns =
      span(rounds.back().last_reduce, wall_ns, rounds.size() - 1, "teardown");
  return p;
}

}  // namespace jobbench
