// Phase arithmetic: a job's wall time cut at the timestamps of its own
// map() and reduce() callbacks.
//
//   run() ─ startup ─ first map ─ map phase ─ last map ─ shuffle tail ─
//   first reduce ─ reduce phase ─ last reduce ─ [round barrier ─ next
//   round's first map ...] ─ teardown ─ run() returns
//
// Every cut is a callback timestamp, so the phases telescope: their sum
// is the wall time exactly, and a phase can only be negative when the
// boundaries are out of order.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace jobbench {

inline constexpr std::int64_t kNoMark = std::numeric_limits<std::int64_t>::min();

/// Callback boundaries of one round, in ns since the job's run() call.
/// kNoMark means no callback of that kind ran.
struct RoundMarks {
  std::int64_t first_map = kNoMark;
  std::int64_t last_map = kNoMark;
  std::int64_t first_reduce = kNoMark;
  std::int64_t last_reduce = kNoMark;
};

struct Phases {
  std::int64_t startup_ns = 0;       // run() -> first map() of round 1
  std::int64_t map_ns = 0;           // first -> last map(), summed
  std::int64_t shuffle_tail_ns = 0;  // last map() -> first reduce(), summed
  std::int64_t reduce_ns = 0;        // first -> last reduce(), summed
  std::int64_t barrier_ns = 0;       // last reduce() -> next first map()
  std::int64_t teardown_ns = 0;      // last reduce() -> run() returns
  std::int64_t wall_ns = 0;
  std::vector<std::int64_t> round_ns;  // first map() -> last reduce()

  std::int64_t sum() const noexcept {
    return startup_ns + map_ns + shuffle_tail_ns + reduce_ns + barrier_ns +
           teardown_ns;
  }
};

/// Cuts `wall_ns` at the rounds' marks. Throws std::runtime_error naming
/// the round and boundary when a mark is missing or a phase would be
/// negative.
Phases cut_phases(const std::vector<RoundMarks>& rounds, std::int64_t wall_ns);

}  // namespace jobbench
