#include "mpid/shuffle/options.hpp"

#include <unistd.h>

#include <stdexcept>
#include <string>

#include <sys/stat.h>

namespace mpid::shuffle {

void ShuffleOptions::validate() const {
  if (spill_threshold_bytes == 0) {
    throw std::invalid_argument(
        "ShuffleOptions: spill_threshold_bytes must be > 0 (a zero "
        "threshold would spill on every pair)");
  }
  if (partition_frame_bytes == 0) {
    throw std::invalid_argument(
        "ShuffleOptions: partition_frame_bytes must be > 0 (frames could "
        "never accumulate a pair)");
  }
  if (shuffle_compression == ShuffleCompression::kAuto) {
    if (compress_min_frame_bytes > partition_frame_bytes) {
      throw std::invalid_argument(
          "ShuffleOptions: compress_min_frame_bytes (" +
          std::to_string(compress_min_frame_bytes) +
          ") exceeds partition_frame_bytes (" +
          std::to_string(partition_frame_bytes) +
          "): auto compression could never trigger — lower the minimum or "
          "use kOn/kOff explicitly");
    }
    if (compress_skip_ratio <= 0.0) {
      throw std::invalid_argument(
          "ShuffleOptions: compress_skip_ratio must be positive (every "
          "frame would count as a poor sample)");
    }
    if (compress_skip_after == 0) {
      throw std::invalid_argument(
          "ShuffleOptions: compress_skip_after must be >= 1 (zero would "
          "disable compression before the first sample)");
    }
  }
  if (map_threads == 0) {
    throw std::invalid_argument(
        "ShuffleOptions: map_threads must be >= 1 (1 = sequential)");
  }
  if (memory_budget_bytes > 0) {
    if (spill_page_bytes < kMinSpillPageBytes) {
      throw std::invalid_argument(
          "ShuffleOptions: spill_page_bytes (" +
          std::to_string(spill_page_bytes) + ") is below the " +
          std::to_string(kMinSpillPageBytes) +
          " floor — tinier pages make every run block header-dominated");
    }
    if (memory_budget_bytes < spill_page_bytes) {
      throw std::invalid_argument(
          "ShuffleOptions: memory_budget_bytes (" +
          std::to_string(memory_budget_bytes) +
          ") is smaller than one spill page (" +
          std::to_string(spill_page_bytes) +
          ") — the budget could never stage its own spill I/O");
    }
    if (spill_merge_fanin < 2) {
      throw std::invalid_argument(
          "ShuffleOptions: spill_merge_fanin must be >= 2 (a 1-way merge "
          "pass can never reduce the run count)");
    }
    if (spill_dir.empty()) {
      throw std::invalid_argument(
          "ShuffleOptions: spill_dir must be set when memory_budget_bytes "
          "> 0 — the budget has nowhere to spill");
    }
    struct stat st{};
    if (::stat(spill_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        ::access(spill_dir.c_str(), W_OK) != 0) {
      throw std::invalid_argument(
          "ShuffleOptions: spill_dir \"" + spill_dir +
          "\" is not an existing writable directory");
    }
  }
  if (node_aggregation && ranks_per_node < 1) {
    throw std::invalid_argument(
        "ShuffleOptions: ranks_per_node must be >= 1 when node_aggregation "
        "is set — a node with no mappers has nothing to aggregate");
  }
  if (resident_rounds < 1) {
    throw std::invalid_argument(
        "ShuffleOptions: resident_rounds must be >= 1 (1 = one-shot job; "
        "N > 1 arms the iterative chain lifecycle)");
  }
}

}  // namespace mpid::shuffle
