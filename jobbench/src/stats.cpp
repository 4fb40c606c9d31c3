#include "stats.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

namespace jobbench {

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p < 100.0)) {
    throw std::invalid_argument("percentile: p must lie in (0, 100)");
  }
  const std::size_t n = samples.size();
  // 1-based nearest rank; p * n before the division keeps 90 * 100 / 100
  // exact.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0));
  if (rank == 0 || n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 ? samples[mid]
                            : (samples[mid - 1] + samples[mid]) / 2.0;
}

double host_steal_s() {
  // The aggregate "cpu" line: user nice system idle iowait irq softirq steal.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::array<double, 8> ticks{};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                      std::size_t min_count) {
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() && (steal[order[keep]] <= 0 || keep < min_count)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace jobbench
