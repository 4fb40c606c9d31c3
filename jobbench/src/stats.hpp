// Order statistics over per-job samples.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace jobbench {

/// Samples that must lie strictly beyond a reported percentile: a tail
/// estimate resting on fewer is noise, not a measurement.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank p-th percentile, p in (0, 100). Empty when fewer than
/// kMinTailSamples samples lie beyond the rank, so p90 needs >= 100
/// samples and p50 needs >= 20.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Plain median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> samples);

/// Hypervisor steal. The benchmark shares its host: for seconds at a time
/// the hypervisor runs other guests on this machine's CPUs, and a job that
/// loses CPU time that way runs up to twice as slow, however fast the
/// program is. /proc/stat counts that time (steal) in 10 ms ticks, and even
/// one tick during a job slows it measurably.
///
/// Seconds of steal summed over all CPUs since boot; 0 where the kernel
/// does not report it, so that every sample then counts as steal-free.
double host_steal_s();

/// `steal[i]` is the steal seen while sample i ran. Returns, in ascending
/// order, the indices of the samples that saw none, topped up with the
/// least-stolen others (earlier first on ties) to `min_count` when fewer
/// saw none, or all indices when there are fewer than `min_count`.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                      std::size_t min_count);

}  // namespace jobbench
