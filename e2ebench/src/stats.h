// Order statistics for latency samples.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace e2e {

/// The p-th percentile (0..100) of `samples`, interpolating linearly
/// between the two closest ranks. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// The percentile reported as a `*_tail_*` metric for `n` samples: the
/// highest of 95, 90 and 75 with at least ten samples beyond it
/// (n * (1 - p/100) >= 10). Below 40 samples there is no tail worth the
/// name and the median (50) is returned. The ladder stops at 95: on a
/// shared 4-vCPU machine the p99 of a sub-millisecond request is set by
/// the host's scheduler stalls and does not repeat from run to run.
double TailPercentile(size_t n);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
