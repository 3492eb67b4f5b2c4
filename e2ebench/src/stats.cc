#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double TailPercentile(size_t n) {
  if (n < 40) return 50.0;
  for (const size_t p : {95, 90, 75}) {
    // n * (1 - p/100) >= 10, in integers.
    if (n * (100 - p) >= 1000) return static_cast<double>(p);
  }
  return 75.0;  // not reached: n >= 40 has ten samples beyond p75
}

}  // namespace e2e
