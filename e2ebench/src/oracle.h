// The benchmark's own exact k-NN oracle and reply checks.
//
// Brute force in double precision over rows the benchmark holds. It
// calls nothing in the library's distance or index code, so a fault
// there cannot hide by agreeing with itself.

#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace e2e {

enum class OracleMetric { kL1, kL2 };

/// L1 or Euclidean distance, accumulated in double.
double OracleDistance(OracleMetric metric, const float* a, const float* b,
                      size_t dim);

struct Hit {
  uint32_t id = 0;
  double distance = 0.0;
};

/// The k nearest of `rows` (ids are positions) to `q`, sorted by
/// (distance, id).
std::vector<Hit> OracleKnn(OracleMetric metric, const float* q,
                           const std::vector<const float*>& rows, size_t dim,
                           size_t k);

/// The k smallest distances of `a` and `b` together, ascending (for
/// topping up a precomputed base answer with rows inserted since).
std::vector<double> SmallestK(const std::vector<double>& a,
                              const std::vector<double>& b, size_t k);

/// Distances agree when |a - b| <= kRelTol * max(|a|, |b|) + kAbsTol.
/// The library ranks in float with SIMD reductions and reports double;
/// the oracle sums in double, so the two differ by float rounding only.
inline constexpr double kRelTol = 1e-4;
inline constexpr double kAbsTol = 1e-6;
bool DistancesAgree(double a, double b);

struct ReplyCheck {
  bool ok = true;
  std::string why;  ///< first violated property when !ok
  double recall = 0.0;
};

/// Checks one query's reply. `reply` holds (id, reported distance) in
/// reply order; `truth` the oracle's k smallest distances, ascending;
/// `n` the number of rows the reply may draw from; `oracle_distance`
/// the oracle distance of any id.
///
/// Every reply must be sorted by (distance, id), hold no duplicate or
/// out-of-range id, hold min(k, n) entries, and report for each id its
/// oracle distance. An `exact` reply must also be a true top-k: the
/// oracle distances of its ids, sorted, equal `truth` entry by entry,
/// so ids may differ from the oracle's only among tied distances.
/// recall = share of `truth` matched by reply ids whose oracle distance
/// is within the k-th oracle distance (ties count as found).
ReplyCheck CheckReply(const std::vector<Hit>& reply,
                      const std::vector<double>& truth, size_t n,
                      const std::function<double(uint32_t)>& oracle_distance,
                      bool exact);

/// Runs body(i) for i in [0, count) on `threads` std::threads.
void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& body);

}  // namespace e2e

#endif  // E2EBENCH_ORACLE_H_
