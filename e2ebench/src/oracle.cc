#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

namespace e2e {

double OracleDistance(OracleMetric metric, const float* a, const float* b,
                      size_t dim) {
  // Four independent sums keep the loop from waiting on one add chain;
  // every term is still exact-then-rounded in double.
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  if (metric == OracleMetric::kL1) {
    for (; i + 4 <= dim; i += 4) {
      for (size_t j = 0; j < 4; ++j) {
        s[j] += std::fabs(static_cast<double>(a[i + j]) - b[i + j]);
      }
    }
    for (; i < dim; ++i) s[0] += std::fabs(static_cast<double>(a[i]) - b[i]);
    return (s[0] + s[1]) + (s[2] + s[3]);
  }
  for (; i + 4 <= dim; i += 4) {
    for (size_t j = 0; j < 4; ++j) {
      const double d = static_cast<double>(a[i + j]) - b[i + j];
      s[j] += d * d;
    }
  }
  for (; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s[0] += d * d;
  }
  return std::sqrt((s[0] + s[1]) + (s[2] + s[3]));
}

namespace {

bool HitLess(const Hit& a, const Hit& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

}  // namespace

std::vector<Hit> OracleKnn(OracleMetric metric, const float* q,
                           const std::vector<const float*>& rows, size_t dim,
                           size_t k) {
  std::vector<Hit> all(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    all[i] = {static_cast<uint32_t>(i), OracleDistance(metric, q, rows[i], dim)};
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), HitLess);
  all.resize(keep);
  return all;
}

std::vector<double> SmallestK(const std::vector<double>& a,
                              const std::vector<double>& b, size_t k) {
  std::vector<double> all(a);
  all.insert(all.end(), b.begin(), b.end());
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end());
  all.resize(keep);
  return all;
}

bool DistancesAgree(double a, double b) {
  return std::fabs(a - b) <=
         kRelTol * std::max(std::fabs(a), std::fabs(b)) + kAbsTol;
}

ReplyCheck CheckReply(const std::vector<Hit>& reply,
                      const std::vector<double>& truth, size_t n,
                      const std::function<double(uint32_t)>& oracle_distance,
                      bool exact) {
  ReplyCheck check;
  auto fail = [&check](std::string why) {
    check.ok = false;
    check.why = std::move(why);
    return check;
  };
  if (reply.size() != truth.size()) {
    return fail("reply holds " + std::to_string(reply.size()) +
                " entries, expected " + std::to_string(truth.size()));
  }
  std::unordered_set<uint32_t> seen;
  std::vector<double> found;
  found.reserve(reply.size());
  for (size_t j = 0; j < reply.size(); ++j) {
    const Hit& hit = reply[j];
    if (hit.id >= n) return fail("id " + std::to_string(hit.id) + " out of range");
    if (!seen.insert(hit.id).second) {
      return fail("duplicate id " + std::to_string(hit.id));
    }
    if (j > 0 && HitLess(hit, reply[j - 1])) {
      return fail("not sorted by (distance, id) at rank " + std::to_string(j));
    }
    const double truth_distance = oracle_distance(hit.id);
    if (!DistancesAgree(hit.distance, truth_distance)) {
      return fail("id " + std::to_string(hit.id) + " reported at distance " +
                  std::to_string(hit.distance) + ", oracle " +
                  std::to_string(truth_distance));
    }
    found.push_back(truth_distance);
  }
  size_t matched = 0;
  if (!truth.empty()) {
    const double kth = truth.back();
    for (double d : found) {
      if (d <= kth || DistancesAgree(d, kth)) ++matched;
    }
    check.recall = static_cast<double>(matched) / static_cast<double>(truth.size());
  } else {
    check.recall = 1.0;
  }
  if (exact) {
    std::sort(found.begin(), found.end());
    for (size_t j = 0; j < found.size(); ++j) {
      if (!DistancesAgree(found[j], truth[j])) {
        return fail("rank " + std::to_string(j) + " holds oracle distance " +
                    std::to_string(found[j]) + ", the true top-k holds " +
                    std::to_string(truth[j]));
      }
    }
  }
  return check;
}

void ParallelFor(size_t count, size_t threads,
                 const std::function<void(size_t)>& body) {
  threads = std::max<size_t>(1, std::min(threads, count));
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&body, count, threads, t] {
      for (size_t i = t; i < count; i += threads) body(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

}  // namespace e2e
