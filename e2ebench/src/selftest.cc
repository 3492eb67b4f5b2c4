// e2e_selftest — self-tests of the benchmark's own parts: the oracle
// and its reply checks on hand-checked cases (ties included), and the
// order statistics behind the *_tail_* metrics. Exits 1 when any
// expectation fails. Run through selftest.py.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oracle.h"
#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest.cc:%d: expectation failed: %s\n", line, what);
  ++g_failures;
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using e2e::CheckReply;
using e2e::Hit;
using e2e::OracleMetric;

void TestDistances() {
  const float a[5] = {0.0f, 1.0f, 2.0f, -1.0f, 0.5f};
  const float b[5] = {1.0f, 1.0f, 0.0f, 1.0f, 0.5f};
  // |−1| + 0 + 2 + |−2| + 0 = 5; sqrt(1 + 0 + 4 + 4 + 0) = 3.
  EXPECT(e2e::OracleDistance(OracleMetric::kL1, a, b, 5) == 5.0);
  EXPECT(e2e::OracleDistance(OracleMetric::kL2, a, b, 5) == 3.0);
  EXPECT(e2e::OracleDistance(OracleMetric::kL2, a, a, 5) == 0.0);
}

// Rows on a line at 0, 1, 1, 3, 1 (ids 0..4): the query at 0 has the
// tie {1, 2, 4} at distance 1 behind id 0.
void TestKnnTies() {
  const std::vector<float> values = {0.0f, 1.0f, -1.0f, 3.0f, 1.0f};
  std::vector<const float*> rows;
  for (const float& v : values) rows.push_back(&v);
  const float q = 0.0f;
  const std::vector<Hit> top = e2e::OracleKnn(OracleMetric::kL2, &q, rows, 1, 3);
  EXPECT(top.size() == 3);
  EXPECT(top[0].id == 0 && top[0].distance == 0.0);
  // Ties break by id: 1 and 2 before 4.
  EXPECT(top[1].id == 1 && top[1].distance == 1.0);
  EXPECT(top[2].id == 2 && top[2].distance == 1.0);
  // k beyond n returns every row.
  EXPECT(e2e::OracleKnn(OracleMetric::kL1, &q, rows, 1, 10).size() == 5);
  EXPECT((e2e::SmallestK({0.0, 1.0, 1.0}, {0.5, 3.0}, 3) ==
          std::vector<double>{0.0, 0.5, 1.0}));
}

void TestReplyChecks() {
  const std::vector<double> dist = {0.0, 1.0, 1.0, 3.0, 1.0};
  const auto oracle = [&dist](uint32_t id) { return dist[id]; };
  const std::vector<double> truth = {0.0, 1.0, 1.0};
  // The oracle's own answer, and one that takes the other tied id.
  EXPECT(CheckReply({{0, 0.0}, {1, 1.0}, {2, 1.0}}, truth, 5, oracle, true).ok);
  const auto tied = CheckReply({{0, 0.0}, {1, 1.0}, {4, 1.0}}, truth, 5, oracle, true);
  EXPECT(tied.ok && tied.recall == 1.0);
  // Float rounding inside the tolerance is accepted.
  EXPECT(CheckReply({{0, 0.0}, {1, 1.0}, {2, 1.0 + 1e-7}}, truth, 5, oracle, true).ok);
  // A row beyond the top-k fails an exact reply, and costs recall in an
  // approximate one.
  EXPECT(!CheckReply({{0, 0.0}, {1, 1.0}, {3, 3.0}}, truth, 5, oracle, true).ok);
  const auto approx = CheckReply({{0, 0.0}, {1, 1.0}, {3, 3.0}}, truth, 5, oracle, false);
  EXPECT(approx.ok && std::fabs(approx.recall - 2.0 / 3.0) < 1e-12);
  // Wrong distance, unsorted, duplicate, out of range, short.
  EXPECT(!CheckReply({{0, 0.0}, {1, 1.5}, {2, 1.0}}, truth, 5, oracle, false).ok);
  EXPECT(!CheckReply({{1, 1.0}, {0, 0.0}, {2, 1.0}}, truth, 5, oracle, false).ok);
  EXPECT(!CheckReply({{0, 0.0}, {2, 1.0}, {1, 1.0}}, truth, 5, oracle, false).ok);
  EXPECT(!CheckReply({{0, 0.0}, {1, 1.0}, {1, 1.0}}, truth, 5, oracle, false).ok);
  EXPECT(!CheckReply({{0, 0.0}, {1, 1.0}, {7, 1.0}}, truth, 5, oracle, false).ok);
  EXPECT(!CheckReply({{0, 0.0}, {1, 1.0}}, truth, 5, oracle, false).ok);
}

void TestPercentiles() {
  EXPECT(e2e::Percentile({}, 50.0) == 0.0);
  EXPECT(e2e::Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(e2e::Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  std::vector<double> ramp;
  for (int i = 0; i <= 100; ++i) ramp.push_back(i);
  EXPECT(e2e::Percentile(ramp, 99.0) == 99.0);
  EXPECT(e2e::Percentile(ramp, 95.0) == 95.0);
}

void TestTailRule() {
  // The highest of 95/90/75 with at least ten samples beyond it; the
  // median below forty samples.
  EXPECT(e2e::TailPercentile(0) == 50.0);
  EXPECT(e2e::TailPercentile(39) == 50.0);
  EXPECT(e2e::TailPercentile(40) == 75.0);
  EXPECT(e2e::TailPercentile(99) == 75.0);
  EXPECT(e2e::TailPercentile(100) == 90.0);
  EXPECT(e2e::TailPercentile(199) == 90.0);
  EXPECT(e2e::TailPercentile(200) == 95.0);
  EXPECT(e2e::TailPercentile(1000000) == 95.0);
}

}  // namespace

int main() {
  TestDistances();
  TestKnnTies();
  TestReplyChecks();
  TestPercentiles();
  TestTailRule();
  if (g_failures > 0) {
    std::fprintf(stderr, "e2e_selftest: %d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2e_selftest: all expectations hold\n");
  return 0;
}
