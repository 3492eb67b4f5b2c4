// The benchmark's metric table and result line.
//
// Every metric the benchmark can print is declared once, in
// MetricTable(); BENCHMARK.json must list exactly the same names, units
// and directions (selftest.py and run.py compare them). A workload
// fills a Report through Set(), which rejects names the table does not
// hold, and Finish() rejects a report that misses one.

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  bool per_layer;      ///< printed by traced runs (--trace 1)
};

const std::vector<MetricSpec>& MetricTable();

/// One run's result. attempted/failed count operations: requests,
/// inserts, and nothing else. A failed operation is a non-OK Status, a
/// degraded coverage or a reply that fails its oracle check.
class Report {
 public:
  explicit Report(bool per_layer) : per_layer_(per_layer) {}

  void Set(const std::string& name, double value);
  bool per_layer() const { return per_layer_; }

  /// One counted operation; `ok` false counts it as failed. The first
  /// few failures are described on stderr.
  void Count(bool ok, const std::string& what = "");

  /// Outputs of the program that are wrong outside any one operation
  /// (a stored feature vector, a byte count) make the run incorrect.
  void Incorrect(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  /// Exits the process when a metric of this run's mode is missing.
  std::string Finish() const;

 private:
  bool per_layer_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

}  // namespace e2e

#endif  // E2EBENCH_REPORT_H_
