// Shared harness of the four workloads: the run context, the closed
// loop that runs whole rounds for a time budget, the tallies the loop
// fills, and the clustered vector inputs.

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/serving.h"
#include "report.h"
#include "util/random.h"

namespace e2e {

using cbix::Vec;

inline constexpr size_t kK = 10;

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t nproc = 1;
  std::string scratch_dir;  ///< where engine files are saved and loaded
};

/// Free-form fields of the run record (printed before the result line).
class RunRecord {
 public:
  void Add(const std::string& key, double value);
  void AddText(const std::string& key, const std::string& value);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// What the timed loop measured. Times exclude the benchmark's own
/// checking; `busy_s` is the sum of the timed operations.
struct Tally {
  std::vector<double> request_ms;
  uint64_t queries = 0;
  double busy_s = 0.0;
  double recall_sum = 0.0;
  double precision_sum = 0.0;
  uint64_t scored = 0;  ///< queries scored for recall and precision
  // Write path (exact_mixed only).
  std::vector<double> insert_us;        ///< every insert
  std::vector<double> plain_insert_us;  ///< inserts that did not merge
  std::vector<double> merge_insert_ms;  ///< inserts that merged
  double delta_rows_sum = 0.0;          ///< delta size seen by searches
  uint64_t delta_samples = 0;
  uint64_t rounds = 0;
  std::vector<double> extract_ms;  ///< image_qbe traced rounds only
  // Spans of traced ServingEngine::Search calls, per query (work items
  // per call).
  std::vector<double> span_serve_us;
  std::vector<double> span_engine_us;
  std::vector<double> span_delta_us;
  std::vector<double> span_work_items;

  void Score(double recall, double precision) {
    recall_sum += recall;
    precision_sum += precision;
    ++scored;
  }
};

/// One round of a workload: the same operations every time, so every
/// run attempts whole rounds. `traced` turns on the program's spans
/// (SearchOptions::trace_every_n = 1) on the serving workloads, and
/// times QueryKnn's two stages apart on image_qbe.
using RoundFn = std::function<void(bool traced, Tally* tally)>;

/// Runs whole rounds until `seconds` have passed (at least one).
void RunRounds(double seconds, bool traced, const RoundFn& round, Tally* tally);

/// Sets the end-to-end metrics of `tally` and adds the tail percentile
/// and its sample count to the record.
void ReportEndToEnd(const Tally& tally, const std::vector<double>& setup_s,
                    double bytes_per_item, Report* report, RunRecord* record);

/// Records the span tree a traced ServingEngine::Search returned.
void RecordSpans(const cbix::ServeReply& reply, size_t nq, Tally* tally);

/// Traced run: alternates untraced and traced rounds for `seconds`,
/// fills the two tallies and sets trace.queries_per_s,
/// trace.overhead_pct and the span.* metrics from them.
void ReportTraceOverhead(double seconds, const RoundFn& round, Report* report,
                         Tally* plain, Tally* traced);

/// Adds the insert latencies to the record and, in a traced run, sets
/// the serving write-path metrics.
void ReportWritePath(const Tally& tally, Report* report, RunRecord* record);

/// Sets every per-layer metric to 0; workloads then overwrite the ones
/// on their path.
void ZeroLayerMetrics(Report* report);

// ---------------------------------------------------------------------------
// Clustered vectors: `clusters` centres uniform in [0,1]^dim, points
// drawn around a centre with per-coordinate Gaussian noise `sigma`.

struct Clustered {
  std::vector<Vec> rows;
  std::vector<int32_t> labels;  ///< the centre each row was drawn from
};

class ClusterModel {
 public:
  ClusterModel(uint64_t seed, size_t clusters, size_t dim, double sigma);
  Clustered Draw(size_t count);

 private:
  cbix::Rng rng_;
  std::vector<Vec> centres_;
  double sigma_;
};

/// Splits `queries` into request batches of `batch` rows.
std::vector<std::vector<Vec>> Batches(const std::vector<Vec>& queries,
                                      size_t batch);

/// Ingest + BuildIndex + Save + ServingEngine::Load of `data`, as a user
/// would bring a vector corpus up for serving. Row i is named "v<i>".
struct ServingSetup {
  std::unique_ptr<cbix::CbirEngine> engine;
  std::unique_ptr<cbix::ServingEngine> serving;
  double total_s = 0.0;
  double build_s = 0.0;
  double load_s = 0.0;
};
ServingSetup SetUpServing(const Clustered& data,
                          const cbix::ServingOptions& options,
                          const std::string& path);

/// (store + index) bytes of `engine` per row, and its two parts.
struct Footprint {
  double bytes_per_item = 0.0;
  double store_bytes_per_item = 0.0;
  double index_bytes_per_item = 0.0;
};
Footprint MeasureFootprint(const cbix::CbirEngine& engine);

/// "v<id>", the name every vector row is stored under.
std::string RowName(size_t id);

[[noreturn]] void Die(const std::string& what);

// The workloads.
void RunImageQbe(const RunContext& ctx, Report* report, RunRecord* record);
void RunInt8Batch(const RunContext& ctx, Report* report, RunRecord* record);
void RunExactMixed(const RunContext& ctx, Report* report, RunRecord* record);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
