#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2e {

const std::vector<MetricSpec>& MetricTable() {
  static const std::vector<MetricSpec> table = {
      // End-to-end, measured with tracing off.
      {"setup_s", "s", "lower", false},
      {"request_p50_ms", "ms", "lower", false},
      {"request_tail_ms", "ms", "lower", false},
      {"queries_per_s", "queries/s", "higher", false},
      {"recall_at_10", "fraction", "higher", false},
      {"precision_at_10", "fraction", "higher", false},
      {"bytes_per_item", "B", "lower", false},
      // Per layer, from the traced run. 0 means the layer is not on
      // this workload's path (README.md, "Per-layer metrics").
      {"image.canonicalize_ms", "ms", "lower", true},
      {"features.extract_ms", "ms", "lower", true},
      {"features.color_hist_ms", "ms", "lower", true},
      {"features.correlogram_ms", "ms", "lower", true},
      {"features.glcm_ms", "ms", "lower", true},
      {"features.wavelet_ms", "ms", "lower", true},
      {"features.edge_hist_ms", "ms", "lower", true},
      {"features.shape_ms", "ms", "lower", true},
      {"distance.rank_us_per_query", "us", "lower", true},
      {"index.search_us_per_query", "us", "lower", true},
      {"index.distance_evals_per_query", "count", "lower", true},
      {"index.rerank_evals_per_query", "count", "lower", true},
      {"index.nodes_visited_per_query", "count", "lower", true},
      {"engine.search_us_per_query", "us", "lower", true},
      {"engine.tax_x", "x", "lower", true},
      {"engine.allocs_per_call", "count", "lower", true},
      {"engine.thread_speedup_x", "x", "higher", true},
      {"serving.search_us_per_query", "us", "lower", true},
      {"serving.tax_x", "x", "lower", true},
      {"serving.allocs_per_call", "count", "lower", true},
      {"serving.alloc_bytes_per_call", "B", "lower", true},
      {"serving.insert_us", "us", "lower", true},
      {"serving.insert_tail_us", "us", "lower", true},
      {"serving.merge_ms", "ms", "lower", true},
      {"serving.merges", "count/round", "lower", true},
      {"serving.delta_rows_mean", "count", "lower", true},
      {"span.serve_us_per_query", "us", "lower", true},
      {"span.engine_us_per_query", "us", "lower", true},
      {"span.delta_us_per_query", "us", "lower", true},
      {"span.work_items_per_call", "count", "lower", true},
      {"trace.queries_per_s", "queries/s", "higher", true},
      {"trace.overhead_pct", "%", "lower", true},
      {"engine.build_s", "s", "lower", true},
      {"serving.load_s", "s", "lower", true},
      {"store.bytes_per_item", "B", "lower", true},
      {"index.bytes_per_item", "B", "lower", true},
  };
  return table;
}

namespace {

const MetricSpec* FindSpec(const std::string& name) {
  for (const MetricSpec& spec : MetricTable()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  const MetricSpec* spec = FindSpec(name);
  if (spec == nullptr || spec->per_layer != per_layer_) {
    Fatal("metric " + name + " is not a metric of this run's mode");
  }
  if (!std::isfinite(value)) Fatal("metric " + name + " is not finite");
  values_[name] = value;
}

void Report::Count(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 5) {
    std::fprintf(stderr, "e2e_bench: failed operation: %s\n", what.c_str());
  }
}

void Report::Incorrect(const std::string& what) {
  if (correct_) std::fprintf(stderr, "e2e_bench: incorrect: %s\n", what.c_str());
  correct_ = false;
}

std::string Report::Finish() const {
  std::string metrics;
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.per_layer != per_layer_) continue;
    const auto it = values_.find(spec.name);
    if (it == values_.end()) Fatal(std::string("metric ") + spec.name + " not measured");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + spec.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace e2e
