#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"
#include "stats.h"
#include "util/timer.h"

namespace e2e {

void RunRecord::Add(const std::string& key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  fields_.emplace_back(key, text);
}

void RunRecord::AddText(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
  }
  fields_.emplace_back(key, quoted + "\"");
}

std::string RunRecord::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

void RunRounds(double seconds, bool traced, const RoundFn& round, Tally* tally) {
  const cbix::Timer clock;
  do {
    round(traced, tally);
    ++tally->rounds;
  } while (clock.ElapsedSeconds() < seconds);
}

void ReportEndToEnd(const Tally& tally, const std::vector<double>& setup_s,
                    double bytes_per_item, Report* report, RunRecord* record) {
  const double tail = TailPercentile(tally.request_ms.size());
  report->Set("setup_s", Median(setup_s));
  report->Set("request_p50_ms", Median(tally.request_ms));
  report->Set("request_tail_ms", Percentile(tally.request_ms, tail));
  report->Set("queries_per_s", static_cast<double>(tally.queries) / tally.busy_s);
  report->Set("recall_at_10", tally.recall_sum / static_cast<double>(tally.scored));
  report->Set("precision_at_10",
              tally.precision_sum / static_cast<double>(tally.scored));
  report->Set("bytes_per_item", bytes_per_item);
  record->Add("requests", static_cast<double>(tally.request_ms.size()));
  record->Add("request_tail_percentile", tail);
  record->Add("rounds", static_cast<double>(tally.rounds));
  record->Add("setups", static_cast<double>(setup_s.size()));
}

void ReportTraceOverhead(double seconds, const RoundFn& round, Report* report,
                         Tally* plain, Tally* traced) {
  const cbix::Timer clock;
  do {
    round(false, plain);
    ++plain->rounds;
    round(true, traced);
    ++traced->rounds;
  } while (clock.ElapsedSeconds() < seconds);
  const double plain_qps = static_cast<double>(plain->queries) / plain->busy_s;
  const double traced_qps = static_cast<double>(traced->queries) / traced->busy_s;
  report->Set("trace.queries_per_s", traced_qps);
  report->Set("trace.overhead_pct", (plain_qps / traced_qps - 1.0) * 100.0);
  report->Set("span.serve_us_per_query", Median(traced->span_serve_us));
  report->Set("span.engine_us_per_query", Median(traced->span_engine_us));
  report->Set("span.delta_us_per_query", Median(traced->span_delta_us));
  report->Set("span.work_items_per_call", Median(traced->span_work_items));
}

void RecordSpans(const cbix::ServeReply& reply, size_t nq, Tally* tally) {
  if (reply.trace == nullptr) Die("traced ServingEngine::Search returned no trace");
  const cbix::TraceSpan& root = reply.trace->root();
  const cbix::TraceSpan* engine = root.Find("engine.knn_batch");
  const cbix::TraceSpan* delta = root.Find("serve.delta");
  const double per_query_us = 1e3 / static_cast<double>(nq);
  tally->span_serve_us.push_back(root.duration_ms * per_query_us);
  tally->span_engine_us.push_back(engine != nullptr ? engine->duration_ms * per_query_us : 0.0);
  tally->span_delta_us.push_back(delta != nullptr ? delta->duration_ms * per_query_us : 0.0);
  tally->span_work_items.push_back(
      engine != nullptr ? static_cast<double>(engine->children.size()) : 0.0);
}

void ReportWritePath(const Tally& tally, Report* report, RunRecord* record) {
  const double tail = TailPercentile(tally.insert_us.size());
  const double insert_p50 = Median(tally.insert_us);
  const double insert_tail = Percentile(tally.insert_us, tail);
  record->Add("inserts", static_cast<double>(tally.insert_us.size()));
  record->Add("insert_p50_us", insert_p50);
  record->Add("insert_tail_us", insert_tail);
  record->Add("insert_tail_percentile", tail);
  if (!report->per_layer()) return;
  report->Set("serving.insert_us", Median(tally.plain_insert_us));
  report->Set("serving.insert_tail_us", insert_tail);
  report->Set("serving.merge_ms", Median(tally.merge_insert_ms));
  report->Set("serving.merges", static_cast<double>(tally.merge_insert_ms.size()) /
                                    static_cast<double>(tally.rounds));
  report->Set("serving.delta_rows_mean",
              tally.delta_rows_sum / static_cast<double>(tally.delta_samples));
}

void ZeroLayerMetrics(Report* report) {
  for (const MetricSpec& spec : MetricTable()) {
    if (spec.per_layer) report->Set(spec.name, 0.0);
  }
}

ClusterModel::ClusterModel(uint64_t seed, size_t clusters, size_t dim,
                           double sigma)
    : rng_(seed), sigma_(sigma) {
  centres_.resize(clusters, Vec(dim));
  for (Vec& c : centres_) {
    for (float& x : c) x = static_cast<float>(rng_.NextDouble());
  }
}

Clustered ClusterModel::Draw(size_t count) {
  Clustered out;
  out.rows.reserve(count);
  out.labels.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t c = rng_.NextBelow(centres_.size());
    Vec row = centres_[c];
    for (float& x : row) x += static_cast<float>(sigma_ * rng_.Gaussian());
    out.rows.push_back(std::move(row));
    out.labels.push_back(static_cast<int32_t>(c));
  }
  return out;
}

std::vector<std::vector<Vec>> Batches(const std::vector<Vec>& queries,
                                      size_t batch) {
  std::vector<std::vector<Vec>> out;
  for (size_t i = 0; i < queries.size(); i += batch) {
    const size_t end = std::min(queries.size(), i + batch);
    out.emplace_back(queries.begin() + static_cast<ptrdiff_t>(i),
                     queries.begin() + static_cast<ptrdiff_t>(end));
  }
  return out;
}

ServingSetup SetUpServing(const Clustered& data,
                          const cbix::ServingOptions& options,
                          const std::string& path) {
  ServingSetup setup;
  const cbix::Timer total;
  setup.engine = std::make_unique<cbix::CbirEngine>(cbix::FeatureExtractor(),
                                                    options.engine);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    auto id = setup.engine->AddFeatureVector(data.rows[i], RowName(i),
                                             data.labels[i]);
    if (!id.ok()) Die("AddFeatureVector: " + id.status().ToString());
  }
  const cbix::Timer build;
  cbix::Status status = setup.engine->BuildIndex();
  setup.build_s = build.ElapsedSeconds();
  if (!status.ok()) Die("BuildIndex: " + status.ToString());
  status = setup.engine->Save(path);
  if (!status.ok()) Die("Save: " + status.ToString());
  auto serving = cbix::ServingEngine::Create(cbix::FeatureExtractor(), options);
  if (!serving.ok()) Die("ServingEngine::Create: " + serving.status().ToString());
  setup.serving = std::move(serving).value();
  const cbix::Timer load;
  status = setup.serving->Load(path);
  setup.load_s = load.ElapsedSeconds();
  if (!status.ok()) Die("ServingEngine::Load: " + status.ToString());
  setup.total_s = total.ElapsedSeconds();
  return setup;
}

Footprint MeasureFootprint(const cbix::CbirEngine& engine) {
  const double n = static_cast<double>(engine.size());
  Footprint f;
  f.store_bytes_per_item = static_cast<double>(engine.store().MemoryBytes()) / n;
  f.index_bytes_per_item = static_cast<double>(engine.IndexMemoryBytes()) / n;
  f.bytes_per_item = f.store_bytes_per_item + f.index_bytes_per_item;
  return f;
}

std::string RowName(size_t id) {
  std::string name = std::to_string(id);
  name.insert(name.begin(), 'v');
  return name;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

}  // namespace e2e
