// The two vector workloads: int8_batch and exact_mixed.
// Inputs are clustered 128-d vectors drawn from the run's seed; every
// reply is checked against the double-precision oracle (oracle.h).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "layers.h"
#include "oracle.h"
#include "stats.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using cbix::ServeReply;
using cbix::ServingOptions;
using cbix::Timer;

constexpr size_t kDim = 128;
constexpr size_t kClusters = 32;
constexpr double kSigma = 0.08;
constexpr size_t kSetups = 3;

/// Checks one Search call's answer for every query of its batch.
/// `truth(q)` gives query q's oracle top-k distances, `oracle_distance`
/// the oracle distance of (query, id), `label_of(id)` the row's cluster.
/// Scores recall and precision into `tally`; returns "" when the reply
/// holds, else what is wrong.
std::string CheckServeReply(
    const cbix::Result<ServeReply>& reply, size_t first_query, size_t n,
    bool exact, const std::vector<int32_t>& query_labels,
    const std::function<std::vector<double>(size_t)>& truth,
    const std::function<double(size_t, uint32_t)>& oracle_distance,
    const std::function<int32_t(uint32_t)>& label_of, size_t nq,
    Tally* tally) {
  if (!reply.ok()) return "status " + reply.status().ToString();
  if (reply->results.size() != nq || reply->coverage.size() != nq) {
    return "reply does not hold one answer per query";
  }
  for (size_t i = 0; i < nq; ++i) {
    const size_t q = first_query + i;
    const cbix::QueryCoverage& cov = reply->coverage[i];
    if (!cov.status.ok() || cov.degraded || cov.shards_answered != cov.shards_total) {
      return "query " + std::to_string(q) + " degraded";
    }
    std::vector<Hit> hits;
    size_t same_class = 0;
    for (const cbix::CbirEngine::Match& m : reply->results[i]) {
      hits.push_back({m.id, m.distance});
      if (m.id < n) {
        if (m.label != label_of(m.id) || m.name != RowName(m.id)) {
          return "id " + std::to_string(m.id) + " carries the wrong name or label";
        }
        if (m.label == query_labels[q]) ++same_class;
      }
    }
    const ReplyCheck check = CheckReply(
        hits, truth(q), n, [&](uint32_t id) { return oracle_distance(q, id); },
        exact);
    if (!check.ok) return "query " + std::to_string(q) + ": " + check.why;
    tally->Score(check.recall, static_cast<double>(same_class) /
                                   static_cast<double>(std::max<size_t>(1, hits.size())));
  }
  return "";
}

std::vector<double> Distances(const std::vector<Hit>& hits) {
  std::vector<double> out;
  for (const Hit& h : hits) out.push_back(h.distance);
  return out;
}

std::vector<const float*> RowPointers(const std::vector<Vec>& rows) {
  std::vector<const float*> out;
  for (const Vec& r : rows) out.push_back(r.data());
  return out;
}

/// The oracle's top-k distances of every query over `rows`.
std::vector<std::vector<double>> OracleTopK(const std::vector<Vec>& queries,
                                            const std::vector<Vec>& rows,
                                            size_t nproc) {
  const std::vector<const float*> ptrs = RowPointers(rows);
  std::vector<std::vector<double>> truth(queries.size());
  ParallelFor(queries.size(), nproc, [&](size_t q) {
    truth[q] = Distances(OracleKnn(OracleMetric::kL2, queries[q].data(), ptrs, kDim, kK));
  });
  return truth;
}

}  // namespace

void RunInt8Batch(const RunContext& ctx, Report* report, RunRecord* record) {
  constexpr size_t kRows = 65536;
  constexpr size_t kQueries = 256;  // one round asks each once
  constexpr size_t kBatch = 64;     // queries per Search call

  ServingOptions options;
  options.engine.index_kind = cbix::IndexKind::kLinearScan;
  options.engine.metric = cbix::MetricKind::kL2;
  options.engine.quantization = cbix::QuantizationKind::kInt8;
  options.search_threads = ctx.nproc;

  ClusterModel model(ctx.seed, kClusters, kDim, kSigma);
  const Clustered base = model.Draw(kRows);
  const Clustered queries = model.Draw(kQueries);
  const auto batches = Batches(queries.rows, kBatch);

  const std::string path = ctx.scratch_dir + "/" + ctx.workload + ".cbix";
  std::vector<double> setup_s, build_s, load_s;
  ServingSetup setup;
  for (size_t s = 0; s < kSetups; ++s) {
    setup = ServingSetup{};  // release the previous copy first
    setup = SetUpServing(base, options, path);
    setup_s.push_back(setup.total_s);
    build_s.push_back(setup.build_s);
    load_s.push_back(setup.load_s);
  }
  const std::vector<std::vector<double>> truth =
      OracleTopK(queries.rows, base.rows, ctx.nproc);

  const cbix::ServingEngine& serving = *setup.serving;
  const RoundFn round = [&](bool traced, Tally* tally) {
    cbix::SearchOptions search_options;
    search_options.trace_every_n = traced ? 1 : 0;
    for (size_t j = 0; j < batches.size(); ++j) {
      const Timer t;
      const auto reply = serving.Search(batches[j], kK, search_options);
      const double dt = t.ElapsedSeconds();
      if (traced && reply.ok()) RecordSpans(*reply, batches[j].size(), tally);
      tally->request_ms.push_back(dt * 1e3);
      tally->busy_s += dt;
      tally->queries += batches[j].size();
      // The int8 scan may miss a neighbour (recall), but every distance
      // it reports comes from the float rerank and must be exact.
      const std::string why = CheckServeReply(
          reply, j * kBatch, kRows, /*exact=*/false, queries.labels,
          [&](size_t q) { return truth[q]; },
          [&](size_t q, uint32_t id) {
            return OracleDistance(OracleMetric::kL2, queries.rows[q].data(),
                                  base.rows[id].data(), kDim);
          },
          [&](uint32_t id) { return base.labels[id]; }, batches[j].size(), tally);
      report->Count(why.empty(), "int8_batch search: " + why);
    }
  };

  const Footprint footprint = MeasureFootprint(*setup.engine);
  if (!ctx.trace) {
    Tally tally;
    RunRounds(ctx.seconds, false, round, &tally);
    ReportEndToEnd(tally, setup_s, footprint.bytes_per_item, report, record);
  } else {
    ZeroLayerMetrics(report);
    Tally plain, traced;
    ReportTraceOverhead(0.4 * ctx.seconds, round, report, &plain, &traced);
    LedgerInputs in;
    in.engine = setup.engine.get();
    in.serving = setup.serving.get();
    in.batches = &batches;
    in.k = kK;
    in.threads = options.search_threads;
    in.nproc = ctx.nproc;
    in.seconds = 0.5 * ctx.seconds;
    MeasureQueryLayers(in, report);
    report->Set("engine.build_s", Median(build_s));
    report->Set("serving.load_s", Median(load_s));
    report->Set("store.bytes_per_item", footprint.store_bytes_per_item);
    report->Set("index.bytes_per_item", footprint.index_bytes_per_item);
  }
  record->Add("rows", static_cast<double>(kRows));
  record->Add("distinct_queries", static_cast<double>(kQueries));
  record->Add("queries_per_call", static_cast<double>(kBatch));
  std::remove(path.c_str());
}

void RunExactMixed(const RunContext& ctx, Report* report, RunRecord* record) {
  constexpr size_t kBaseRows = 16384;
  constexpr size_t kInserts = 512;          // per round
  constexpr size_t kMergeThreshold = 256;   // two merges per round
  constexpr size_t kInsertsPerSearch = 4;   // 128 searches per round
  constexpr size_t kBatch = 16;
  constexpr size_t kQueries = 256;

  ClusterModel model(ctx.seed, kClusters, kDim, kSigma);
  const Clustered base = model.Draw(kBaseRows);
  const Clustered inserts = model.Draw(kInserts);
  const Clustered queries = model.Draw(kQueries);
  const auto batches = Batches(queries.rows, kBatch);
  std::vector<std::string> insert_names;
  for (size_t i = 0; i < kInserts; ++i) {
    insert_names.push_back(RowName(kBaseRows + i));
  }

  ServingOptions options;
  options.engine.index_kind = cbix::IndexKind::kLinearScan;
  options.engine.metric = cbix::MetricKind::kL2;
  options.engine.shards = 4;
  options.delta_merge_threshold = kMergeThreshold;
  options.search_threads = ctx.nproc;

  const std::string path = ctx.scratch_dir + "/" + ctx.workload + ".cbix";
  std::vector<double> setup_s, build_s, load_s;
  ServingSetup setup;
  for (size_t s = 0; s < kSetups; ++s) {
    setup = ServingSetup{};
    setup = SetUpServing(base, options, path);
    setup_s.push_back(setup.total_s);
    build_s.push_back(setup.build_s);
    load_s.push_back(setup.load_s);
  }

  // Oracle: each query's top-k over the base rows, and its distance to
  // every row a round inserts. After i inserts the true top-k is the k
  // smallest of the base top-k and the first i insert distances.
  const std::vector<std::vector<double>> base_truth =
      OracleTopK(queries.rows, base.rows, ctx.nproc);
  std::vector<std::vector<double>> insert_distance(kQueries);
  ParallelFor(kQueries, ctx.nproc, [&](size_t q) {
    for (const Vec& row : inserts.rows) {
      insert_distance[q].push_back(
          OracleDistance(OracleMetric::kL2, queries.rows[q].data(), row.data(), kDim));
    }
  });

  cbix::ServingEngine& serving = *setup.serving;
  const RoundFn round = [&](bool traced, Tally* tally) {
    // Every round starts from the sealed base, so every round does the
    // same work: the same inserts, the same merges, the same searches.
    const cbix::Status reset = serving.Load(path);
    if (!reset.ok()) Die("ServingEngine::Load: " + reset.ToString());
    cbix::SearchOptions search_options;
    search_options.trace_every_n = traced ? 1 : 0;
    size_t searches = 0;
    for (size_t i = 0; i < kInserts; ++i) {
      Vec row = inserts.rows[i];
      std::string name = insert_names[i];
      const uint64_t merges_before = serving.merges();
      const Timer t;
      const auto id = serving.Insert(std::move(row), std::move(name), inserts.labels[i]);
      const double dt = t.ElapsedSeconds();
      tally->busy_s += dt;
      tally->insert_us.push_back(dt * 1e6);
      if (serving.merges() != merges_before) {
        tally->merge_insert_ms.push_back(dt * 1e3);
      } else {
        tally->plain_insert_us.push_back(dt * 1e6);
      }
      report->Count(id.ok() && *id == kBaseRows + i,
                    "insert " + std::to_string(i) + " did not return id " +
                        std::to_string(kBaseRows + i));
      if ((i + 1) % kInsertsPerSearch != 0) continue;

      const size_t j = searches++ % batches.size();
      const size_t n = kBaseRows + i + 1;
      tally->delta_rows_sum += static_cast<double>(serving.snapshot_info().delta_count);
      ++tally->delta_samples;
      const Timer ts;
      const auto reply = serving.Search(batches[j], kK, search_options);
      const double dts = ts.ElapsedSeconds();
      if (traced && reply.ok()) RecordSpans(*reply, batches[j].size(), tally);
      tally->request_ms.push_back(dts * 1e3);
      tally->busy_s += dts;
      tally->queries += batches[j].size();
      const size_t inserted = i + 1;
      const std::string why = CheckServeReply(
          reply, j * kBatch, n, /*exact=*/true, queries.labels,
          [&](size_t q) {
            const std::vector<double> prefix(insert_distance[q].begin(),
                                             insert_distance[q].begin() +
                                                 static_cast<ptrdiff_t>(inserted));
            return SmallestK(base_truth[q], prefix, kK);
          },
          [&](size_t q, uint32_t id) {
            return id < kBaseRows
                       ? OracleDistance(OracleMetric::kL2, queries.rows[q].data(),
                                        base.rows[id].data(), kDim)
                       : insert_distance[q][id - kBaseRows];
          },
          [&](uint32_t id) {
            return id < kBaseRows ? base.labels[id] : inserts.labels[id - kBaseRows];
          },
          batches[j].size(), tally);
      report->Count(why.empty(), "exact_mixed search: " + why);
    }
  };

  const Footprint footprint = MeasureFootprint(*setup.engine);
  if (!ctx.trace) {
    Tally tally;
    RunRounds(ctx.seconds, false, round, &tally);
    ReportEndToEnd(tally, setup_s, footprint.bytes_per_item, report, record);
    ReportWritePath(tally, report, record);
  } else {
    ZeroLayerMetrics(report);
    Tally plain, traced;
    ReportTraceOverhead(0.4 * ctx.seconds, round, report, &plain, &traced);
    ReportWritePath(plain, report, record);
    const cbix::Status reset = serving.Load(path);
    if (!reset.ok()) Die("ServingEngine::Load: " + reset.ToString());
    LedgerInputs in;
    in.engine = setup.engine.get();
    in.serving = setup.serving.get();
    in.batches = &batches;
    in.k = kK;
    in.threads = options.search_threads;
    in.nproc = ctx.nproc;
    in.seconds = 0.5 * ctx.seconds;
    MeasureQueryLayers(in, report);
    report->Set("engine.build_s", Median(build_s));
    report->Set("serving.load_s", Median(load_s));
    report->Set("store.bytes_per_item", footprint.store_bytes_per_item);
    report->Set("index.bytes_per_item", footprint.index_bytes_per_item);
  }
  record->Add("rows", static_cast<double>(kBaseRows));
  record->Add("inserts_per_round", static_cast<double>(kInserts));
  record->Add("delta_merge_threshold", static_cast<double>(kMergeThreshold));
  record->Add("inserts_per_search", static_cast<double>(kInsertsPerSearch));
  record->Add("queries_per_call", static_cast<double>(kBatch));
  std::remove(path.c_str());
}

}  // namespace e2e
