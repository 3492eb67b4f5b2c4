#include "layers.h"

#include <algorithm>
#include <functional>
#include <string>

#include "alloc_hooks.h"
#include "index/query_block.h"
#include "stats.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {

using cbix::QueryBlock;
using cbix::SearchStats;
using cbix::Timer;

namespace {

/// Candidate rows per RankBlock call: the key buffer stays in cache and
/// the call shape matches the scans' block loop.
constexpr size_t kRankRows = 1024;

template <typename T>
void CheckOk(const cbix::Result<T>& result, const char* what) {
  if (result.ok()) return;
  std::string message = what;
  message += ": ";
  message += result.status().ToString();
  Die(message);
}

}  // namespace

void MeasureQueryLayers(const LedgerInputs& in, Report* report) {
  cbix::CbirEngine& engine = *in.engine;
  const cbix::VectorIndex* index = engine.index();
  if (index == nullptr) Die("layer ledger: engine index not built");
  const auto metric = cbix::MakeMetric(engine.config().metric);
  const cbix::FeatureMatrix& rows = engine.store().matrix();
  const std::vector<std::vector<Vec>>& batches = *in.batches;

  std::vector<QueryBlock> blocks;
  size_t max_nq = 0;
  for (const auto& batch : batches) {
    blocks.push_back(QueryBlock::Pack(batch));
    max_nq = std::max(max_nq, batch.size());
  }
  std::vector<double> keys(max_nq * kRankRows);
  std::vector<std::vector<cbix::Neighbor>> hits(max_nq);
  std::vector<SearchStats> stats(max_nq);

  // Per-query microseconds of each call, per layer.
  std::vector<double> rank_us, index_us, engine_us, other_us, serving_us;
  double engine_allocs = 0.0, serving_allocs = 0.0, serving_bytes = 0.0;
  SearchStats stat_sum;
  uint64_t stat_queries = 0;
  uint64_t calls = 0;

  size_t b = 0;
  auto rank = [&] {
    const QueryBlock& block = blocks[b];
    const Timer t;
    for (size_t begin = 0; begin < rows.count(); begin += kRankRows) {
      const size_t n = std::min(kRankRows, rows.count() - begin);
      metric->RankBlock(block.data(), block.stride(), block.count(),
                        rows.row(begin), rows.stride(), n, rows.dim(),
                        keys.data(), kRankRows);
    }
    rank_us.push_back(t.ElapsedSeconds() * 1e6 / block.count());
  };
  auto search = [&] {
    const QueryBlock& block = blocks[b];
    std::fill(stats.begin(), stats.begin() + block.count(), SearchStats{});
    const Timer t;
    index->SearchBatch(block, in.k, hits.data(), stats.data());
    index_us.push_back(t.ElapsedSeconds() * 1e6 / block.count());
    for (size_t i = 0; i < block.count(); ++i) stat_sum += stats[i];
    stat_queries += block.count();
  };
  auto engine_call = [&](size_t threads, std::vector<double>* us, bool count) {
    const AllocMeter meter;
    const Timer t;
    auto r = engine.QueryKnnBatchByVectors(batches[b], in.k, threads);
    us->push_back(t.ElapsedSeconds() * 1e6 / batches[b].size());
    if (count) engine_allocs += static_cast<double>(meter.Read().allocations);
    CheckOk(r, "engine batch query");
  };
  // The engine at the serving layer's worker count, then at whichever
  // of 1 and nproc that is not, for the speed-up.
  const size_t other_threads = in.threads == 1 ? in.nproc : 1;
  std::vector<double>& one_us = in.threads == 1 ? engine_us : other_us;
  std::vector<double>& nproc_us = in.threads == 1 ? other_us : engine_us;
  auto serve = [&] {
    const AllocMeter meter;
    const Timer t;
    auto r = in.serving->Search(batches[b], in.k);
    serving_us.push_back(t.ElapsedSeconds() * 1e6 / batches[b].size());
    const AllocCounts counts = meter.Read();
    serving_allocs += static_cast<double>(counts.allocations);
    serving_bytes += static_cast<double>(counts.bytes);
    CheckOk(r, "serving search");
  };
  const std::vector<std::function<void()>> layers = {
      rank, search, [&] { engine_call(in.threads, &engine_us, true); },
      [&] { engine_call(other_threads, &other_us, false); }, serve};

  SetAllocCounting(true);
  const Timer budget;
  size_t round = 0;
  do {
    for (b = 0; b < batches.size(); ++b) {
      // Rotate which layer goes first, so none is always the one that
      // meets the batch with cold caches.
      for (size_t l = 0; l < layers.size(); ++l) {
        layers[(l + round) % layers.size()]();
      }
      ++calls;
    }
    ++round;
  } while (budget.ElapsedSeconds() < in.seconds);
  SetAllocCounting(false);

  const double index_med = Median(index_us);
  const double engine_med = Median(engine_us);
  const double queries = static_cast<double>(stat_queries);
  report->Set("distance.rank_us_per_query", Median(rank_us));
  report->Set("index.search_us_per_query", index_med);
  report->Set("index.distance_evals_per_query",
              static_cast<double>(stat_sum.distance_evals) / queries);
  report->Set("index.rerank_evals_per_query",
              static_cast<double>(stat_sum.rerank_evals) / queries);
  report->Set("index.nodes_visited_per_query",
              static_cast<double>(stat_sum.nodes_visited) / queries);
  report->Set("engine.search_us_per_query", engine_med);
  report->Set("engine.tax_x", engine_med / index_med);
  report->Set("engine.allocs_per_call", engine_allocs / static_cast<double>(calls));
  report->Set("engine.thread_speedup_x", Median(one_us) / Median(nproc_us));
  report->Set("serving.search_us_per_query", Median(serving_us));
  report->Set("serving.tax_x", Median(serving_us) / engine_med);
  report->Set("serving.allocs_per_call", serving_allocs / static_cast<double>(calls));
  report->Set("serving.alloc_bytes_per_call", serving_bytes / static_cast<double>(calls));
}

}  // namespace e2e
