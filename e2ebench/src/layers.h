// The layer ledger: the same query batches timed at each layer's public
// entry point, from the bottom of the query path up:
//
//   DistanceMetric::RankBlock          distance.*  (all rows, one thread)
//   VectorIndex::SearchBatch           index.*     (one thread)
//   CbirEngine::QueryKnnBatchByVectors engine.*    (search_threads workers)
//   ServingEngine::Search              serving.*   (its search_threads)
//
// engine.thread_speedup_x times the engine layer again with 1 and with
// nproc workers.
//
// Layers are timed in turn on each batch, so drift of the machine
// spreads over all of them alike.

#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <vector>

#include "core/engine.h"
#include "core/serving.h"
#include "report.h"

namespace e2e {

struct LedgerInputs {
  cbix::CbirEngine* engine = nullptr;          ///< built
  const cbix::ServingEngine* serving = nullptr;  ///< loaded, empty delta
  const std::vector<std::vector<cbix::Vec>>* batches = nullptr;
  size_t k = 10;
  size_t threads = 1;  ///< the serving engine's search_threads
  size_t nproc = 1;
  double seconds = 1.0;  ///< time budget
};

/// Sets the distance.*, index.*, engine.* and serving.search/tax/allocs
/// metrics.
void MeasureQueryLayers(const LedgerInputs& in, Report* report);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
