// image_qbe: the paper's own pipeline. Query by example over a labelled
// synthetic corpus: each request is one distorted corpus image through
// CbirEngine::QueryKnn (extraction, then the VP-tree under L1).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "image/image.h"
#include "image/resize.h"
#include "layers.h"
#include "oracle.h"
#include "stats.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using cbix::CbirEngine;
using cbix::FeatureExtractor;
using cbix::Timer;

constexpr int kCanonicalSize = 96;
constexpr int kClasses = 40;
constexpr int kImagesPerClass = 16;
constexpr int kImageSize = 128;
constexpr size_t kDistortedQueries = 496;  // per round
constexpr size_t kPlainQueries = 4;        // undistorted corpus images
constexpr float kSeverity = 0.5f;
constexpr size_t kSetups = 3;

/// The ledger names of the default extractor's blocks, by the prefix of
/// the block descriptor's Name().
const std::vector<std::pair<std::string, std::string>>& BlockMetrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"color_hist", "features.color_hist_ms"},
      {"correlogram", "features.correlogram_ms"},
      {"glcm", "features.glcm_ms"},
      {"wavelet", "features.wavelet_ms"},
      {"edge_hist", "features.edge_hist_ms"},
      {"shape", "features.shape_ms"},
  };
  return names;
}

std::string BlockMetric(const cbix::DescriptorBlock& block) {
  const std::string name = block.descriptor->Name();
  for (const auto& [prefix, metric] : BlockMetrics()) {
    if (name.rfind(prefix, 0) == 0) return metric;
  }
  Die("no ledger metric for descriptor block " + name);
}

/// Properties the extraction method promises of every vector: the
/// extractor's dimension, finite entries, the L1-normalized HSV
/// histogram block summing to its weight, and min-max blocks lying in
/// [0, weight]. Returns "" when they hold.
std::string FeatureProblem(const cbix::Vec& v, const FeatureExtractor& extractor) {
  if (v.size() != extractor.dim()) {
    return "dimension " + std::to_string(v.size()) + " != " +
           std::to_string(extractor.dim());
  }
  for (float x : v) {
    if (!std::isfinite(x)) return "non-finite entry";
  }
  size_t offset = 0;
  for (size_t b = 0; b < extractor.block_count(); ++b) {
    const cbix::DescriptorBlock& block = extractor.block(b);
    const size_t dim = block.descriptor->dim();
    const double w = block.weight;
    if (block.descriptor->Name().rfind("color_hist", 0) == 0) {
      double sum = 0.0;
      for (size_t i = 0; i < dim; ++i) sum += v[offset + i];
      if (std::fabs(sum - w) > 1e-4 * w) {
        return "colour histogram block sums to " + std::to_string(sum);
      }
    }
    if (block.normalization == cbix::Normalization::kMinMax) {
      for (size_t i = 0; i < dim; ++i) {
        const double x = v[offset + i];
        if (x < 0.0 || x > w * (1.0 + 1e-5)) {
          return block.descriptor->Name() + " entry " + std::to_string(x) +
                 " outside [0, " + std::to_string(w) + "]";
        }
      }
    }
    offset += dim;
  }
  return "";
}

struct Query {
  cbix::ImageU8 image;
  size_t source = 0;  ///< corpus index of the image it was made from
  bool plain = false;  ///< undistorted: must come back first at distance 0
  int32_t label = 0;
  cbix::Vec features;  ///< extracted by the program, for the oracle
  std::vector<double> truth;
};

}  // namespace

void RunImageQbe(const RunContext& ctx, Report* report, RunRecord* record) {
  cbix::CorpusSpec spec;
  spec.num_classes = kClasses;
  spec.images_per_class = kImagesPerClass;
  spec.width = kImageSize;
  spec.height = kImageSize;
  spec.seed = ctx.seed;
  const std::vector<cbix::LabeledImage> corpus = cbix::CorpusGenerator(spec).Generate();

  cbix::Rng rng(ctx.seed ^ 0x5eedf00dULL);
  std::vector<Query> queries(kDistortedQueries + kPlainQueries);
  for (size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    q.source = rng.NextBelow(corpus.size());
    q.plain = i >= kDistortedQueries;
    q.label = corpus[q.source].class_id;
    q.image = q.plain ? corpus[q.source].image
                      : cbix::ApplyDistortion(corpus[q.source].image,
                                              cbix::RandomDistortion(&rng, kSeverity),
                                              rng.Next());
  }

  // Set-up: extraction of the whole corpus, then the index build.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<CbirEngine> engine;
  for (size_t s = 0; s < kSetups; ++s) {
    std::vector<CbirEngine::BatchItem> batch;
    for (const cbix::LabeledImage& img : corpus) {
      batch.push_back({img.image, img.name, img.class_id});
    }
    engine.reset();
    const Timer total;
    engine = std::make_unique<CbirEngine>(cbix::MakeDefaultExtractor(kCanonicalSize));
    auto added = engine->AddImagesParallel(std::move(batch), ctx.nproc);
    if (!added.ok()) Die("AddImagesParallel: " + added.status().ToString());
    const Timer build;
    const cbix::Status built = engine->BuildIndex();
    build_s.push_back(build.ElapsedSeconds());
    setup_s.push_back(total.ElapsedSeconds());
    if (!built.ok()) Die("BuildIndex: " + built.ToString());
  }

  const FeatureExtractor& extractor = engine->extractor();
  const cbix::FeatureStore& store = engine->store();
  const size_t n = store.size();
  const size_t dim = extractor.dim();
  if (n != corpus.size()) report->Incorrect("store holds " + std::to_string(n) + " rows");
  std::vector<const float*> rows;
  for (uint32_t id = 0; id < n; ++id) {
    rows.push_back(store.features(id));
    const std::string problem = FeatureProblem(store.record(id).features, extractor);
    if (!problem.empty()) report->Incorrect("stored row " + std::to_string(id) + ": " + problem);
    if (store.label(id) != corpus[id].class_id || store.name(id) != corpus[id].name) {
      report->Incorrect("stored row " + std::to_string(id) + " has the wrong name or label");
    }
  }
  // The oracle ranks the stored features by L1 from each query's
  // features, which the program extracts the same way QueryKnn does.
  ParallelFor(queries.size(), ctx.nproc, [&](size_t i) {
    Query& q = queries[i];
    q.features = engine->ExtractFeatures(q.image);
    if (q.features.size() != dim) return;
    for (const Hit& h : OracleKnn(OracleMetric::kL1, q.features.data(), rows, dim, kK)) {
      q.truth.push_back(h.distance);
    }
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string problem = FeatureProblem(queries[i].features, extractor);
    if (!problem.empty()) report->Incorrect("query " + std::to_string(i) + ": " + problem);
  }

  // A request is checked against the oracle and the method's promises.
  auto check = [&](size_t i, const cbix::Result<std::vector<CbirEngine::Match>>& reply,
                   Tally* tally) -> std::string {
    if (!reply.ok()) return "status " + reply.status().ToString();
    const Query& q = queries[i];
    std::vector<Hit> hits;
    size_t same_class = 0;
    bool self_at_zero = false;
    for (const CbirEngine::Match& m : *reply) {
      hits.push_back({m.id, m.distance});
      if (m.id >= n) continue;  // CheckReply reports it
      if (m.label != corpus[m.id].class_id || m.name != corpus[m.id].name) {
        return "id " + std::to_string(m.id) + " carries the wrong name or label";
      }
      if (m.label == q.label) ++same_class;
      if (m.id == q.source && m.distance == 0.0) self_at_zero = true;
    }
    const ReplyCheck c = CheckReply(
        hits, q.truth, n,
        [&](uint32_t id) {
          return OracleDistance(OracleMetric::kL1, q.features.data(), rows[id], dim);
        },
        /*exact=*/true);
    if (!c.ok) return "query " + std::to_string(i) + ": " + c.why;
    if (q.plain && (hits.empty() || hits[0].distance != 0.0 || !self_at_zero)) {
      return "undistorted corpus image " + std::to_string(q.source) +
             " did not come back first at distance 0";
    }
    tally->Score(c.recall, static_cast<double>(same_class) /
                               static_cast<double>(std::max<size_t>(1, hits.size())));
    return "";
  };

  // Untraced: one QueryKnn per image. Traced: the same two stages
  // QueryKnn runs (extraction, then the vector query), each timed.
  const RoundFn round = [&](bool traced, Tally* tally) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const Timer t;
      cbix::Result<std::vector<CbirEngine::Match>> reply = std::vector<CbirEngine::Match>{};
      if (!traced) {
        reply = engine->QueryKnn(queries[i].image, kK);
      } else {
        const cbix::Vec features = engine->ExtractFeatures(queries[i].image);
        tally->extract_ms.push_back(t.ElapsedSeconds() * 1e3);
        reply = engine->QueryKnnByVector(features, kK);
      }
      const double dt = t.ElapsedSeconds();
      tally->request_ms.push_back(dt * 1e3);
      tally->busy_s += dt;
      ++tally->queries;
      const std::string why = check(i, reply, tally);
      report->Count(why.empty(), "image_qbe request: " + why);
    }
  };

  const double bytes_per_item = MeasureFootprint(*engine).bytes_per_item;
  if (!ctx.trace) {
    Tally tally;
    RunRounds(ctx.seconds, false, round, &tally);
    ReportEndToEnd(tally, setup_s, bytes_per_item, report, record);
  } else {
    ZeroLayerMetrics(report);
    Tally plain, traced;
    ReportTraceOverhead(0.3 * ctx.seconds, round, report, &plain, &traced);
    report->Set("features.extract_ms", Median(traced.extract_ms));

    // Feature ledger: canonicalization and each descriptor block,
    // timed on the query images.
    std::vector<double> canonicalize_ms;
    std::vector<std::vector<double>> block_ms(extractor.block_count());
    const Timer budget;
    size_t i = 0;
    do {
      const cbix::ImageU8& image = queries[i % queries.size()].image;
      const Timer t;
      const cbix::ImageF canonical =
          cbix::Resize(cbix::ToFloat(image), kCanonicalSize, kCanonicalSize);
      canonicalize_ms.push_back(t.ElapsedSeconds() * 1e3);
      for (size_t b = 0; b < extractor.block_count(); ++b) {
        const Timer tb;
        const cbix::Vec part = extractor.block(b).descriptor->Extract(canonical);
        block_ms[b].push_back(tb.ElapsedSeconds() * 1e3);
        if (part.size() != extractor.block(b).descriptor->dim()) {
          report->Incorrect("descriptor block " + std::to_string(b) + " changed dimension");
        }
      }
      ++i;
    } while (budget.ElapsedSeconds() < 0.2 * ctx.seconds);
    report->Set("image.canonicalize_ms", Median(canonicalize_ms));
    for (size_t b = 0; b < extractor.block_count(); ++b) {
      report->Set(BlockMetric(extractor.block(b)), Median(block_ms[b]));
    }

    // Query-path ledger on the extracted query vectors, one per call as
    // in a request, with the engine brought up under ServingEngine.
    const std::string path = ctx.scratch_dir + "/image_qbe.cbix";
    cbix::Status status = engine->Save(path);
    if (!status.ok()) Die("Save: " + status.ToString());
    cbix::ServingOptions options;
    // One query per call is one tile: only one worker can have work.
    options.search_threads = 1;
    auto serving = cbix::ServingEngine::Create(extractor, options);
    if (!serving.ok()) Die("ServingEngine::Create: " + serving.status().ToString());
    const Timer load;
    status = (*serving)->Load(path);
    const double load_s = load.ElapsedSeconds();
    std::remove(path.c_str());
    if (!status.ok()) Die("ServingEngine::Load: " + status.ToString());
    std::vector<std::vector<cbix::Vec>> batches;
    for (const Query& q : queries) batches.push_back({q.features});
    LedgerInputs in;
    in.engine = engine.get();
    in.serving = serving->get();
    in.batches = &batches;
    in.k = kK;
    in.threads = options.search_threads;
    in.nproc = ctx.nproc;
    in.seconds = 0.2 * ctx.seconds;
    MeasureQueryLayers(in, report);

    const Footprint footprint = MeasureFootprint(*engine);
    report->Set("engine.build_s", Median(build_s));
    report->Set("serving.load_s", load_s);
    report->Set("store.bytes_per_item", footprint.store_bytes_per_item);
    report->Set("index.bytes_per_item", footprint.index_bytes_per_item);
  }
  record->Add("corpus_images", static_cast<double>(n));
  record->Add("feature_dim", static_cast<double>(dim));
  record->Add("queries_per_round", static_cast<double>(queries.size()));
}

}  // namespace e2e
