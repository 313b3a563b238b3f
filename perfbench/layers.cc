// `perfbench_tool layers`: the traced run. Times calls into each module's
// public functions from the benchmark's own code (spans.h) and reports one
// number per layer; the program itself carries no spans.
//
// Training layers are timed on a step assembled from the public nn/core
// pieces the default model is made of (feature embedding, two GAT layers,
// projection head, spatial-importance augmentation, spatial negative
// sampler, Adam, momentum update). Each layer's output is detached into a
// fresh gradient leaf, so backward runs layer by layer and each layer's
// backward gets its own span; the arithmetic per layer is the trainer's.
// Trainer phase times, pool misses, busy cores and pool idle share come from
// the EpochRecord that SarnModel::Train hands its MetricsSink.

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/augmentation.h"
#include "core/negative_sampler.h"
#include "core/sarn_model.h"
#include "core/spatial_similarity.h"
#include "core/variant_registry.h"
#include "geo/spatial_index.h"
#include "nn/embedding.h"
#include "nn/gat.h"
#include "nn/module.h"
#include "nn/projection_head.h"
#include "obs/metrics.h"
#include "obs/metrics_sink.h"
#include "roadnet/features.h"
#include "roadnet/io.h"
#include "serve/protocol.h"
#include "snapshot/snapshot.h"
#include "spans.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tool_util.h"

namespace perfbench {
namespace {

using sarn::tensor::Tensor;
namespace core = sarn::core;
namespace nn = sarn::nn;

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// The model configuration `sarn train` builds with its default flags.
core::SarnConfig CliConfig(const sarn::roadnet::RoadNetwork& network, int epochs) {
  core::SarnConfig config;
  config.max_epochs = epochs;
  config.embedding_dim = 64;
  config.hidden_dim = 64;
  config.projection_dim = 32;
  core::FitCellSideToNetwork(config, network);
  return config;
}

/// Captures the last epoch's record plus process CPU time, wall time and the
/// pool-miss counter at each epoch boundary.
class EpochCapture : public sarn::obs::MetricsSink {
 public:
  EpochCapture() { Mark(); }
  void OnEpoch(const sarn::obs::EpochRecord& record) override {
    double cpu = cpu_, wall = wall_;
    uint64_t misses = misses_;
    Mark();
    last = record;
    cpu_delta = cpu_ - cpu;
    wall_delta = wall_ - wall;
    misses_delta = misses_ - misses;
  }
  void OnCheckpoint(const sarn::obs::CheckpointEvent&) override {}

  sarn::obs::EpochRecord last;
  double cpu_delta = 0.0, wall_delta = 0.0;
  uint64_t misses_delta = 0;

 private:
  void Mark() {
    cpu_ = CpuSeconds();
    wall_ = static_cast<double>(SpanRecorder::NowNs()) * 1e-9;
    misses_ = sarn::obs::MetricsRegistry::Default().GetCounter("sarn.alloc.pool_misses").Value();
  }
  double cpu_ = 0.0, wall_ = 0.0;
  uint64_t misses_ = 0;
};

double Phase(const sarn::obs::EpochRecord& record, const std::string& name) {
  for (const auto& [phase, seconds] : record.phase_seconds) {
    if (phase == name) return seconds * 1e3 / std::max(1, record.batches);
  }
  return -1.0;
}

/// A gradient leaf holding `t`'s values: backward stops here, so each layer
/// can be back-propagated on its own.
Tensor Leaf(const Tensor& t) {
  Tensor leaf = t.Detach();
  leaf.RequiresGrad(true);
  return leaf;
}

std::vector<float> GradOf(const Tensor& leaf) {
  return std::vector<float>(leaf.grad().begin(), leaf.grad().end());
}

/// The default SARN step (gat / spatial-importance / spatial), assembled from
/// public constructors so each layer can be timed on its own.
class LayerStep {
 public:
  LayerStep(const sarn::roadnet::RoadNetwork& network, const core::SarnConfig& config)
      : network_(network), config_(config), rng_(config.seed + 1) {
    features_ = sarn::roadnet::FeaturizeSegments(network);
    core::SpatialSimilarityConfig similarity;
    similarity.delta_ds_meters = config.delta_ds_meters;
    similarity.delta_as_radians = config.delta_as_radians;
    similarity.max_spatial_neighbors = config.max_spatial_neighbors;
    spatial_ = core::BuildSpatialEdges(network, similarity);

    sarn::Rng init(config.seed);
    std::vector<int64_t> dims(features_.vocab_sizes.size(), config.feature_dim_per_feature);
    embed_ = std::make_unique<nn::FeatureEmbedding>(features_.vocab_sizes, dims, init);
    const int64_t in = embed_->output_dim();
    const int64_t head_dim = config.hidden_dim / config.gat_heads;
    auto make_layers = [&](std::vector<std::unique_ptr<nn::GatLayer>>* layers) {
      layers->push_back(std::make_unique<nn::GatLayer>(in, head_dim, config.gat_heads, true,
                                                       nn::Activation::kElu, init));
      layers->push_back(std::make_unique<nn::GatLayer>(config.hidden_dim, config.embedding_dim,
                                                       config.gat_heads, false,
                                                       nn::Activation::kNone, init));
    };
    make_layers(&gat_);
    head_ = std::make_unique<nn::ProjectionHead>(config.embedding_dim, config.embedding_dim,
                                                 config.projection_dim, init);
    make_layers(&target_gat_);
    target_head_ = std::make_unique<nn::ProjectionHead>(
        config.embedding_dim, config.embedding_dim, config.projection_dim, init);
    for (size_t i = 0; i < gat_.size(); ++i) target_gat_[i]->CopyWeightsFrom(*gat_[i]);
    target_head_->CopyWeightsFrom(*head_);

    core::VariantContext context;
    context.network = &network_;
    context.config = &config_;
    context.features = &features_;
    context.spatial_edges = &spatial_;
    context.input_dim = in;
    core::VariantRegistry& registry = core::VariantRegistry::Instance();
    augmentation_ = registry.MakeAugmentation("spatial-importance", context);
    sampler_ = registry.MakeSampler("spatial", context);

    std::vector<Tensor> params = embed_->Parameters();
    for (const auto& layer : gat_) {
      for (const Tensor& p : layer->Parameters()) {
        params.push_back(p);
        online_no_features_.push_back(p);
      }
    }
    for (const Tensor& p : head_->Parameters()) {
      params.push_back(p);
      online_no_features_.push_back(p);
    }
    for (const auto& layer : target_gat_) {
      for (const Tensor& p : layer->Parameters()) target_.push_back(p);
    }
    for (const Tensor& p : target_head_->Parameters()) target_.push_back(p);
    adam_ = std::make_unique<sarn::tensor::Adam>(params, config.learning_rate);

    order_.resize(static_cast<size_t>(network.num_segments()));
    std::iota(order_.begin(), order_.end(), 0);
    rng_.Shuffle(order_);
  }

  void NewViews(SpanRecorder& rec) {
    {
      SpanRecorder::Scope span(rec, "core.augment_view");
      view1_ = augmentation_->MakeView(rng_);
    }
    SpanRecorder::Scope span(rec, "core.augment_view");
    view2_ = augmentation_->MakeView(rng_);
  }

  /// One minibatch step; returns the loss.
  float Step(SpanRecorder& rec) {
    const int64_t n = network_.num_segments();
    const int64_t begin = (next_batch_++ * config_.batch_size) % n;
    const int64_t end = std::min<int64_t>(n, begin + config_.batch_size);
    std::vector<int64_t> batch(order_.begin() + begin, order_.begin() + end);

    SpanRecorder::Scope step(rec, "train.step");
    sarn::tensor::StepScope alloc_scope;
    Tensor z_prime;
    {
      SpanRecorder::Scope span(rec, "core.target_forward");
      sarn::tensor::NoGradGuard guard;
      Tensor h = embed_->Forward(features_.ids);
      for (const auto& layer : target_gat_) h = layer->Forward(h, view2_.edges);
      z_prime = sarn::tensor::Rows(sarn::tensor::RowL2Normalize(target_head_->Forward(h)), batch);
    }
    Tensor x, x_leaf, h0, h0_leaf, h1, h1_leaf, loss;
    {
      SpanRecorder::Scope span(rec, "nn.feature_embed.fwd");
      x = embed_->Forward(features_.ids);
      x_leaf = Leaf(x);
    }
    {
      SpanRecorder::Scope span(rec, "nn.gat.layer0.fwd");
      h0 = gat_[0]->Forward(x_leaf, view1_.edges);
      h0_leaf = Leaf(h0);
    }
    {
      SpanRecorder::Scope span(rec, "nn.gat.layer1.fwd");
      h1 = gat_[1]->Forward(h0_leaf, view1_.edges);
      h1_leaf = Leaf(h1);
    }
    Tensor z, z_leaf;
    {
      SpanRecorder::Scope span(rec, "nn.head.fwd");
      z = head_->Forward(h1_leaf);
      z_leaf = Leaf(z);
    }
    {
      SpanRecorder::Scope span(rec, "core.sampler_loss");
      Tensor z_batch = sarn::tensor::Rows(sarn::tensor::RowL2Normalize(z_leaf), batch);
      loss = sampler_->ComputeLoss(z_batch, z_prime, Tensor(), batch, rng_);
    }
    const float value = loss.item();
    adam_->ZeroGrad();
    {
      SpanRecorder::Scope span(rec, "core.sampler_loss.bwd");
      loss.Backward();
    }
    {
      SpanRecorder::Scope span(rec, "nn.head.bwd");
      z.Backward(GradOf(z_leaf));
    }
    {
      SpanRecorder::Scope span(rec, "nn.gat.layer1.bwd");
      h1.Backward(GradOf(h1_leaf));
    }
    {
      SpanRecorder::Scope span(rec, "nn.gat.layer0.bwd");
      h0.Backward(GradOf(h0_leaf));
    }
    {
      SpanRecorder::Scope span(rec, "nn.feature_embed.bwd");
      x.Backward(GradOf(x_leaf));
    }
    {
      SpanRecorder::Scope span(rec, "tensor.adam_step");
      adam_->Step();
    }
    {
      SpanRecorder::Scope span(rec, "nn.momentum_update");
      nn::MomentumUpdate(target_, online_no_features_, config_.momentum);
    }
    SpanRecorder::Scope span(rec, "core.queue_push");
    const int64_t d = config_.projection_dim;
    for (size_t i = 0; i < batch.size(); ++i) {
      std::vector<float> row(z_prime.data().begin() + static_cast<int64_t>(i) * d,
                             z_prime.data().begin() + static_cast<int64_t>(i + 1) * d);
      sampler_->Push(batch[i], std::move(row));  // Rows are already unit length.
    }
    return value;
  }

 private:
  const sarn::roadnet::RoadNetwork& network_;
  core::SarnConfig config_;
  sarn::roadnet::SegmentFeatures features_;
  std::vector<core::SpatialEdge> spatial_;
  std::unique_ptr<nn::FeatureEmbedding> embed_;
  std::vector<std::unique_ptr<nn::GatLayer>> gat_, target_gat_;
  std::unique_ptr<nn::ProjectionHead> head_, target_head_;
  std::unique_ptr<core::Augmentation> augmentation_;
  std::unique_ptr<core::NegativeSampler> sampler_;
  std::unique_ptr<sarn::tensor::Adam> adam_;
  std::vector<Tensor> online_no_features_, target_;
  sarn::Rng rng_;
  std::vector<int64_t> order_;
  core::GraphView view1_, view2_;
  int64_t next_batch_ = 0;
};

/// Median span duration (ms) of `name`, skipping the first (warm-up) call.
double SpanMedianMs(const SpanRecorder& rec, const std::string& name) {
  std::vector<double> all = rec.DurationsMs(name);
  if (all.size() > 1) all.erase(all.begin());
  return Median(all);
}

void TrainLayers(const Flags& flags, SpanRecorder& rec, JsonOut& out) {
  const std::string path = flags.Str("network");
  // The trainer runs 2 epochs (the second is steady); the layer steps are
  // timed over 6 traced steps, and each thread count of the sweep over 3.
  constexpr int epochs = 2, steps = 6, sweep_steps = 3;

  std::optional<sarn::roadnet::RoadNetwork> network;
  for (int i = 0; i < 3; ++i) {
    SpanRecorder::Scope span(rec, "roadnet.load_csv");
    network = sarn::roadnet::LoadRoadNetworkCsv(path);
  }
  if (!network.has_value()) throw std::runtime_error("cannot load " + path);
  const core::SarnConfig config = CliConfig(*network, epochs);
  std::unique_ptr<core::SarnModel> model;
  for (int i = 0; i < 3; ++i) {
    SpanRecorder::Scope span(rec, "core.model_init");
    model = std::make_unique<core::SarnModel>(*network, config);
  }
  out.Num("roadnet.load_csv_ms", Median(rec.DurationsMs("roadnet.load_csv")))
      .Num("core.model_init_ms", Median(rec.DurationsMs("core.model_init")));

  // The trainer itself, through its MetricsSink; the last epoch is steady.
  EpochCapture capture;
  core::TrainOptions options;
  options.metrics_sink = &capture;
  model->Train(options);  // Timed through the sink, not a span.
  const sarn::obs::EpochRecord& last = capture.last;
  const double threads = static_cast<double>(sarn::GetParallelThreads());
  out.Num("train.phase.target_forward_ms", Phase(last, "target_forward"))
      .Num("train.phase.online_forward_ms", Phase(last, "online_forward"))
      .Num("train.phase.loss_ms", Phase(last, "loss"))
      .Num("train.phase.backward_ms", Phase(last, "backward"))
      .Num("train.phase.optimizer_ms", Phase(last, "optimizer_step"))
      .Num("tensor.pool_misses_per_step",
           static_cast<double>(capture.misses_delta) / std::max(1, last.batches))
      .Num("parallel.busy_cores", capture.cpu_delta / std::max(1e-9, capture.wall_delta))
      .Num("parallel.idle_share",
           threads > 1 ? last.pool_idle_seconds / ((threads - 1) * last.epoch_seconds) : 0.0);

  // Layer-by-layer steps: traced and untraced runs alternate so the tracing
  // overhead is their difference.
  LayerStep layers(*network, config);
  SpanRecorder off(false);
  layers.NewViews(rec);
  layers.Step(off);  // Warm-up: fills the buffer pool.
  double traced_s = 0.0, untraced_s = 0.0;
  for (int i = 0; i < steps; ++i) {
    int64_t t = SpanRecorder::NowNs();
    layers.Step(rec);
    traced_s += static_cast<double>(SpanRecorder::NowNs() - t) * 1e-9;
    t = SpanRecorder::NowNs();
    layers.Step(off);
    untraced_s += static_cast<double>(SpanRecorder::NowNs() - t) * 1e-9;
  }
  for (const char* name :
       {"nn.feature_embed.fwd", "nn.gat.layer0.fwd", "nn.gat.layer0.bwd", "nn.gat.layer1.fwd",
        "nn.gat.layer1.bwd", "nn.head.fwd", "nn.head.bwd", "core.augment_view",
        "core.sampler_loss", "core.sampler_loss.bwd", "tensor.adam_step"}) {
    out.Num(std::string(name) + "_ms", SpanMedianMs(rec, name));
  }
  out.Num("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / std::max(1e-9, untraced_s));

  // Thread sweep of the same step.
  const size_t default_threads = sarn::GetParallelThreads();
  for (size_t t : {1, 2, 4}) {
    sarn::SetParallelThreads(t);
    layers.Step(off);
    std::vector<double> ms;
    for (int i = 0; i < sweep_steps; ++i) {
      int64_t start = SpanRecorder::NowNs();
      layers.Step(off);
      ms.push_back(static_cast<double>(SpanRecorder::NowNs() - start) * 1e-6);
    }
    out.Num("train.step_ms.t" + std::to_string(t), Median(ms));
  }
  sarn::SetParallelThreads(default_threads);
}

/// Runs `body` `calls` times inside one span; returns microseconds per call,
/// median over `batches` spans.
template <typename Body>
double PerCallUs(SpanRecorder& rec, const std::string& name, int batches, int calls, Body body) {
  std::vector<double> us;
  for (int b = 0; b < batches; ++b) {
    SpanRecorder::Scope span(rec, name);
    int64_t start = SpanRecorder::NowNs();
    for (int i = 0; i < calls; ++i) body(i);
    us.push_back(static_cast<double>(SpanRecorder::NowNs() - start) * 1e-3 / calls);
  }
  return Median(us);
}

void ServeLayers(const Flags& flags, SpanRecorder& rec, JsonOut& out) {
  namespace tasks = sarn::tasks;
  const auto precision = flags.Num("quantized", 0) != 0 ? tasks::IndexPrecision::kInt8
                                                         : tasks::IndexPrecision::kFloat32;
  sarn::snapshot::LoadedSnapshot loaded;
  for (int i = 0; i < 5; ++i) {
    SpanRecorder::Scope span(rec, "snapshot.load");
    loaded = sarn::snapshot::LoadedSnapshot();
    if (!sarn::snapshot::LoadServingSnapshot(flags.Str("snapshot"), precision, &loaded).ok()) {
      throw std::runtime_error("cannot load snapshot");
    }
  }
  out.Num("snapshot.load_ms", Median(rec.DurationsMs("snapshot.load")));
  const tasks::EmbeddingIndex& index = *loaded.index;
  const int64_t n = index.size();

  std::vector<tasks::IndexQuery> one(1), many(64);
  out.Num("index.query_us.b1", PerCallUs(rec, "index.query_b1", 100, 1, [&](int i) {
        one[0] = tasks::IndexQuery::ById((i * 7919) % n);
        (void)index.QueryBatch(one, 10);
      }));
  out.Num("index.query_us.b64", PerCallUs(rec, "index.query_b64", 15, 1, [&](int i) {
        for (int q = 0; q < 64; ++q) many[q] = tasks::IndexQuery::ById((i * 64 + q) * 104729 % n);
        (void)index.QueryBatch(many, 10);
      }));

  std::string id_line = "{\"op\":\"query\",\"id\":1234,\"k\":10}";
  std::string vector_line = "{\"op\":\"query\",\"vector\":[";
  for (int64_t j = 0; j < index.dim(); ++j) {
    vector_line += (j ? "," : "") + std::to_string(0.0123456789 * static_cast<double>(j % 17) - 0.1);
  }
  vector_line += "],\"k\":10}";
  out.Num("serve.parse_us.id", PerCallUs(rec, "serve.parse_id", 7, 5000, [&](int) {
        (void)sarn::serve::ParseRequestLine(id_line, 10);
      }));
  out.Num("serve.parse_us.vector", PerCallUs(rec, "serve.parse_vector", 7, 1000, [&](int) {
        (void)sarn::serve::ParseRequestLine(vector_line, 10);
      }));
  sarn::serve::ServeResponse response;
  response.ok = true;
  response.epoch = 1;
  response.query_id = 1234;
  for (const tasks::Neighbor& neighbor : index.QueryById(1234 % n, 10)) {
    response.neighbors.push_back(neighbor);
  }
  out.Num("serve.format_us", PerCallUs(rec, "serve.format", 7, 5000, [&](int i) {
        (void)sarn::serve::FormatResponseLine(static_cast<uint64_t>(i), response);
      }));

  // Nearest-segment lookup over the city's midpoints, with the cell side the
  // serve CLI derives from the midpoint spacing.
  auto network = sarn::roadnet::LoadRoadNetworkCsv(flags.Str("serve-network"));
  if (!network.has_value()) throw std::runtime_error("cannot load --serve-network");
  std::vector<sarn::geo::LatLng> midpoints = network->Midpoints();
  sarn::geo::BoundingBox box = sarn::geo::BoundingBox::Empty();
  for (const auto& p : midpoints) box.Extend(p);
  double cell = std::clamp(
      std::sqrt(box.WidthMeters() * box.HeightMeters() / static_cast<double>(midpoints.size())),
      25.0, 2000.0);
  sarn::geo::SpatialIndex locator(midpoints, cell);
  out.Num("geo.locate_us", PerCallUs(rec, "geo.locate", 7, 2000, [&](int i) {
        const auto& m = midpoints[static_cast<size_t>(i * 31) % midpoints.size()];
        (void)locator.Nearest({m.lat + 1e-5 * ((i % 7) - 3), m.lng + 1e-5 * ((i % 5) - 2)});
      }));
}

}  // namespace

int RunLayers(const Flags& flags) {
  SpanRecorder rec(true);
  JsonOut out;
  TrainLayers(flags, rec, out);
  ServeLayers(flags, rec, out);
  for (const auto& [module, ms] : rec.SelfMsByModule()) out.Num("self_ms." + module, ms);
  if (!rec.WriteChromeTrace(flags.Str("trace-out"))) throw std::runtime_error("cannot write trace");
  if (!out.WriteFile(flags.Str("out"))) throw std::runtime_error("cannot write --out");
  return 0;
}

}  // namespace perfbench
