#include "core/sarn_model.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/contrastive_trainer.h"
#include "core/variant_registry.h"
#include "tensor/ops.h"

namespace sarn::core {

void FitCellSideToNetwork(SarnConfig& config, const roadnet::RoadNetwork& network,
                          int target_cells_per_axis) {
  SARN_CHECK_GT(target_cells_per_axis, 0);
  double extent = std::max(network.bounding_box().WidthMeters(),
                           network.bounding_box().HeightMeters());
  config.cell_side_meters =
      std::clamp(extent / target_cells_per_axis, 150.0, 1200.0);
}

namespace {

using tensor::Tensor;

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

}  // namespace

SarnModel::SarnModel(const roadnet::RoadNetwork& network, SarnConfig config)
    : network_(&network), config_(std::move(config)) {
  SARN_CHECK_GT(network.num_segments(), 1);
  variant_tag_ = ResolvedVariantTag(config_);
  features_ = roadnet::FeaturizeSegments(network);

  if (config_.use_spatial_matrix) {
    SpatialSimilarityConfig similarity_config;
    similarity_config.delta_ds_meters = config_.delta_ds_meters;
    similarity_config.delta_as_radians = config_.delta_as_radians;
    similarity_config.max_spatial_neighbors = config_.max_spatial_neighbors;
    spatial_edges_ = BuildSpatialEdges(network, similarity_config);
  }
  full_edges_ = FullEdgeList(network.topo_edges(), spatial_edges_);
  full_view_ = FullGraphView(network.topo_edges(), spatial_edges_);

  VariantRegistry& registry = VariantRegistry::Instance();
  VariantContext context;
  context.network = network_;
  context.config = &config_;
  context.features = &features_;
  context.spatial_edges = &spatial_edges_;

  // Initialization draws from one seeded stream, in member order: feature
  // embedding, online encoder, online head, target encoder, target head.
  // This order is a compatibility contract — changing it changes every
  // trained result (the golden-trace test pins it).
  Rng init_rng(config_.seed);
  std::vector<int64_t> feature_dims(features_.vocab_sizes.size(),
                                    config_.feature_dim_per_feature);
  feature_embedding_ = std::make_unique<nn::FeatureEmbedding>(features_.vocab_sizes,
                                                              feature_dims, init_rng);
  context.input_dim = feature_embedding_->output_dim();
  SARN_CHECK(registry.HasEncoder(variant_tag_.encoder))
      << "unknown encoder \"" << variant_tag_.encoder
      << "\" (registered: " << JoinNames(registry.EncoderNames()) << ")";
  SARN_CHECK(registry.HasAugmentation(variant_tag_.augmentation))
      << "unknown augmentation \"" << variant_tag_.augmentation
      << "\" (registered: " << JoinNames(registry.AugmentationNames()) << ")";
  SARN_CHECK(registry.HasSampler(variant_tag_.negatives))
      << "unknown negative sampler \"" << variant_tag_.negatives
      << "\" (registered: " << JoinNames(registry.SamplerNames()) << ")";
  online_encoder_ = registry.MakeEncoder(variant_tag_.encoder, context, init_rng);
  online_head_ = std::make_unique<nn::ProjectionHead>(
      config_.embedding_dim, config_.embedding_dim, config_.projection_dim, init_rng);
  target_encoder_ = registry.MakeEncoder(variant_tag_.encoder, context, init_rng);
  target_head_ = std::make_unique<nn::ProjectionHead>(
      config_.embedding_dim, config_.embedding_dim, config_.projection_dim, init_rng);
  target_encoder_->CopyWeightsFrom(*online_encoder_);
  target_head_->CopyWeightsFrom(*online_head_);

  augmentation_ = registry.MakeAugmentation(variant_tag_.augmentation, context);
  sampler_ = registry.MakeSampler(variant_tag_.negatives, context);
}

void SarnModel::BindField(const GraphView& view, ReceptiveField* field) const {
  field->Bind(view, view.masked_ids.empty() ? features_.ids : view.masked_ids,
              network_->num_segments(), config_.gat_layers);
}

Tensor SarnModel::OnlineEncode(const ReceptiveField& field) const {
  Tensor x = feature_embedding_->Forward(field.input_ids());
  return online_encoder_->Forward(x, field.layers());
}

Tensor SarnModel::TargetProject(const ReceptiveField& field) const {
  Tensor x = feature_embedding_->Forward(field.input_ids());
  Tensor h = target_encoder_->Forward(x, field.layers());
  return tensor::RowL2Normalize(target_head_->Forward(h));
}

Tensor SarnModel::EncodeFullGraph() const {
  ReceptiveField field;
  BindField(full_view_, &field);
  return OnlineEncode(field);
}

Tensor SarnModel::ComputeLoss(const Tensor& z, const Tensor& z_prime,
                              const std::vector<int64_t>& batch, Rng& rng) const {
  return sampler_->ComputeLoss(z, z_prime, Tensor(), batch, rng);
}

TrainStats SarnModel::Train() { return Train(TrainOptions{}); }

TrainStats SarnModel::Train(const TrainOptions& options) {
  ContrastiveTrainer trainer(*this);
  return trainer.Run(options);
}

std::vector<Tensor> SarnModel::TargetParameters() const {
  std::vector<Tensor> params = target_encoder_->Parameters();
  for (const Tensor& p : target_head_->Parameters()) params.push_back(p);
  return params;
}

Tensor SarnModel::Embeddings() const {
  tensor::NoGradGuard guard;
  return EncodeFullGraph();
}

Tensor SarnModel::EncodeForFineTune() const { return EncodeFullGraph(); }

std::vector<Tensor> SarnModel::FineTuneParameters() const {
  return online_encoder_->FinalLayerParameters();
}

bool SarnModel::SaveWeights(const std::string& path) const {
  return nn::SaveParameters(path, OnlineParameters());
}

bool SarnModel::LoadWeights(const std::string& path) {
  if (!nn::LoadParameters(path, OnlineParameters())) return false;
  target_encoder_->CopyWeightsFrom(*online_encoder_);
  target_head_->CopyWeightsFrom(*online_head_);
  return true;
}

ModelLoadStatus SarnModel::LoadFromTrainingCheckpoint(const std::string& path) {
  auto fail = [&path](ModelLoadError error, std::string message) {
    ModelLoadStatus status;
    status.error = error;
    status.message = path + ": " + std::move(message);
    SARN_LOG(Warning) << "checkpoint " << status.message;
    return status;
  };
  nn::TrainingCheckpoint ckpt;
  nn::CheckpointStatus ckpt_status = nn::LoadCheckpoint(path, &ckpt);
  if (!ckpt_status.ok()) {
    return fail(ModelLoadError::kParseError, ckpt_status.message);
  }
  // Variant compatibility first: a mismatched combo must fail with the two
  // combos named, never as a downstream tensor-shape mismatch.
  const std::string* variant = ckpt.FindSection(kSectionVariant);
  if (variant != nullptr) {
    VariantTag tag;
    ByteReader variant_in(*variant);
    if (!ReadVariantTag(variant_in, &tag)) {
      return fail(ModelLoadError::kParseError, "corrupt variant tag");
    }
    if (tag != variant_tag_) {
      return fail(ModelLoadError::kVariantMismatch,
                  "checkpoint was trained with " + VariantTagString(tag) +
                      " but this model composes " + VariantTagString(variant_tag_));
    }
  }
  const std::string* online = ckpt.FindSection(kSectionOnline);
  if (online == nullptr) {
    return fail(ModelLoadError::kParseError,
                std::string("no ") + kSectionOnline + " section");
  }
  ByteReader in(*online);
  ckpt_status = nn::ReadTensorsInto(in, OnlineParameters());
  if (!ckpt_status.ok()) {
    return fail(ModelLoadError::kArchitectureMismatch, ckpt_status.message);
  }
  target_encoder_->CopyWeightsFrom(*online_encoder_);
  target_head_->CopyWeightsFrom(*online_head_);
  return ModelLoadStatus{};
}

std::vector<Tensor> SarnModel::OnlineParameters() const {
  std::vector<Tensor> params = feature_embedding_->Parameters();
  for (const Tensor& p : online_encoder_->Parameters()) params.push_back(p);
  for (const Tensor& p : online_head_->Parameters()) params.push_back(p);
  return params;
}

// --- Unified model-state loading -------------------------------------------

const char* ModelLoadErrorName(ModelLoadError error) {
  switch (error) {
    case ModelLoadError::kOk: return "ok";
    case ModelLoadError::kFileNotFound: return "file_not_found";
    case ModelLoadError::kParseError: return "parse_error";
    case ModelLoadError::kArchitectureMismatch: return "architecture_mismatch";
    case ModelLoadError::kVariantMismatch: return "variant_mismatch";
    case ModelLoadError::kUnsupportedFormat: return "unsupported_format";
  }
  return "unknown";
}

namespace {

SarnModel::SnapshotLoader g_snapshot_loader = nullptr;

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ModelLoadResult LoadFail(ModelLoadError error, std::string message) {
  ModelLoadResult result;
  result.error = error;
  result.message = std::move(message);
  return result;
}

ModelLoadResult LoadEmbeddingsCsvSource(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    return LoadFail(ModelLoadError::kFileNotFound, "cannot open " + path);
  }
  auto table = ReadCsvFile(path, /*has_header=*/false);
  if (!table.has_value() || table->rows.empty()) {
    return LoadFail(ModelLoadError::kParseError, path + ": not a CSV table");
  }
  int64_t n = static_cast<int64_t>(table->rows.size());
  int64_t d = static_cast<int64_t>(table->rows[0].size());
  std::vector<float> data;
  data.reserve(static_cast<size_t>(n * d));
  for (size_t i = 0; i < table->rows.size(); ++i) {
    const auto& row = table->rows[i];
    if (static_cast<int64_t>(row.size()) != d) {
      return LoadFail(ModelLoadError::kParseError,
                      path + ": row " + std::to_string(i) + " has " +
                          std::to_string(row.size()) + " cells, expected " +
                          std::to_string(d));
    }
    for (const std::string& cell : row) {
      auto value = ParseDouble(cell);
      if (!value.has_value()) {
        return LoadFail(ModelLoadError::kParseError,
                        path + ": non-numeric cell \"" + cell + "\"");
      }
      data.push_back(static_cast<float>(*value));
    }
  }
  ModelLoadResult result;
  result.embeddings = Tensor::FromVector({n, d}, std::move(data));
  return result;
}

ModelLoadResult LoadCheckpointSource(const ModelLoadSource& source) {
  if (source.network == nullptr) {
    return LoadFail(ModelLoadError::kArchitectureMismatch,
                    "checkpoint restore needs the network (and config) the "
                    "encoder runs on");
  }
  if (!std::filesystem::exists(source.path)) {
    return LoadFail(ModelLoadError::kFileNotFound, "cannot open " + source.path);
  }
  auto model = std::make_unique<SarnModel>(*source.network, source.config);
  ModelLoadStatus status = model->LoadFromTrainingCheckpoint(source.path);
  if (!status.ok()) {
    return LoadFail(status.error, status.message);
  }
  ModelLoadResult result;
  result.embeddings = model->Embeddings();
  result.model = std::move(model);
  return result;
}

}  // namespace

void SarnModel::SetSnapshotLoader(SnapshotLoader loader) {
  g_snapshot_loader = loader;
}

ModelLoadResult SarnModel::Load(const ModelLoadSource& source) {
  ModelLoadSource::Kind kind = source.kind;
  if (kind == ModelLoadSource::Kind::kAuto) {
    if (PathEndsWith(source.path, ".sarnsnap")) {
      kind = ModelLoadSource::Kind::kSnapshot;
    } else if (PathEndsWith(source.path, ".sarnckpt")) {
      kind = ModelLoadSource::Kind::kTrainingCheckpoint;
    } else {
      kind = ModelLoadSource::Kind::kEmbeddingsCsv;
    }
  }
  switch (kind) {
    case ModelLoadSource::Kind::kEmbeddingsCsv:
      return LoadEmbeddingsCsvSource(source.path);
    case ModelLoadSource::Kind::kTrainingCheckpoint:
      return LoadCheckpointSource(source);
    case ModelLoadSource::Kind::kSnapshot:
      if (g_snapshot_loader == nullptr) {
        return LoadFail(ModelLoadError::kUnsupportedFormat,
                        "snapshot loading is not linked into this binary");
      }
      return g_snapshot_loader(source.path);
    case ModelLoadSource::Kind::kAuto:
      break;  // Resolved above.
  }
  return LoadFail(ModelLoadError::kUnsupportedFormat, "unknown source kind");
}

}  // namespace sarn::core
