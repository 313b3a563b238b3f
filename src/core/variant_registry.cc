#include "core/variant_registry.h"

namespace sarn::core {
namespace {

AugmentationConfig CorruptionConfigOf(const SarnConfig& config) {
  AugmentationConfig augmentation;
  augmentation.rho_t = config.rho_t;
  augmentation.rho_s = config.rho_s;
  augmentation.epsilon = config.epsilon;
  return augmentation;
}

template <typename Map>
std::vector<std::string> SortedKeys(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, factory] : map) names.push_back(name);
  return names;  // std::map iterates in sorted order.
}

}  // namespace

VariantRegistry::VariantRegistry() {
  encoders_["gat"] = [](const VariantContext& context, Rng& rng) {
    return MakeGatEncoder(*context.config, context.input_dim, rng);
  };
  encoders_["rfn"] = [](const VariantContext& context, Rng& rng) {
    return MakeRfnEncoder(*context.config, context.input_dim, rng);
  };

  augmentations_["spatial-importance"] = [](const VariantContext& context) {
    return MakeSpatialImportanceAugmentation(*context.network, *context.spatial_edges,
                                             CorruptionConfigOf(*context.config));
  };
  augmentations_["third-law"] = [](const VariantContext& context) {
    ThirdLawConfig third_law;
    third_law.radius_meters = context.config->third_law_radius_meters;
    third_law.min_similarity = context.config->third_law_min_similarity;
    third_law.neighbors = context.config->third_law_neighbors;
    return MakeThirdLawAugmentation(*context.network, *context.spatial_edges,
                                    CorruptionConfigOf(*context.config), third_law);
  };
  augmentations_["uniform-drop"] = [](const VariantContext& context) {
    return MakeUniformDropAugmentation(*context.network, *context.features,
                                       context.config->edge_drop_rate,
                                       context.config->feature_mask_rate);
  };
  augmentations_["adaptive-drop"] = [](const VariantContext& context) {
    return MakeAdaptiveDropAugmentation(*context.network,
                                        context.config->edge_drop_rate,
                                        context.config->epsilon);
  };

  samplers_["spatial"] = [](const VariantContext& context) {
    return MakeSpatialNegativeSampler(*context.network, *context.config);
  };
  samplers_["random"] = [](const VariantContext& context) {
    return MakeRandomNegativeSampler(*context.network, *context.config);
  };
  samplers_["in-batch"] = [](const VariantContext& context) {
    return MakeInBatchNegativeSampler(*context.config);
  };
  samplers_["all-vertex"] = [](const VariantContext& context) {
    return MakeAllVertexNegativeSampler(*context.config);
  };
}

VariantRegistry& VariantRegistry::Instance() {
  static VariantRegistry* registry = new VariantRegistry();
  return *registry;
}

bool VariantRegistry::HasEncoder(const std::string& name) const {
  return encoders_.count(name) != 0;
}

bool VariantRegistry::HasAugmentation(const std::string& name) const {
  return augmentations_.count(name) != 0;
}

bool VariantRegistry::HasSampler(const std::string& name) const {
  return samplers_.count(name) != 0;
}

std::unique_ptr<Encoder> VariantRegistry::MakeEncoder(const std::string& name,
                                                      const VariantContext& context,
                                                      Rng& rng) const {
  auto it = encoders_.find(name);
  if (it == encoders_.end()) return nullptr;
  return it->second(context, rng);
}

std::unique_ptr<Augmentation> VariantRegistry::MakeAugmentation(
    const std::string& name, const VariantContext& context) const {
  auto it = augmentations_.find(name);
  if (it == augmentations_.end()) return nullptr;
  return it->second(context);
}

std::unique_ptr<NegativeSampler> VariantRegistry::MakeSampler(
    const std::string& name, const VariantContext& context) const {
  auto it = samplers_.find(name);
  if (it == samplers_.end()) return nullptr;
  return it->second(context);
}

std::vector<std::string> VariantRegistry::EncoderNames() const {
  return SortedKeys(encoders_);
}

std::vector<std::string> VariantRegistry::AugmentationNames() const {
  return SortedKeys(augmentations_);
}

std::vector<std::string> VariantRegistry::SamplerNames() const {
  return SortedKeys(samplers_);
}

VariantTag ResolvedVariantTag(const SarnConfig& config) {
  VariantTag tag;
  tag.encoder = config.encoder.empty() ? "gat" : config.encoder;
  tag.augmentation =
      config.augmentation.empty() ? "spatial-importance" : config.augmentation;
  tag.negatives = config.negatives.empty() ? "spatial" : config.negatives;
  if (!config.use_spatial_negatives && tag.negatives == "spatial") {
    tag.negatives = "random";
  }
  return tag;
}

}  // namespace sarn::core
