// Name-keyed registry of the contrastive plane's pluggable pieces
// (DESIGN.md §16): encoders, augmentations, and negative samplers. SarnModel
// resolves its configured variant names here; the CLI and tests enumerate
// the registered names to expose/exercise every variant without hard-coding
// the list anywhere else. The set of variants is fixed: the constructor
// registers every built-in, and a new variant is added there.

#ifndef SARN_CORE_VARIANT_REGISTRY_H_
#define SARN_CORE_VARIANT_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/augmentation.h"
#include "core/checkpoint_tags.h"
#include "core/encoder.h"
#include "core/negative_sampler.h"
#include "core/sarn_config.h"
#include "core/spatial_similarity.h"
#include "roadnet/features.h"
#include "roadnet/road_network.h"

namespace sarn::core {

/// Everything a variant factory may need. All pointers outlive the created
/// variant (they reference SarnModel members).
struct VariantContext {
  const roadnet::RoadNetwork* network = nullptr;
  const SarnConfig* config = nullptr;
  const roadnet::SegmentFeatures* features = nullptr;
  const std::vector<SpatialEdge>* spatial_edges = nullptr;
  /// Encoder input width d_f (the feature-embedding output dimension).
  int64_t input_dim = 0;
};

class VariantRegistry {
 public:
  using EncoderFactory =
      std::function<std::unique_ptr<Encoder>(const VariantContext&, Rng&)>;
  using AugmentationFactory =
      std::function<std::unique_ptr<Augmentation>(const VariantContext&)>;
  using SamplerFactory =
      std::function<std::unique_ptr<NegativeSampler>(const VariantContext&)>;

  /// The process-wide registry, with built-ins already registered.
  static VariantRegistry& Instance();

  bool HasEncoder(const std::string& name) const;
  bool HasAugmentation(const std::string& name) const;
  bool HasSampler(const std::string& name) const;

  /// Construct a registered variant; nullptr for unknown names. The encoder
  /// factory draws its initial weights from `rng` (the caller controls the
  /// initialization stream).
  std::unique_ptr<Encoder> MakeEncoder(const std::string& name,
                                       const VariantContext& context, Rng& rng) const;
  std::unique_ptr<Augmentation> MakeAugmentation(const std::string& name,
                                                 const VariantContext& context) const;
  std::unique_ptr<NegativeSampler> MakeSampler(const std::string& name,
                                               const VariantContext& context) const;

  /// Registered names, sorted (stable enumeration for CLI help and tests).
  std::vector<std::string> EncoderNames() const;
  std::vector<std::string> AugmentationNames() const;
  std::vector<std::string> SamplerNames() const;

 private:
  VariantRegistry();

  std::map<std::string, EncoderFactory> encoders_;
  std::map<std::string, AugmentationFactory> augmentations_;
  std::map<std::string, SamplerFactory> samplers_;
};

/// Resolves a config's variant names to the registry names a model built
/// from it will use: empty strings fall back to the paper defaults, and the
/// legacy ablation switch use_spatial_negatives = false maps "spatial"
/// negatives to "random" (SARN-w/o-NL predates the named plane).
VariantTag ResolvedVariantTag(const SarnConfig& config);

}  // namespace sarn::core

#endif  // SARN_CORE_VARIANT_REGISTRY_H_
