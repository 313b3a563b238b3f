#include "core/augmentation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/check.h"
#include "geo/point.h"

namespace sarn::core {
namespace {

using PairKey = std::pair<roadnet::SegmentId, roadnet::SegmentId>;

PairKey KeyOf(roadnet::SegmentId a, roadnet::SegmentId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

double SigmaEpsilon(double x, double epsilon) {
  SARN_CHECK(epsilon >= 0.0 && epsilon < 0.5) << epsilon;
  return epsilon + x * (1.0 - 2.0 * epsilon);
}

double TopoCorruptionProbability(double weight, double min_weight, double max_weight,
                                 double epsilon) {
  double normalized =
      max_weight > min_weight ? (weight - min_weight) / (max_weight - min_weight) : 0.5;
  return SigmaEpsilon(1.0 - normalized, epsilon);
}

double SpatialCorruptionProbability(double weight, double epsilon) {
  return SigmaEpsilon(1.0 - weight, epsilon);
}

GraphView AugmentGraph(const std::vector<roadnet::TopoEdge>& topo_edges,
                       const std::vector<SpatialEdge>& spatial_edges,
                       const AugmentationConfig& config, Rng& rng) {
  SARN_CHECK(config.rho_t >= 0.0 && config.rho_t < 1.0) << config.rho_t;
  SARN_CHECK(config.rho_s >= 0.0 && config.rho_s < 1.0) << config.rho_s;

  // Eq. 6 normalisation bounds over non-zero topological weights.
  double min_w = 1e18, max_w = -1e18;
  for (const roadnet::TopoEdge& e : topo_edges) {
    min_w = std::min(min_w, e.weight);
    max_w = std::max(max_w, e.weight);
  }

  std::vector<bool> drop_topo(topo_edges.size(), false);
  std::vector<bool> drop_spatial(spatial_edges.size(), false);

  if (!topo_edges.empty() && config.rho_t > 0.0) {
    std::vector<double> weights(topo_edges.size());
    for (size_t i = 0; i < topo_edges.size(); ++i) {
      weights[i] =
          TopoCorruptionProbability(topo_edges[i].weight, min_w, max_w, config.epsilon);
    }
    size_t k = static_cast<size_t>(std::llround(config.rho_t * topo_edges.size()));
    for (size_t idx : rng.WeightedSampleWithoutReplacement(weights, k)) {
      drop_topo[idx] = true;
    }
  }
  if (!spatial_edges.empty() && config.rho_s > 0.0) {
    std::vector<double> weights(spatial_edges.size());
    for (size_t i = 0; i < spatial_edges.size(); ++i) {
      weights[i] = SpatialCorruptionProbability(spatial_edges[i].weight, config.epsilon);
    }
    size_t k = static_cast<size_t>(std::llround(config.rho_s * spatial_edges.size()));
    for (size_t idx : rng.WeightedSampleWithoutReplacement(weights, k)) {
      drop_spatial[idx] = true;
    }
  }

  // Dual-typed coupling: a pair removed in either matrix disappears from both.
  if (config.couple_dual_typed) {
    std::map<PairKey, std::vector<size_t>> topo_of_pair;
    for (size_t i = 0; i < topo_edges.size(); ++i) {
      topo_of_pair[KeyOf(topo_edges[i].from, topo_edges[i].to)].push_back(i);
    }
    std::map<PairKey, size_t> spatial_of_pair;
    for (size_t i = 0; i < spatial_edges.size(); ++i) {
      spatial_of_pair[KeyOf(spatial_edges[i].a, spatial_edges[i].b)] = i;
    }
    for (const auto& [key, topo_indices] : topo_of_pair) {
      auto it = spatial_of_pair.find(key);
      if (it == spatial_of_pair.end()) continue;
      bool any_topo_dropped = false;
      for (size_t idx : topo_indices) any_topo_dropped |= drop_topo[idx];
      if (any_topo_dropped || drop_spatial[it->second]) {
        for (size_t idx : topo_indices) drop_topo[idx] = true;
        drop_spatial[it->second] = true;
      }
    }
  }

  GraphView view;
  for (size_t i = 0; i < topo_edges.size(); ++i) {
    if (drop_topo[i]) continue;
    view.edges.Add(topo_edges[i].from, topo_edges[i].to);
    ++view.surviving_topo;
  }
  for (size_t i = 0; i < spatial_edges.size(); ++i) {
    if (drop_spatial[i]) continue;
    view.edges.Add(spatial_edges[i].a, spatial_edges[i].b);
    view.edges.Add(spatial_edges[i].b, spatial_edges[i].a);
    ++view.surviving_spatial;
  }
  return view;
}

nn::EdgeList FullEdgeList(const std::vector<roadnet::TopoEdge>& topo_edges,
                          const std::vector<SpatialEdge>& spatial_edges) {
  nn::EdgeList edges;
  for (const roadnet::TopoEdge& e : topo_edges) edges.Add(e.from, e.to);
  for (const SpatialEdge& e : spatial_edges) {
    edges.Add(e.a, e.b);
    edges.Add(e.b, e.a);
  }
  return edges;
}

GraphView FullGraphView(const std::vector<roadnet::TopoEdge>& topo_edges,
                        const std::vector<SpatialEdge>& spatial_edges) {
  GraphView view;
  view.edges = FullEdgeList(topo_edges, spatial_edges);
  view.surviving_topo = static_cast<int64_t>(topo_edges.size());
  view.surviving_spatial = static_cast<int64_t>(spatial_edges.size());
  return view;
}

// --- Pluggable augmentation strategies ---------------------------------------

namespace {

class SpatialImportanceAugmentation : public Augmentation {
 public:
  SpatialImportanceAugmentation(const roadnet::RoadNetwork& network,
                                const std::vector<SpatialEdge>& spatial_edges,
                                const AugmentationConfig& config)
      : network_(&network), spatial_edges_(&spatial_edges), config_(config) {}

  const char* name() const override { return "spatial-importance"; }

  GraphView MakeView(Rng& rng) const override {
    return AugmentGraph(network_->topo_edges(), *spatial_edges_, config_, rng);
  }

 private:
  const roadnet::RoadNetwork* network_;
  const std::vector<SpatialEdge>* spatial_edges_;
  AugmentationConfig config_;
};

class ThirdLawAugmentation : public Augmentation {
 public:
  ThirdLawAugmentation(const roadnet::RoadNetwork& network,
                       const std::vector<SpatialEdge>& spatial_edges,
                       const AugmentationConfig& config, const ThirdLawConfig& third_law)
      : base_(network, spatial_edges, config) {
    // Geographic-configuration similarity: cosine over the dense per-segment
    // feature vectors (type one-hot, length, orientation, normalized
    // position), restricted to *distant* pairs — nearby pairs are already
    // covered by the spatial-similarity matrix, the Third Law's contribution
    // is exactly the far-apart lookalikes.
    auto dense = roadnet::DenseSegmentFeatures(network);
    auto midpoints = network.Midpoints();
    int64_t n = network.num_segments();
    std::vector<double> norms(static_cast<size_t>(n), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      double sq = 0.0;
      for (float v : dense[static_cast<size_t>(i)]) sq += static_cast<double>(v) * v;
      norms[static_cast<size_t>(i)] = std::sqrt(sq);
    }
    std::map<PairKey, double> pairs;
    for (int64_t i = 0; i < n; ++i) {
      // Top `neighbors` configuration-similar distant segments for anchor i.
      std::vector<std::pair<double, int64_t>> best;
      for (int64_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (geo::HaversineMeters(midpoints[static_cast<size_t>(i)],
                                 midpoints[static_cast<size_t>(j)]) <
            third_law.radius_meters) {
          continue;
        }
        double dot = 0.0;
        const auto& a = dense[static_cast<size_t>(i)];
        const auto& b = dense[static_cast<size_t>(j)];
        for (size_t f = 0; f < a.size(); ++f) {
          dot += static_cast<double>(a[f]) * b[f];
        }
        double denom = norms[static_cast<size_t>(i)] * norms[static_cast<size_t>(j)];
        double sim = denom > 1e-12 ? dot / denom : 0.0;
        if (sim >= third_law.min_similarity) best.emplace_back(sim, j);
      }
      int keep = std::max(0, third_law.neighbors);
      if (static_cast<int>(best.size()) > keep) {
        std::partial_sort(best.begin(), best.begin() + keep, best.end(),
                          [](const auto& x, const auto& y) {
                            return x.first > y.first ||
                                   (x.first == y.first && x.second < y.second);
                          });
        best.resize(static_cast<size_t>(keep));
      }
      for (const auto& [sim, j] : best) pairs[KeyOf(i, j)] = sim;
    }
    for (const auto& [key, sim] : pairs) {
      extra_edges_.push_back({key.first, key.second});
    }
  }

  const char* name() const override { return "third-law"; }

  GraphView MakeView(Rng& rng) const override {
    GraphView view = base_.MakeView(rng);
    // Deterministic injection (no RNG): the same configuration-similar pairs
    // appear in every view, as both directions of a spatial-type edge.
    for (const auto& [a, b] : extra_edges_) {
      view.edges.Add(a, b);
      view.edges.Add(b, a);
      ++view.surviving_spatial;
    }
    return view;
  }

  size_t num_extra_pairs() const { return extra_edges_.size(); }

 private:
  SpatialImportanceAugmentation base_;
  std::vector<std::pair<roadnet::SegmentId, roadnet::SegmentId>> extra_edges_;
};

class UniformDropAugmentation : public Augmentation {
 public:
  UniformDropAugmentation(const roadnet::RoadNetwork& network,
                          const roadnet::SegmentFeatures& features,
                          double edge_drop_rate, double feature_mask_rate)
      : network_(&network),
        features_(&features),
        edge_drop_rate_(edge_drop_rate),
        feature_mask_rate_(feature_mask_rate) {}

  const char* name() const override { return "uniform-drop"; }

  GraphView MakeView(Rng& rng) const override {
    GraphView view;
    for (const roadnet::TopoEdge& e : network_->topo_edges()) {
      if (rng.Bernoulli(edge_drop_rate_)) continue;
      view.edges.Add(e.from, e.to);
      ++view.surviving_topo;
    }
    if (feature_mask_rate_ > 0.0) {
      // GraphCL's attribute masking: replaces a fraction of feature values
      // with bin 0 (an arbitrary shared "masked" id — the embedding learns
      // to treat it as low-information).
      view.masked_ids = features_->ids;
      for (auto& column : view.masked_ids) {
        for (int64_t& id : column) {
          if (rng.Bernoulli(feature_mask_rate_)) id = 0;
        }
      }
    }
    return view;
  }

 private:
  const roadnet::RoadNetwork* network_;
  const roadnet::SegmentFeatures* features_;
  double edge_drop_rate_;
  double feature_mask_rate_;
};

class AdaptiveDropAugmentation : public Augmentation {
 public:
  AdaptiveDropAugmentation(const roadnet::RoadNetwork& network, double mean_rate,
                           double epsilon)
      : network_(&network), mean_rate_(mean_rate), epsilon_(epsilon) {}

  const char* name() const override { return "adaptive-drop"; }

  GraphView MakeView(Rng& rng) const override {
    const auto& edges = network_->topo_edges();
    double min_w = 1e18, max_w = -1e18;
    for (const roadnet::TopoEdge& e : edges) {
      min_w = std::min(min_w, e.weight);
      max_w = std::max(max_w, e.weight);
    }
    GraphView view;
    for (const roadnet::TopoEdge& e : edges) {
      double normalized = max_w > min_w ? (e.weight - min_w) / (max_w - min_w) : 0.5;
      double drop =
          std::clamp(2.0 * mean_rate_ * (1.0 - normalized), epsilon_, 1.0 - epsilon_);
      if (rng.Bernoulli(drop)) continue;
      view.edges.Add(e.from, e.to);
      ++view.surviving_topo;
    }
    return view;
  }

 private:
  const roadnet::RoadNetwork* network_;
  double mean_rate_;
  double epsilon_;
};

}  // namespace

std::unique_ptr<Augmentation> MakeSpatialImportanceAugmentation(
    const roadnet::RoadNetwork& network, const std::vector<SpatialEdge>& spatial_edges,
    const AugmentationConfig& config) {
  return std::make_unique<SpatialImportanceAugmentation>(network, spatial_edges, config);
}

std::unique_ptr<Augmentation> MakeThirdLawAugmentation(
    const roadnet::RoadNetwork& network, const std::vector<SpatialEdge>& spatial_edges,
    const AugmentationConfig& config, const ThirdLawConfig& third_law) {
  return std::make_unique<ThirdLawAugmentation>(network, spatial_edges, config,
                                                third_law);
}

std::unique_ptr<Augmentation> MakeUniformDropAugmentation(
    const roadnet::RoadNetwork& network, const roadnet::SegmentFeatures& features,
    double edge_drop_rate, double feature_mask_rate) {
  return std::make_unique<UniformDropAugmentation>(network, features, edge_drop_rate,
                                                   feature_mask_rate);
}

std::unique_ptr<Augmentation> MakeAdaptiveDropAugmentation(
    const roadnet::RoadNetwork& network, double mean_rate, double epsilon) {
  return std::make_unique<AdaptiveDropAugmentation>(network, mean_rate, epsilon);
}

}  // namespace sarn::core
