// Graph-view augmentations for contrastive training.
//
// The default strategy is SARN's spatial importance-based corruption (paper
// §4.2, Technical Contribution 2): a view removes rho_t of the topological
// edges and rho_s of the spatial edges via weighted sampling WITHOUT
// replacement — an edge's probability of being picked for removal decreases
// with its importance weight (Eqs. 6-7), clamped into [epsilon, 1-epsilon]
// by sigma_epsilon. When a segment pair carries both edge types
// ("dual-typed"), sampling either one removes both.
//
// Alternative strategies live behind the core::Augmentation interface
// (DESIGN.md §16) and are chosen by name through the variant registry:
//  * "spatial-importance" — the paper's corruption above (default);
//  * "third-law"          — spatial-importance plus injected positive edges
//                           between geographically *distant* segments with
//                           near-identical geographic configuration (the
//                           Third Law of Geography; arXiv 2406.04038);
//  * "uniform-drop"       — GraphCL-style uniform edge dropping plus
//                           attribute masking, topological edges only;
//  * "adaptive-drop"      — GCA-style adaptive dropping (important edges by
//                           the Eq. 1 weights survive more often).

#ifndef SARN_CORE_AUGMENTATION_H_
#define SARN_CORE_AUGMENTATION_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/spatial_similarity.h"
#include "nn/gat.h"
#include "roadnet/features.h"
#include "roadnet/road_network.h"

namespace sarn::core {

struct AugmentationConfig {
  double rho_t = 0.4;
  double rho_s = 0.4;
  double epsilon = 0.05;
  /// Dual-typed coupling: removing either edge of a dual-typed pair removes
  /// both (paper §4.2). Exposed for the ablation bench.
  bool couple_dual_typed = true;
};

/// A corrupted graph view. `edges` is the flattened directed edge list a
/// single-relation encoder (GAT) consumes: surviving topological edges keep
/// their direction; surviving spatial edges contribute both directions.
/// `topo_edges`/`spatial_edges` hold the same survivors split by relation for
/// relational encoders (RFN) that aggregate each edge type separately.
struct GraphView {
  nn::EdgeList edges;
  nn::EdgeList topo_edges;
  nn::EdgeList spatial_edges;
  /// Optional per-view masked feature ids (GraphCL-style attribute masking),
  /// feature-major like roadnet::SegmentFeatures::ids; empty = the encoder
  /// uses the unmasked network features.
  std::vector<std::vector<int64_t>> masked_ids;
  int64_t surviving_topo = 0;
  int64_t surviving_spatial = 0;
};

/// sigma_epsilon: maps [0,1] -> [epsilon, 1-epsilon] linearly.
double SigmaEpsilon(double x, double epsilon);

/// Corruption probability of topological edge (i,j) given the min/max
/// non-zero weights of A^t (Eq. 6).
double TopoCorruptionProbability(double weight, double min_weight, double max_weight,
                                 double epsilon);

/// Corruption probability of a spatial edge (Eq. 7).
double SpatialCorruptionProbability(double weight, double epsilon);

/// Samples one corrupted view. Deterministic given `rng` state.
GraphView AugmentGraph(const std::vector<roadnet::TopoEdge>& topo_edges,
                       const std::vector<SpatialEdge>& spatial_edges,
                       const AugmentationConfig& config, Rng& rng);

/// The uncorrupted flattening of the same edges (used at inference and by
/// baselines): all topo edges plus both directions of all spatial edges.
nn::EdgeList FullEdgeList(const std::vector<roadnet::TopoEdge>& topo_edges,
                          const std::vector<SpatialEdge>& spatial_edges);

/// The uncorrupted graph as a GraphView (edges = FullEdgeList, relation
/// splits filled, no attribute mask) — what inference encodes over.
GraphView FullGraphView(const std::vector<roadnet::TopoEdge>& topo_edges,
                        const std::vector<SpatialEdge>& spatial_edges);

// --- Pluggable augmentation strategies (DESIGN.md §16) -----------------------

/// A graph-view generator. MakeView consumes `rng` deterministically: two
/// calls with the same RNG state produce the same view, which is what resume
/// bitwise identity relies on. Implementations hold references to the
/// network (and any precomputed structure) and must not mutate shared state
/// in MakeView.
class Augmentation {
 public:
  virtual ~Augmentation() = default;
  virtual const char* name() const = 0;
  virtual GraphView MakeView(Rng& rng) const = 0;
};

/// The paper's spatial importance-based corruption (Eqs. 6-7); wraps
/// AugmentGraph over the network's topological and spatial edges.
/// `network` and `spatial_edges` must outlive the augmentation.
std::unique_ptr<Augmentation> MakeSpatialImportanceAugmentation(
    const roadnet::RoadNetwork& network, const std::vector<SpatialEdge>& spatial_edges,
    const AugmentationConfig& config);

/// Third Law of Geography (arXiv 2406.04038) composed with spatial
/// importance: each view is first corrupted exactly like "spatial-importance"
/// and then receives deterministic extra spatial edges between segment pairs
/// that are geographically far apart (>= radius_meters between midpoints)
/// but have near-identical geographic configuration (cosine similarity of
/// their dense feature vectors >= min_similarity; top `neighbors` matches
/// per segment). Precomputation is O(n^2) over segments.
struct ThirdLawConfig {
  double radius_meters = 600.0;
  double min_similarity = 0.92;
  int neighbors = 2;
};
std::unique_ptr<Augmentation> MakeThirdLawAugmentation(
    const roadnet::RoadNetwork& network, const std::vector<SpatialEdge>& spatial_edges,
    const AugmentationConfig& config, const ThirdLawConfig& third_law);

/// GraphCL-style view: uniform edge dropping over topological edges only,
/// plus attribute masking (a fraction of feature ids replaced by the shared
/// bin 0). `features` must outlive the augmentation.
std::unique_ptr<Augmentation> MakeUniformDropAugmentation(
    const roadnet::RoadNetwork& network, const roadnet::SegmentFeatures& features,
    double edge_drop_rate, double feature_mask_rate);

/// GCA-style view: adaptive edge dropping over topological edges — the drop
/// probability scales inversely with the Eq. 1 importance weight, centred on
/// `mean_rate` and clamped into [epsilon, 1-epsilon].
std::unique_ptr<Augmentation> MakeAdaptiveDropAugmentation(
    const roadnet::RoadNetwork& network, double mean_rate, double epsilon);

}  // namespace sarn::core

#endif  // SARN_CORE_AUGMENTATION_H_
