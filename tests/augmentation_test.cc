#include "core/augmentation.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/variant_registry.h"
#include "roadnet/features.h"
#include "roadnet/synthetic_city.h"

namespace sarn::core {
namespace {

// The view contract the encoders rely on: `edges` holds surviving_topo
// topological edges, in the network's order, then both directions of each
// of the surviving_spatial spatial edges.
void ExpectTopoThenSpatial(const GraphView& view, const roadnet::RoadNetwork& network) {
  ASSERT_EQ(static_cast<int64_t>(view.edges.size()),
            view.surviving_topo + 2 * view.surviving_spatial);
  const auto& topo = network.topo_edges();
  size_t next = 0;
  for (int64_t e = 0; e < view.surviving_topo; ++e) {
    const int64_t src = view.edges.src[static_cast<size_t>(e)];
    const int64_t dst = view.edges.dst[static_cast<size_t>(e)];
    while (next < topo.size() && (topo[next].from != src || topo[next].to != dst)) ++next;
    ASSERT_LT(next, topo.size()) << "edge " << e << " is not the next topological edge";
    ++next;
  }
  for (size_t e = static_cast<size_t>(view.surviving_topo); e < view.edges.size();
       e += 2) {
    EXPECT_EQ(view.edges.src[e], view.edges.dst[e + 1]) << "edge " << e;
    EXPECT_EQ(view.edges.dst[e], view.edges.src[e + 1]) << "edge " << e;
  }
}

class AugmentationTest : public testing::Test {
 protected:
  AugmentationTest() {
    roadnet::SyntheticCityConfig config;
    config.rows = 12;
    config.cols = 12;
    network_ = roadnet::GenerateSyntheticCity(config);
    spatial_edges_ = BuildSpatialEdges(network_, SpatialSimilarityConfig{});
  }

  roadnet::RoadNetwork network_;
  std::vector<SpatialEdge> spatial_edges_;
};

TEST(SigmaEpsilonTest, MapsIntoClampedRange) {
  EXPECT_DOUBLE_EQ(SigmaEpsilon(0.0, 0.05), 0.05);
  EXPECT_DOUBLE_EQ(SigmaEpsilon(1.0, 0.05), 0.95);
  EXPECT_DOUBLE_EQ(SigmaEpsilon(0.5, 0.05), 0.5);
}

TEST(CorruptionProbabilityTest, HeavierEdgesLessLikelyRemoved) {
  // Eq. 6: weight at max -> minimum probability epsilon.
  EXPECT_DOUBLE_EQ(TopoCorruptionProbability(6.0, 2.0, 6.0, 0.05), 0.05);
  EXPECT_DOUBLE_EQ(TopoCorruptionProbability(2.0, 2.0, 6.0, 0.05), 0.95);
  EXPECT_GT(TopoCorruptionProbability(3.0, 2.0, 6.0, 0.05),
            TopoCorruptionProbability(5.0, 2.0, 6.0, 0.05));
}

TEST(CorruptionProbabilityTest, DegenerateWeightRange) {
  // All weights equal: probability is the clamped midpoint, not NaN.
  double p = TopoCorruptionProbability(4.0, 4.0, 4.0, 0.05);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(CorruptionProbabilityTest, SpatialUsesWeightDirectly) {
  // Eq. 7: higher similarity -> lower removal probability.
  EXPECT_GT(SpatialCorruptionProbability(0.2, 0.05),
            SpatialCorruptionProbability(0.9, 0.05));
  EXPECT_DOUBLE_EQ(SpatialCorruptionProbability(1.0, 0.05), 0.05);
}

TEST_F(AugmentationTest, RemovesRequestedFractions) {
  AugmentationConfig config;
  config.rho_t = 0.4;
  config.rho_s = 0.4;
  config.couple_dual_typed = false;  // Exact counts without coupling.
  Rng rng(1);
  GraphView view = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
  int64_t expected_topo = static_cast<int64_t>(
      network_.topo_edges().size() - std::llround(0.4 * network_.topo_edges().size()));
  int64_t expected_spatial = static_cast<int64_t>(
      spatial_edges_.size() - std::llround(0.4 * spatial_edges_.size()));
  EXPECT_EQ(view.surviving_topo, expected_topo);
  EXPECT_EQ(view.surviving_spatial, expected_spatial);
  // Spatial edges contribute two directed edges each.
  ExpectTopoThenSpatial(view, network_);
}

TEST_F(AugmentationTest, EveryRegisteredAugmentationListsTopoThenSpatial) {
  const SarnConfig config;
  const roadnet::SegmentFeatures features = roadnet::FeaturizeSegments(network_);
  VariantContext context;
  context.network = &network_;
  context.config = &config;
  context.features = &features;
  context.spatial_edges = &spatial_edges_;
  VariantRegistry& registry = VariantRegistry::Instance();
  for (const std::string& name : registry.AugmentationNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Augmentation> augmentation = registry.MakeAugmentation(name, context);
    Rng rng(9);
    for (int draw = 0; draw < 3; ++draw) {
      ExpectTopoThenSpatial(augmentation->MakeView(rng), network_);
    }
  }
  ExpectTopoThenSpatial(FullGraphView(network_.topo_edges(), spatial_edges_), network_);
}

TEST_F(AugmentationTest, CouplingOnlyRemovesMore) {
  AugmentationConfig coupled;
  AugmentationConfig uncoupled;
  uncoupled.couple_dual_typed = false;
  Rng rng1(2), rng2(2);
  GraphView with = AugmentGraph(network_.topo_edges(), spatial_edges_, coupled, rng1);
  GraphView without =
      AugmentGraph(network_.topo_edges(), spatial_edges_, uncoupled, rng2);
  EXPECT_LE(with.surviving_topo, without.surviving_topo);
  EXPECT_LE(with.surviving_spatial, without.surviving_spatial);
}

TEST_F(AugmentationTest, ZeroRateKeepsEverything) {
  AugmentationConfig config;
  config.rho_t = 0.0;
  config.rho_s = 0.0;
  Rng rng(3);
  GraphView view = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
  EXPECT_EQ(view.surviving_topo, static_cast<int64_t>(network_.topo_edges().size()));
  EXPECT_EQ(view.surviving_spatial, static_cast<int64_t>(spatial_edges_.size()));
}

TEST_F(AugmentationTest, ImportantEdgesSurviveMoreOften) {
  // Across repeated draws, motorway-motorway topological edges (weight 6.0)
  // must survive clearly more often than residential ones (weight 2.0).
  AugmentationConfig config;
  config.couple_dual_typed = false;
  Rng rng(4);
  std::map<double, std::pair<int, int>> survival_by_weight;  // weight -> (kept, total)
  for (int trial = 0; trial < 40; ++trial) {
    std::set<std::pair<int64_t, int64_t>> kept;
    GraphView view = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
    // Reconstruct kept directed topo edges from the view prefix.
    for (int64_t e = 0; e < view.surviving_topo; ++e) {
      kept.emplace(view.edges.src[static_cast<size_t>(e)],
                   view.edges.dst[static_cast<size_t>(e)]);
    }
    for (const roadnet::TopoEdge& e : network_.topo_edges()) {
      auto& [kept_count, total] = survival_by_weight[e.weight];
      kept_count += kept.count({e.from, e.to}) > 0 ? 1 : 0;
      ++total;
    }
  }
  double min_weight = survival_by_weight.begin()->first;
  double max_weight = survival_by_weight.rbegin()->first;
  ASSERT_GT(max_weight, min_weight);
  auto rate = [&](double w) {
    auto [kept_count, total] = survival_by_weight[w];
    return static_cast<double>(kept_count) / total;
  };
  EXPECT_GT(rate(max_weight), rate(min_weight) + 0.15);
}

TEST_F(AugmentationTest, ViewsDifferBetweenDraws) {
  AugmentationConfig config;
  Rng rng(5);
  GraphView a = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
  GraphView b = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
  EXPECT_NE(a.edges.src, b.edges.src);
}

TEST_F(AugmentationTest, FullEdgeListCountsBothTypes) {
  nn::EdgeList full = FullEdgeList(network_.topo_edges(), spatial_edges_);
  EXPECT_EQ(full.size(), network_.topo_edges().size() + 2 * spatial_edges_.size());
}

TEST_F(AugmentationTest, ViewEdgesAreSubsetOfFull) {
  AugmentationConfig config;
  Rng rng(6);
  GraphView view = AugmentGraph(network_.topo_edges(), spatial_edges_, config, rng);
  std::set<std::pair<int64_t, int64_t>> full_set;
  nn::EdgeList full = FullEdgeList(network_.topo_edges(), spatial_edges_);
  for (size_t e = 0; e < full.size(); ++e) full_set.emplace(full.src[e], full.dst[e]);
  for (size_t e = 0; e < view.edges.size(); ++e) {
    EXPECT_TRUE(full_set.count({view.edges.src[e], view.edges.dst[e]}) > 0);
  }
}

}  // namespace
}  // namespace sarn::core
