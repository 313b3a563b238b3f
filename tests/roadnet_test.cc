#include <cstdio>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "geo/point.h"
#include "graph/dijkstra.h"
#include "roadnet/features.h"
#include "roadnet/io.h"
#include "roadnet/road_network.h"
#include "roadnet/road_types.h"
#include "roadnet/synthetic_city.h"

namespace sarn::roadnet {
namespace {

TEST(RoadTypesTest, WeightsMatchPaperAnchors) {
  EXPECT_DOUBLE_EQ(HighwayWeight(HighwayType::kMotorway), 6.0);
  EXPECT_DOUBLE_EQ(HighwayWeight(HighwayType::kResidential), 2.0);
}

TEST(RoadTypesTest, WeightsMonotoneInHierarchy) {
  const auto& all = AllHighwayTypes();
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_GT(HighwayWeight(all[i]), HighwayWeight(all[i + 1]));
  }
}

TEST(RoadTypesTest, NameRoundTrip) {
  for (HighwayType type : AllHighwayTypes()) {
    EXPECT_EQ(HighwayFromName(HighwayName(type)).value(), type);
  }
  EXPECT_FALSE(HighwayFromName("spaceway").has_value());
}

TEST(RoadTypesTest, SpeedPoolsNonEmptyAndOrdered) {
  // Faster road classes should offer faster max speeds.
  EXPECT_GT(TypicalSpeedLimits(HighwayType::kMotorway).back(),
            TypicalSpeedLimits(HighwayType::kResidential).back());
  for (HighwayType type : AllHighwayTypes()) {
    EXPECT_FALSE(TypicalSpeedLimits(type).empty());
  }
}

class BuilderTest : public testing::Test {
 protected:
  BuilderTest() : proj_(geo::LatLng{30.0, 104.0}) {}

  int64_t NodeAt(double x, double y) { return builder_.AddNode(proj_.ToLatLng(x, y)); }

  geo::LocalProjection proj_;
  RoadNetworkBuilder builder_;
};

TEST_F(BuilderTest, SegmentGeometryDerived) {
  int64_t a = NodeAt(0, 0);
  int64_t b = NodeAt(100, 0);
  builder_.AddSegment(a, b, HighwayType::kPrimary, 60);
  RoadNetwork network = builder_.Build();
  ASSERT_EQ(network.num_segments(), 1);
  const RoadSegment& s = network.segment(0);
  EXPECT_NEAR(s.length_meters, 100.0, 0.5);
  EXPECT_NEAR(s.radian, 0.0, 1e-4);  // Due east.
  EXPECT_EQ(s.speed_limit_kmh.value(), 60);
  EXPECT_EQ(s.type, HighwayType::kPrimary);
}

TEST_F(BuilderTest, TopologicalEdgesFollowSharedIntersections) {
  int64_t a = NodeAt(0, 0), b = NodeAt(100, 0), c = NodeAt(200, 0);
  SegmentId s0 = builder_.AddSegment(a, b, HighwayType::kMotorway);
  SegmentId s1 = builder_.AddSegment(b, c, HighwayType::kResidential);
  RoadNetwork network = builder_.Build();
  ASSERT_EQ(network.topo_edges().size(), 1u);
  const TopoEdge& e = network.topo_edges()[0];
  EXPECT_EQ(e.from, s0);
  EXPECT_EQ(e.to, s1);
  // Eq. 1: mean of the two type weights.
  EXPECT_DOUBLE_EQ(e.weight, (6.0 + 2.0) / 2.0);
}

TEST_F(BuilderTest, UTurnOntoReverseTwinExcluded) {
  int64_t a = NodeAt(0, 0), b = NodeAt(100, 0);
  builder_.AddSegment(a, b, HighwayType::kResidential);
  builder_.AddSegment(b, a, HighwayType::kResidential);
  RoadNetwork network = builder_.Build();
  EXPECT_TRUE(network.topo_edges().empty());
}

TEST_F(BuilderTest, LengthWeightedGraphForRouting) {
  int64_t a = NodeAt(0, 0), b = NodeAt(100, 0), c = NodeAt(300, 0);
  builder_.AddSegment(a, b, HighwayType::kPrimary);   // 100 m.
  builder_.AddSegment(b, c, HighwayType::kPrimary);   // 200 m.
  RoadNetwork network = builder_.Build();
  graph::CsrGraph g = network.ToLengthWeightedGraph();
  // Midpoint-to-midpoint: (100+200)/2 = 150.
  EXPECT_NEAR(graph::ShortestPathDistance(g, 0, 1).value(), 150.0, 1.0);
}

TEST_F(BuilderTest, BoundingBoxCoversEndpoints) {
  int64_t a = NodeAt(0, 0), b = NodeAt(500, 700);
  builder_.AddSegment(a, b, HighwayType::kPrimary);
  RoadNetwork network = builder_.Build();
  EXPECT_NEAR(network.bounding_box().WidthMeters(), 500.0, 5.0);
  EXPECT_NEAR(network.bounding_box().HeightMeters(), 700.0, 5.0);
}

TEST(SyntheticCityTest, GeneratesRequestedScale) {
  SyntheticCityConfig config;
  config.rows = 16;
  config.cols = 16;
  RoadNetwork network = GenerateSyntheticCity(config);
  // ~2 links per node pair, mostly two-way: between 1.2x and 4x node count.
  EXPECT_GT(network.num_segments(), 16 * 16);
  EXPECT_LT(network.num_segments(), 16 * 16 * 4);
  EXPECT_GT(network.topo_edges().size(), static_cast<size_t>(network.num_segments()));
}

TEST(SyntheticCityTest, DeterministicForSeed) {
  SyntheticCityConfig config;
  config.rows = 10;
  config.cols = 10;
  RoadNetwork a = GenerateSyntheticCity(config);
  RoadNetwork b = GenerateSyntheticCity(config);
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (int64_t i = 0; i < a.num_segments(); ++i) {
    EXPECT_EQ(a.segment(i).type, b.segment(i).type);
    EXPECT_DOUBLE_EQ(a.segment(i).start.lat, b.segment(i).start.lat);
  }
}

TEST(SyntheticCityTest, ContainsRoadHierarchy) {
  SyntheticCityConfig config;
  config.rows = 20;
  config.cols = 20;
  RoadNetwork network = GenerateSyntheticCity(config);
  std::map<HighwayType, int> counts;
  for (const RoadSegment& s : network.segments()) ++counts[s.type];
  EXPECT_GT(counts[HighwayType::kMotorway], 0);
  EXPECT_GT(counts[HighwayType::kTrunk], 0);
  EXPECT_GT(counts[HighwayType::kPrimary], 0);
  EXPECT_GT(counts[HighwayType::kResidential], 0);
  // Residential should dominate, motorways be rare (ring only).
  EXPECT_GT(counts[HighwayType::kResidential], counts[HighwayType::kMotorway]);
}

TEST(SyntheticCityTest, SegmentGraphWeaklyConnected) {
  SyntheticCityConfig config;
  config.rows = 14;
  config.cols = 14;
  config.street_drop_fraction = 0.15;
  RoadNetwork network = GenerateSyntheticCity(config);
  graph::CsrGraph g = network.ToTypeWeightedGraph();
  EXPECT_EQ(g.CountWeakComponents(), 1);
}

TEST(SyntheticCityTest, MeanSegmentLengthNearBlockSize) {
  SyntheticCityConfig config;
  config.rows = 18;
  config.cols = 18;
  config.block_meters = 100.0;
  RoadNetwork network = GenerateSyntheticCity(config);
  EXPECT_GT(network.MeanSegmentLength(), 60.0);
  EXPECT_LT(network.MeanSegmentLength(), 160.0);
}

TEST(SyntheticCityTest, SpeedLabelsCorrelateWithType) {
  SyntheticCityConfig config;
  config.rows = 20;
  config.cols = 20;
  config.speed_noise = 0.0;
  RoadNetwork network = GenerateSyntheticCity(config);
  // Labels are posted per street line; segments whose sprinkled type differs
  // from the line majority may inherit the line speed, so require only a
  // strong majority to come from the segment's own type pool.
  int in_pool = 0, total = 0;
  for (const RoadSegment& s : network.segments()) {
    ASSERT_TRUE(s.speed_limit_kmh.has_value());
    const std::vector<int>& pool = TypicalSpeedLimits(s.type);
    in_pool += std::find(pool.begin(), pool.end(), *s.speed_limit_kmh) != pool.end();
    ++total;
  }
  EXPECT_GT(static_cast<double>(in_pool) / total, 0.7);
}

TEST(SyntheticCityTest, SpeedLabelsSharedAlongStreets) {
  SyntheticCityConfig config;
  config.rows = 20;
  config.cols = 20;
  RoadNetwork network = GenerateSyntheticCity(config);
  // Topologically consecutive same-type segments (same street, usually the
  // same line) share their posted limit far more often than random pairs.
  int same_street_equal = 0, same_street_total = 0;
  for (const TopoEdge& e : network.topo_edges()) {
    const RoadSegment& a = network.segment(e.from);
    const RoadSegment& b = network.segment(e.to);
    if (a.type != b.type || !a.speed_limit_kmh || !b.speed_limit_kmh) continue;
    same_street_equal += *a.speed_limit_kmh == *b.speed_limit_kmh ? 1 : 0;
    ++same_street_total;
  }
  ASSERT_GT(same_street_total, 50);
  EXPECT_GT(static_cast<double>(same_street_equal) / same_street_total, 0.6);
}

TEST(SyntheticCityTest, LabelFractionRespected) {
  SyntheticCityConfig config;
  config.rows = 20;
  config.cols = 20;
  config.speed_label_fraction = 0.3;
  RoadNetwork network = GenerateSyntheticCity(config);
  int labeled = 0;
  for (const RoadSegment& s : network.segments()) labeled += s.speed_limit_kmh ? 1 : 0;
  double fraction = labeled / static_cast<double>(network.num_segments());
  EXPECT_NEAR(fraction, 0.3, 0.07);
}

TEST(SyntheticCityTest, PresetsScaleSegmentCounts) {
  RoadNetwork small = GenerateSyntheticCity(SanFranciscoLikeConfig(0.02));
  RoadNetwork large = GenerateSyntheticCity(SanFranciscoLikeConfig(0.08));
  EXPECT_GT(large.num_segments(), small.num_segments() * 2);
  EXPECT_LT(large.num_segments(), small.num_segments() * 8);
}

TEST(SyntheticCityTest, CityConfigByNameVariants) {
  EXPECT_GT(GenerateSyntheticCity(CityConfigByName("SF-L", 0.02)).num_segments(),
            GenerateSyntheticCity(CityConfigByName("SF-S", 0.02)).num_segments());
}

TEST(FeaturizerTest, ShapesAndVocabularies) {
  RoadNetwork network = GenerateSyntheticCity(SyntheticCityConfig{});
  SegmentFeatures features = FeaturizeSegments(network);
  ASSERT_EQ(features.ids.size(), static_cast<size_t>(kNumSegmentFeatures));
  ASSERT_EQ(features.vocab_sizes.size(), static_cast<size_t>(kNumSegmentFeatures));
  EXPECT_EQ(features.vocab_sizes[0], kNumHighwayTypes);
  EXPECT_EQ(features.vocab_sizes[2], 36);  // 360 / 10-degree bins.
  for (int f = 0; f < kNumSegmentFeatures; ++f) {
    ASSERT_EQ(features.ids[f].size(), static_cast<size_t>(network.num_segments()));
    for (int64_t id : features.ids[f]) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, features.vocab_sizes[f]);
    }
  }
}

TEST(FeaturizerTest, NearbySegmentsShareCoordinateBins) {
  RoadNetworkBuilder builder;
  geo::LocalProjection proj(geo::LatLng{30.0, 104.0});
  int64_t a = builder.AddNode(proj.ToLatLng(0, 0));
  int64_t b = builder.AddNode(proj.ToLatLng(10, 0));
  int64_t c = builder.AddNode(proj.ToLatLng(5000, 0));
  int64_t d = builder.AddNode(proj.ToLatLng(5010, 0));
  builder.AddSegment(a, b, HighwayType::kPrimary);
  builder.AddSegment(c, d, HighwayType::kPrimary);
  SegmentFeatures features = FeaturizeSegments(builder.Build());
  // Same 50 m bin for the two endpoints of the short segment...
  EXPECT_EQ(features.ids[4][0], features.ids[6][0]);
  // ...but far-apart segments land in different longitude bins.
  EXPECT_NE(features.ids[4][0], features.ids[4][1]);
}

TEST(FeaturizerTest, DenseFeaturesShape) {
  RoadNetwork network = GenerateSyntheticCity(SyntheticCityConfig{});
  auto dense = DenseSegmentFeatures(network);
  ASSERT_EQ(dense.size(), static_cast<size_t>(network.num_segments()));
  EXPECT_EQ(dense[0].size(), static_cast<size_t>(kNumHighwayTypes + 6));
  // One-hot type sums to 1.
  float type_sum = 0;
  for (int t = 0; t < kNumHighwayTypes; ++t) type_sum += dense[0][static_cast<size_t>(t)];
  EXPECT_FLOAT_EQ(type_sum, 1.0f);
}

TEST(IoTest, SaveLoadRoundTrip) {
  SyntheticCityConfig config;
  config.rows = 8;
  config.cols = 8;
  RoadNetwork original = GenerateSyntheticCity(config);
  std::string path = testing::TempDir() + "/sarn_roadnet_io_test.csv";
  ASSERT_TRUE(SaveRoadNetworkCsv(original, path));
  auto loaded = LoadRoadNetworkCsv(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_segments(), original.num_segments());
  EXPECT_EQ(loaded->topo_edges().size(), original.topo_edges().size());
  for (int64_t i = 0; i < original.num_segments(); ++i) {
    EXPECT_EQ(loaded->segment(i).type, original.segment(i).type);
    EXPECT_EQ(loaded->segment(i).speed_limit_kmh, original.segment(i).speed_limit_kmh);
    EXPECT_NEAR(loaded->segment(i).length_meters, original.segment(i).length_meters, 0.1);
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadRoadNetworkCsv("/nonexistent/net.csv").has_value());
}

// A coordinate that is not a finite point on the globe makes the row
// malformed, so the whole load fails instead of feeding NaN to the grid.
TEST(IoTest, LoadRejectsNonFiniteAndOffGlobeCoordinates) {
  const std::string path = testing::TempDir() + "/sarn_roadnet_bad_coord.csv";
  const char* header =
      "from_node,to_node,type,speed_limit,start_lat,start_lng,end_lat,end_lng\n";
  const char* good_row = "0,1,residential,30,30.0,104.0,30.001,104.0\n";
  auto load = [&](const std::string& row) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    EXPECT_NE(file, nullptr);
    std::fputs(header, file);
    std::fputs(good_row, file);
    std::fputs(row.c_str(), file);
    std::fclose(file);
    return LoadRoadNetworkCsv(path);
  };
  EXPECT_TRUE(load("1,2,residential,30,30.001,104.0,30.002,104.0\n").has_value());
  for (const char* row : {"1,2,residential,30,nan,104.0,30.002,104.0\n",
                          "1,2,residential,30,30.001,inf,30.002,104.0\n",
                          "1,2,residential,30,30.001,104.0,91,104.0\n",
                          "1,2,residential,30,30.001,104.0,30.002,-180.5\n"}) {
    EXPECT_FALSE(load(row).has_value()) << row;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sarn::roadnet
