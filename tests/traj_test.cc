#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/point.h"
#include "roadnet/synthetic_city.h"
#include "traj/frechet.h"
#include "traj/map_matching.h"
#include "traj/trajectory.h"
#include "traj/trajectory_generator.h"

namespace sarn::traj {
namespace {

std::vector<geo::LatLng> Line(const geo::LocalProjection& proj, double y, int n,
                              double step = 100.0) {
  std::vector<geo::LatLng> points;
  for (int i = 0; i < n; ++i) points.push_back(proj.ToLatLng(i * step, y));
  return points;
}

class FrechetTest : public testing::Test {
 protected:
  FrechetTest() : proj_(geo::LatLng{30.0, 104.0}) {}
  geo::LocalProjection proj_;
};

TEST_F(FrechetTest, IdenticalCurvesZero) {
  auto a = Line(proj_, 0.0, 10);
  EXPECT_NEAR(DiscreteFrechet(a, a), 0.0, 1e-9);
}

TEST_F(FrechetTest, ParallelLinesDistanceIsOffset) {
  auto a = Line(proj_, 0.0, 10);
  auto b = Line(proj_, 250.0, 10);
  EXPECT_NEAR(DiscreteFrechet(a, b), 250.0, 2.0);
}

TEST_F(FrechetTest, Symmetric) {
  auto a = Line(proj_, 0.0, 8);
  auto b = Line(proj_, 100.0, 5);
  EXPECT_NEAR(DiscreteFrechet(a, b), DiscreteFrechet(b, a), 1e-9);
}

TEST_F(FrechetTest, TriangleInequalityHolds) {
  Rng rng(2);
  auto random_curve = [&](int n) {
    std::vector<geo::LatLng> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back(proj_.ToLatLng(rng.Uniform(0, 2000), rng.Uniform(0, 2000)));
    }
    return pts;
  };
  for (int trial = 0; trial < 20; ++trial) {
    auto a = random_curve(6), b = random_curve(7), c = random_curve(5);
    double ab = DiscreteFrechet(a, b);
    double bc = DiscreteFrechet(b, c);
    double ac = DiscreteFrechet(a, c);
    EXPECT_LE(ac, ab + bc + 1e-6);
  }
}

TEST_F(FrechetTest, DominatesEndpointDistances) {
  // Fréchet >= max(d(a0,b0), d(an,bm)) for coupled endpoints.
  auto a = Line(proj_, 0.0, 6);
  auto b = Line(proj_, 300.0, 9);
  double endpoint = geo::HaversineMeters(a.front(), b.front());
  EXPECT_GE(DiscreteFrechet(a, b) + 1e-6, endpoint);
}

TEST_F(FrechetTest, SinglePointCurves) {
  std::vector<geo::LatLng> a = {proj_.ToLatLng(0, 0)};
  std::vector<geo::LatLng> b = {proj_.ToLatLng(300, 400)};
  EXPECT_NEAR(DiscreteFrechet(a, b), 500.0, 1.0);
}

TEST_F(FrechetTest, ReversedCurveIsFar) {
  // Fréchet is order-aware: reversing a long line yields ~its length.
  auto a = Line(proj_, 0.0, 20);
  auto b = a;
  std::reverse(b.begin(), b.end());
  EXPECT_GT(DiscreteFrechet(a, b), 900.0);
}

TEST(TrajectoryTest, TruncateSegments) {
  MatchedTrajectory m;
  for (int i = 0; i < 100; ++i) m.segments.push_back(i);
  EXPECT_EQ(TruncateSegments(m, 60).size(), 60u);
  EXPECT_EQ(TruncateSegments(m, 200).size(), 100u);
  EXPECT_EQ(TruncateSegments(m, 60).segments[59], 59);
}

TEST(TrajectoryTest, LengthMeters) {
  geo::LocalProjection proj(geo::LatLng{30.0, 104.0});
  Trajectory t;
  t.points.push_back({proj.ToLatLng(0, 0), 0});
  t.points.push_back({proj.ToLatLng(300, 0), 10});
  t.points.push_back({proj.ToLatLng(300, 400), 20});
  EXPECT_NEAR(t.LengthMeters(), 700.0, 2.0);
}

TEST(PointToSegmentTest, PerpendicularAndClamped) {
  geo::LocalProjection proj(geo::LatLng{30.0, 104.0});
  geo::LatLng s = proj.ToLatLng(0, 0);
  geo::LatLng e = proj.ToLatLng(100, 0);
  // Perpendicular foot inside the segment.
  EXPECT_NEAR(PointToSegmentMeters(proj.ToLatLng(50, 30), s, e), 30.0, 0.5);
  // Beyond the end: distance to the endpoint.
  EXPECT_NEAR(PointToSegmentMeters(proj.ToLatLng(160, 80), s, e), 100.0, 0.5);
  // Degenerate segment.
  EXPECT_NEAR(PointToSegmentMeters(proj.ToLatLng(30, 40), s, s), 50.0, 0.5);
}

class GeneratorMatcherTest : public testing::Test {
 protected:
  GeneratorMatcherTest() {
    roadnet::SyntheticCityConfig config;
    config.rows = 14;
    config.cols = 14;
    network_ = roadnet::GenerateSyntheticCity(config);
  }
  roadnet::RoadNetwork network_;
};

TEST_F(GeneratorMatcherTest, GeneratesValidRoutes) {
  TrajectoryGeneratorConfig config;
  config.min_route_segments = 5;
  TrajectoryGenerator generator(network_, config);
  auto trips = generator.Generate(20);
  ASSERT_EQ(trips.size(), 20u);
  graph::CsrGraph routing = network_.ToLengthWeightedGraph();
  for (const GeneratedTrajectory& trip : trips) {
    ASSERT_GE(trip.ground_truth.size(), 5u);
    EXPECT_GE(trip.gps.points.size(), 2u);
    // Ground truth is a connected path in the segment graph.
    for (size_t i = 0; i + 1 < trip.ground_truth.size(); ++i) {
      auto neighbors = routing.OutNeighbors(trip.ground_truth[i]);
      EXPECT_TRUE(std::find(neighbors.begin(), neighbors.end(),
                            trip.ground_truth[i + 1]) != neighbors.end());
    }
    // Timestamps strictly increasing.
    for (size_t i = 1; i < trip.gps.points.size(); ++i) {
      EXPECT_GT(trip.gps.points[i].timestamp_s, trip.gps.points[i - 1].timestamp_s);
    }
  }
}

TEST_F(GeneratorMatcherTest, ChainedLegsProduceLongTrajectories) {
  TrajectoryGeneratorConfig single;
  single.min_route_segments = 6;
  TrajectoryGeneratorConfig chained = single;
  chained.legs = 8;
  chained.max_route_segments = 400;
  TrajectoryGenerator g1(network_, single);
  TrajectoryGenerator g8(network_, chained);
  double mean1 = 0, mean8 = 0;
  auto trips1 = g1.Generate(10);
  auto trips8 = g8.Generate(10);
  for (const auto& t : trips1) mean1 += static_cast<double>(t.ground_truth.size());
  for (const auto& t : trips8) mean8 += static_cast<double>(t.ground_truth.size());
  mean1 /= trips1.size();
  mean8 /= trips8.size();
  EXPECT_GT(mean8, mean1 * 3.0);
  // Chained routes are still connected paths.
  graph::CsrGraph routing = network_.ToLengthWeightedGraph();
  for (const auto& trip : trips8) {
    for (size_t i = 0; i + 1 < trip.ground_truth.size(); ++i) {
      auto neighbors = routing.OutNeighbors(trip.ground_truth[i]);
      ASSERT_TRUE(std::find(neighbors.begin(), neighbors.end(),
                            trip.ground_truth[i + 1]) != neighbors.end());
    }
  }
}

TEST_F(GeneratorMatcherTest, DeterministicForSeed) {
  TrajectoryGeneratorConfig config;
  config.seed = 99;
  TrajectoryGenerator g1(network_, config);
  TrajectoryGenerator g2(network_, config);
  auto a = g1.Generate(5);
  auto b = g2.Generate(5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ground_truth, b[i].ground_truth);
  }
}

TEST_F(GeneratorMatcherTest, SnapPointFindsCoveringSegment) {
  MapMatcher matcher(network_);
  for (int64_t sid = 0; sid < std::min<int64_t>(network_.num_segments(), 50); sid += 7) {
    const roadnet::RoadSegment& s = network_.segment(sid);
    roadnet::SegmentId snapped = matcher.SnapPoint(s.Midpoint());
    ASSERT_GE(snapped, 0);
    // The snap must be geometrically at least as close as the true segment.
    const roadnet::RoadSegment& t = network_.segment(snapped);
    EXPECT_LE(PointToSegmentMeters(s.Midpoint(), t.start, t.end),
              PointToSegmentMeters(s.Midpoint(), s.start, s.end) + 1e-6);
  }
}

TEST_F(GeneratorMatcherTest, SnapPointRejectsFarAway) {
  MapMatcher matcher(network_);
  geo::LocalProjection proj(
      geo::LatLng{network_.bounding_box().min_lat, network_.bounding_box().min_lng});
  geo::LatLng far = proj.ToLatLng(-5000.0, -5000.0);
  EXPECT_EQ(matcher.SnapPoint(far), -1);
}

TEST_F(GeneratorMatcherTest, MatchRecoversMostOfGroundTruth) {
  TrajectoryGeneratorConfig config;
  config.gps_noise_meters = 6.0;
  config.sample_interval_s = 8.0;
  TrajectoryGenerator generator(network_, config);
  MapMatcher matcher(network_);
  auto trips = generator.Generate(10);
  ASSERT_FALSE(trips.empty());
  double total_recall = 0.0;
  for (const GeneratedTrajectory& trip : trips) {
    MatchedTrajectory matched = matcher.Match(trip.gps);
    ASSERT_FALSE(matched.empty());
    std::set<roadnet::SegmentId> matched_set(matched.segments.begin(),
                                             matched.segments.end());
    int hit = 0;
    for (roadnet::SegmentId sid : trip.ground_truth) {
      hit += matched_set.count(sid) > 0 ? 1 : 0;
    }
    total_recall += static_cast<double>(hit) / trip.ground_truth.size();
  }
  // The matcher may pick a parallel twin segment occasionally; most of the
  // route must still be recovered.
  EXPECT_GT(total_recall / trips.size(), 0.6);
}

TEST_F(GeneratorMatcherTest, MatchedMidpointsAlignWithGps) {
  TrajectoryGeneratorConfig config;
  config.gps_noise_meters = 5.0;
  TrajectoryGenerator generator(network_, config);
  MapMatcher matcher(network_);
  auto trip = generator.GenerateOne();
  ASSERT_TRUE(trip.has_value());
  MatchedTrajectory matched = matcher.Match(trip->gps);
  std::vector<geo::LatLng> mids = MatchedMidpoints(matched, network_);
  std::vector<geo::LatLng> gps;
  for (const GpsPoint& p : trip->gps.points) gps.push_back(p.position);
  // The matched polyline stays within a couple of blocks of the GPS trace.
  EXPECT_LT(DiscreteFrechet(mids, gps), 400.0);
}

}  // namespace
}  // namespace sarn::traj
