#include "traj/trajectory.h"

#include <algorithm>

namespace sarn::traj {

double Trajectory::LengthMeters() const {
  double total = 0.0;
  for (size_t i = 1; i < points.size(); ++i) {
    total += geo::HaversineMeters(points[i - 1].position, points[i].position);
  }
  return total;
}

MatchedTrajectory TruncateSegments(const MatchedTrajectory& matched,
                                   size_t max_segments) {
  MatchedTrajectory out;
  size_t n = std::min(matched.segments.size(), max_segments);
  out.segments.assign(matched.segments.begin(),
                      matched.segments.begin() + static_cast<int64_t>(n));
  return out;
}

std::vector<geo::LatLng> MatchedMidpoints(const MatchedTrajectory& matched,
                                          const roadnet::RoadNetwork& network) {
  std::vector<geo::LatLng> midpoints;
  midpoints.reserve(matched.segments.size());
  for (roadnet::SegmentId id : matched.segments) {
    midpoints.push_back(network.segment(id).Midpoint());
  }
  return midpoints;
}

}  // namespace sarn::traj
