// Trajectory data model and preprocessing utilities (paper §5.1: map-match,
// truncate to a maximum number of segments).

#ifndef SARN_TRAJ_TRAJECTORY_H_
#define SARN_TRAJ_TRAJECTORY_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"
#include "roadnet/road_network.h"

namespace sarn::traj {

/// A single GPS fix.
struct GpsPoint {
  geo::LatLng position;
  double timestamp_s = 0.0;
};

/// A raw GPS trajectory, time-ordered.
struct Trajectory {
  std::vector<GpsPoint> points;

  bool empty() const { return points.empty(); }
  size_t size() const { return points.size(); }
  /// Sum of consecutive haversine hops, meters.
  double LengthMeters() const;
};

/// A trajectory expressed on the road network: an ordered segment sequence.
struct MatchedTrajectory {
  std::vector<roadnet::SegmentId> segments;

  bool empty() const { return segments.empty(); }
  size_t size() const { return segments.size(); }
};

/// Keeps only the first `max_segments` segments (paper: 60 by default,
/// swept to 180 in Table 7).
MatchedTrajectory TruncateSegments(const MatchedTrajectory& matched,
                                   size_t max_segments);

/// Midpoints of the matched segments, as a polyline for distance computation.
std::vector<geo::LatLng> MatchedMidpoints(const MatchedTrajectory& matched,
                                          const roadnet::RoadNetwork& network);

}  // namespace sarn::traj

#endif  // SARN_TRAJ_TRAJECTORY_H_
