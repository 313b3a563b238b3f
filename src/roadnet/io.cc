#include "roadnet/io.h"

#include <cmath>
#include <unordered_map>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace sarn::roadnet {
namespace {

// False for coordinates off the globe, and so for NaN and infinities (which
// fail the comparisons): any of them would reach the integer grid casts of
// the featurizer as undefined behaviour.
bool OnGlobe(double lat, double lng) {
  return std::fabs(lat) <= 90.0 && std::fabs(lng) <= 180.0;
}

}  // namespace

bool SaveRoadNetworkCsv(const RoadNetwork& network, const std::string& path) {
  CsvTable table;
  table.header = {"from_node", "to_node",  "type",    "speed_limit",
                  "start_lat", "start_lng", "end_lat", "end_lng"};
  table.rows.reserve(static_cast<size_t>(network.num_segments()));
  for (const RoadSegment& s : network.segments()) {
    table.rows.push_back({
        std::to_string(s.from_node),
        std::to_string(s.to_node),
        HighwayName(s.type),
        s.speed_limit_kmh.has_value() ? std::to_string(*s.speed_limit_kmh) : "",
        FormatDouble(s.start.lat, 7),
        FormatDouble(s.start.lng, 7),
        FormatDouble(s.end.lat, 7),
        FormatDouble(s.end.lng, 7),
    });
  }
  return WriteCsvFile(path, table);
}

std::optional<RoadNetwork> LoadRoadNetworkCsv(const std::string& path) {
  std::optional<CsvTable> table = ReadCsvFile(path, /*has_header=*/true);
  if (!table.has_value()) return std::nullopt;
  if (table->header.size() != 8) {
    SARN_LOG(Error) << "bad header in " << path;
    return std::nullopt;
  }
  RoadNetworkBuilder builder;
  std::unordered_map<int64_t, int64_t> node_remap;  // File node id -> builder id.
  auto node_of = [&](int64_t file_id, const geo::LatLng& position) {
    auto it = node_remap.find(file_id);
    if (it != node_remap.end()) return it->second;
    int64_t id = builder.AddNode(position);
    node_remap.emplace(file_id, id);
    return id;
  };
  for (const auto& row : table->rows) {
    if (row.size() != 8) return std::nullopt;
    auto from = ParseInt(row[0]);
    auto to = ParseInt(row[1]);
    auto type = HighwayFromName(row[2]);
    auto start_lat = ParseDouble(row[4]);
    auto start_lng = ParseDouble(row[5]);
    auto end_lat = ParseDouble(row[6]);
    auto end_lng = ParseDouble(row[7]);
    if (!from || !to || !type || !start_lat || !start_lng || !end_lat || !end_lng ||
        !OnGlobe(*start_lat, *start_lng) || !OnGlobe(*end_lat, *end_lng)) {
      SARN_LOG(Error) << "malformed row in " << path;
      return std::nullopt;
    }
    std::optional<int> speed;
    if (!Trim(row[3]).empty()) {
      auto parsed = ParseInt(row[3]);
      if (!parsed) return std::nullopt;
      speed = static_cast<int>(*parsed);
    }
    int64_t from_id = node_of(*from, geo::LatLng{*start_lat, *start_lng});
    int64_t to_id = node_of(*to, geo::LatLng{*end_lat, *end_lng});
    builder.AddSegment(from_id, to_id, *type, speed);
  }
  return builder.Build();
}

}  // namespace sarn::roadnet
