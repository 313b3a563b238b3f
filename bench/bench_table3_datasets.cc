// Reproduces Table 3 (road network dataset statistics) plus the auxiliary
// statistics the paper quotes in the text: dual-typed edge share (§4.2,
// "7.5% in CD"), mean segment length (§5.5, "~70 meters"), and the
// type<->speed-limit NMI (§5.2.1: 0.80 / 0.73 / 0.39 for CD / BJ / SF).

#include <cstdio>

#include "bench_common.h"
#include "core/spatial_similarity.h"
#include "tasks/metrics.h"

namespace sarn::bench {
namespace {

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Table 3: Road Network Datasets (synthetic, scale=" +
             Num(env.scale, 3) + ")");
  std::vector<int> widths = {26, 12, 12, 12};
  PrintRow({"", "CD", "BJ", "SF"}, widths);
  PrintRule(widths);

  std::vector<std::string> segment_row = {"Number of road segments"};
  std::vector<std::string> topo_row = {"Number of edges in A^t"};
  std::vector<std::string> spatial_row = {"Number of edges in A^s"};
  std::vector<std::string> area_row = {"Area (km^2)"};
  std::vector<std::string> dual_row = {"Dual-typed edges (%)"};
  std::vector<std::string> length_row = {"Mean segment length (m)"};
  std::vector<std::string> nmi_row = {"Type<->speed NMI"};

  for (const char* city : {"CD", "BJ", "SF"}) {
    roadnet::RoadNetwork network = BuildCity(city, env);
    core::SpatialSimilarityConfig similarity;
    std::vector<core::SpatialEdge> spatial =
        core::BuildSpatialEdges(network, similarity);
    int64_t dual = core::CountDualTypedEdges(network, spatial);

    segment_row.push_back(std::to_string(network.num_segments()));
    topo_row.push_back(std::to_string(network.topo_edges().size()));
    spatial_row.push_back(std::to_string(spatial.size()));
    area_row.push_back(Num(network.bounding_box().WidthMeters() / 1000.0, 2) + " x " +
                       Num(network.bounding_box().HeightMeters() / 1000.0, 2));
    dual_row.push_back(
        Num(100.0 * dual / std::max<int64_t>(1, static_cast<int64_t>(spatial.size())), 1));
    length_row.push_back(Num(network.MeanSegmentLength(), 1));

    std::vector<int64_t> types, speeds;
    for (const roadnet::RoadSegment& s : network.segments()) {
      if (s.speed_limit_kmh.has_value()) {
        types.push_back(static_cast<int64_t>(s.type));
        speeds.push_back(*s.speed_limit_kmh);
      }
    }
    nmi_row.push_back(Num(tasks::NormalizedMutualInformation(types, speeds), 2));
  }

  for (const auto& row : {segment_row, topo_row, spatial_row, area_row, dual_row,
                          length_row, nmi_row}) {
    PrintRow(row, widths);
  }
  std::printf(
      "\nPaper (full scale): CD 29,593 / BJ 36,809 / SF 37,284 segments;\n"
      "|A^t| 50,325 / 66,598 / 60,410; |A^s| 48,002 / 63,875 / 59,606;\n"
      "NMI 0.80 / 0.73 / 0.39; dual-typed ~7.5%% on CD. Run with SARN_SCALE=1\n"
      "to generate paper-size networks.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}
