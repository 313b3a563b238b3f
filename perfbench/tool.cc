// perfbench_tool — the compiled half of the benchmark (run.py drives it).
//
//   perfbench_tool gen-city --city CD --scale 0.1 --seed 7 --out city.csv
//   perfbench_tool gen-rows --n 40000 --d 64 --seed 7 --out rows.csv
//   perfbench_tool serve-load ...   open-loop NDJSON load + reply checks
//   perfbench_tool layers ...       traced per-layer run
//
// Inputs are made here from the seed; the program under test (`sarn`)
// receives only the generated files.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "roadnet/io.h"
#include "roadnet/synthetic_city.h"
#include "tool_util.h"

namespace perfbench {

int RunServeLoad(const Flags& flags);  // loadgen.cc
int RunLayers(const Flags& flags);     // layers.cc

namespace {

int GenCity(const Flags& flags) {
  sarn::roadnet::SyntheticCityConfig config =
      sarn::roadnet::CityConfigByName(flags.Str("city"), flags.Num("scale"));
  config.seed = static_cast<uint64_t>(flags.Num("seed"));
  sarn::roadnet::RoadNetwork network = sarn::roadnet::GenerateSyntheticCity(config);
  if (!sarn::roadnet::SaveRoadNetworkCsv(network, flags.Str("out"))) return 1;
  std::printf("%lld\n", static_cast<long long>(network.num_segments()));
  return 0;
}

/// Seeded Gaussian rows in clusters of 11: a random unit centre plus member
/// offsets that are orthogonal to the centre and to each other, with lengths
/// 0.05, 0.10, ..., 0.55. A member's ten cluster mates are then its exact
/// top 10 by cosine, and the mates' scores differ by about 0.015 in a known
/// order, so both the float and the int8 answers are well defined. (With
/// isotropic rows the top 10 of 40k rows are nearly tied, and int8 recall@10
/// lands near 0.97 on any quantizer.) Rows are shuffled; floats are printed
/// with enough digits to parse back bit for bit.
int GenRows(const Flags& flags) {
  constexpr int64_t kCluster = 11;
  const int64_t n = static_cast<int64_t>(flags.Num("n"));
  const int64_t d = static_cast<int64_t>(flags.Num("d"));
  std::mt19937_64 rng(static_cast<uint64_t>(flags.Num("seed")));
  std::normal_distribution<double> gaussian(0.0, 1.0);
  auto unit = [&](std::vector<double>& v, const std::vector<std::vector<double>>& against) {
    for (double& x : v) x = gaussian(rng);
    for (const auto& a : against) {  // Gram-Schmidt against unit vectors.
      double dot = 0.0;
      for (int64_t j = 0; j < d; ++j) dot += v[j] * a[j];
      for (int64_t j = 0; j < d; ++j) v[j] -= dot * a[j];
    }
    double norm = 0.0;
    for (double x : v) norm += x * x;
    for (double& x : v) x /= std::sqrt(norm);
  };
  std::vector<std::vector<float>> rows;
  rows.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(rows.size()) < n) {
    std::vector<std::vector<double>> basis(1, std::vector<double>(static_cast<size_t>(d)));
    unit(basis[0], {});
    for (int64_t r = 0; r < kCluster && static_cast<int64_t>(rows.size()) < n; ++r) {
      std::vector<double> offset(static_cast<size_t>(d));
      unit(offset, basis);
      basis.push_back(offset);
      std::vector<float> row(static_cast<size_t>(d));
      for (int64_t j = 0; j < d; ++j) row[j] = static_cast<float>(basis[0][j] + 0.05 * (r + 1) * offset[j]);
      rows.push_back(std::move(row));
    }
  }
  std::shuffle(rows.begin(), rows.end(), rng);
  std::ofstream out(flags.Str("out"));
  char buffer[32];
  for (const std::vector<float>& row : rows) {
    for (int64_t j = 0; j < d; ++j) {
      std::snprintf(buffer, sizeof(buffer), j == 0 ? "%.9g" : ",%.9g", row[j]);
      out << buffer;
    }
    out << '\n';
  }
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool gen-city|gen-rows|serve-load|layers --flag value...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    perfbench::Flags flags(argc, argv, 2);
    if (command == "gen-city") return perfbench::GenCity(flags);
    if (command == "gen-rows") return perfbench::GenRows(flags);
    if (command == "serve-load") return perfbench::RunServeLoad(flags);
    if (command == "layers") return perfbench::RunLayers(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_tool %s: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_tool: unknown command %s\n", command.c_str());
  return 2;
}
