// Reproduces Table 8: downstream results on road networks of different sizes
// (SF-S ~ 0.5x, SF, SF-L ~ 2x segments), one headline metric per task:
// road-property F1, trajectory HR@5 and shortest-path MRE.
//
// GCA and HRNR print OOM on SF-L: their documented memory appetite is
// quadratic / multi-adjacency in n, and at the PAPER's full network sizes
// (74k segments for SF-L) the requirement exceeds the paper's 16 GB V100 —
// we model that ceiling explicitly (bench-scale networks would fit, so the
// guard extrapolates the requirement to full scale, mirroring §5.2.4).

#include <cstdio>
#include <map>

#include "baselines/hrnr_lite.h"
#include "baselines/neutraj_lite.h"
#include "bench_common.h"
#include "tasks/embedding_source.h"
#include "tasks/spd_task.h"

namespace sarn::bench {
namespace {

constexpr double kPaperGpuBytes = 16.0 * 1024 * 1024 * 1024;  // V100.

// Extrapolates a bench-scale vertex count to paper scale and tests the
// quadratic memory need against the paper's GPU.
bool WouldOomAtPaperScale(int64_t n_bench, double scale, double bytes_per_n_squared) {
  double n_paper = static_cast<double>(n_bench) / std::max(1e-6, scale);
  return n_paper * n_paper * bytes_per_n_squared > kPaperGpuBytes;
}

struct Cells {
  Stat f1, hr5, mre;
  bool oom = false;
};

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Table 8: Road Networks of Different Sizes (scale=" + Num(env.scale, 3) +
             ")");
  const std::vector<std::string> cities = {"SF-S", "SF", "SF-L"};
  const std::vector<std::string> methods = {"node2vec", "SRN2Vec", "GraphCL", "GCA",
                                            "SARN",     "SARN*",   "HRNR",    "NEUTRAJ",
                                            "RNE"};
  std::map<std::string, std::map<std::string, Cells>> results;

  for (const std::string& city : cities) {
    roadnet::RoadNetwork network = BuildCity(city, env);
    std::printf("[%s] %lld segments\n", city.c_str(),
                static_cast<long long>(network.num_segments()));
    // env.scale is the knob; SF-L's own 2x multiplier is part of the paper's
    // dataset, so the extrapolated n_paper is n_bench / env.scale (~74k for
    // SF-L at full scale).
    bool gca_oom =
        city == "SF-L" && WouldOomAtPaperScale(network.num_segments(), env.scale,
                                               /*two n x n float views=*/8.0);
    bool hrnr_oom =
        city == "SF-L" && WouldOomAtPaperScale(network.num_segments(), env.scale,
                                               /*three n x n adjacencies=*/12.0);
    results["GCA"][city].oom = gca_oom;
    results["HRNR"][city].oom = hrnr_oom;

    for (int rep = 0; rep < env.reps; ++rep) {
      tasks::RoadPropertyConfig property_config;
      property_config.seed = 51 + rep;
      tasks::RoadPropertyTask property_task(network, property_config);
      tasks::SpdConfig spd_config;
      spd_config.seed = 61 + rep;
      tasks::SpdTask spd_task(network, spd_config);
      std::vector<traj::MatchedTrajectory> trajectories =
          MakeTrajectories(network, env.trajectories, env.traj_max_segments, rep);
      tasks::TrajSimConfig traj_config;
      traj_config.seed = 71 + rep;
      tasks::TrajectorySimilarityTask traj_task(network, trajectories, traj_config);

      auto eval_frozen = [&](const std::string& method, tensor::Tensor embeddings) {
        tasks::FrozenEmbeddingSource source(embeddings);
        results[method][city].f1.Add(100.0 * property_task.Evaluate(source).f1);
        results[method][city].hr5.Add(100.0 * traj_task.Evaluate(source).hr5);
        results[method][city].mre.Add(100.0 * spd_task.Evaluate(source).mre);
      };

      for (const char* method : {"node2vec", "SRN2Vec", "GraphCL", "RNE"}) {
        EmbeddingRun run = RunMethod(method, network, env, rep);
        eval_frozen(method, run.embeddings);
      }
      if (!gca_oom) {
        EmbeddingRun run = RunMethod("GCA", network, env, rep);
        if (!run.out_of_memory) eval_frozen("GCA", run.embeddings);
      }
      {
        auto sarn = TrainSarn(network, BenchSarnConfig(env, rep, network));
        eval_frozen("SARN", sarn->Embeddings());
        {
          tasks::SarnFineTuneSource tuned(*sarn);
          results["SARN*"][city].f1.Add(100.0 * property_task.Evaluate(tuned).f1);
        }
        {
          tasks::SarnFineTuneSource tuned(*sarn);
          results["SARN*"][city].hr5.Add(100.0 * traj_task.Evaluate(tuned).hr5);
        }
        {
          tasks::SarnFineTuneSource tuned(*sarn);
          results["SARN*"][city].mre.Add(100.0 * spd_task.Evaluate(tuned).mre);
        }
      }
      if (!hrnr_oom) {
        baselines::HrnrLiteConfig hrnr_config;
        hrnr_config.seed = 41 + rep;
        hrnr_config.feature_dim_per_feature = 8;
        baselines::HrnrLite hrnr(network, hrnr_config);
        if (!hrnr.out_of_memory()) {
          tasks::HrnrSource source(hrnr);
          results["HRNR"][city].f1.Add(100.0 * property_task.Evaluate(source).f1);
          results["HRNR"][city].hr5.Add(100.0 * traj_task.Evaluate(source).hr5);
          results["HRNR"][city].mre.Add(100.0 * spd_task.Evaluate(source).mre);
        }
      }
      {
        baselines::NeutrajLiteConfig neutraj_config;
        neutraj_config.seed = 43 + rep;
        results["NEUTRAJ"][city].hr5.Add(
            100.0 * traj_task.EvaluateNeutraj(neutraj_config).hr5);
      }
    }
  }

  auto print_block = [&](const std::string& title, auto metric_of) {
    std::printf("\n%s\n", title.c_str());
    std::vector<int> widths = {10, 13, 13, 13};
    PrintRow({"Method", "SF-S", "SF", "SF-L"}, widths);
    PrintRule(widths);
    for (const std::string& method : methods) {
      std::vector<std::string> row = {method};
      for (const std::string& city : cities) {
        Cells& cells = results[method][city];
        Stat& stat = metric_of(cells);
        if (cells.oom) {
          row.push_back("OOM");
        } else if (stat.count == 0) {
          row.push_back("-");
        } else {
          row.push_back(stat.Cell(1));
        }
      }
      PrintRow(row, widths);
    }
  };
  print_block("Road Property Prediction, F1 (%)", [](Cells& c) -> Stat& { return c.f1; });
  print_block("Trajectory Similarity, HR@5 (%)", [](Cells& c) -> Stat& { return c.hr5; });
  print_block("Shortest-Path Distance, MRE (%) (smaller is better)",
              [](Cells& c) -> Stat& { return c.mre; });
  std::printf(
      "\nPaper shape: GCA and HRNR go OOM on SF-L (modeled at paper scale);\n"
      "SARN/SARN* degrade least with network size and their SF-L gains over\n"
      "the surviving baselines are the largest.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}
