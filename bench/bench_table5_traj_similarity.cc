// Reproduces Table 5: trajectory similarity prediction — HR@5, HR@20 and
// R5@20 on the CD/BJ/SF-like networks with synthetic (DiDi/T-Drive/SF-Cab
// substitute) trajectory datasets. NEUTRAJ participates through its own
// supervised model; HRNR trains end-to-end through the GRU head.

#include <cstdio>
#include <map>

#include "baselines/hrnr_lite.h"
#include "baselines/neutraj_lite.h"
#include "bench_common.h"
#include "tasks/embedding_source.h"

namespace sarn::bench {
namespace {

struct Cells {
  Stat hr5, hr20, r5_20;
};

void Add(Cells& cells, const tasks::TrajSimResult& r) {
  cells.hr5.Add(100.0 * r.hr5);
  cells.hr20.Add(100.0 * r.hr20);
  cells.r5_20.Add(100.0 * r.r5_20);
}

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Table 5: Trajectory Similarity Prediction (scale=" + Num(env.scale, 3) +
             ", trajs=" + std::to_string(env.trajectories) + ")");
  const std::vector<std::string> cities = {"CD", "BJ", "SF"};
  const std::vector<std::string> methods = {"node2vec", "SRN2Vec", "GraphCL", "GCA",
                                            "SARN",     "SARN*",   "HRNR",
                                            "NEUTRAJ",  "RNE"};
  std::map<std::string, std::map<std::string, Cells>> results;

  for (const std::string& city : cities) {
    roadnet::RoadNetwork network = BuildCity(city, env);
    std::printf("[%s] %lld segments\n", city.c_str(),
                static_cast<long long>(network.num_segments()));
    for (int rep = 0; rep < env.reps; ++rep) {
      std::vector<traj::MatchedTrajectory> trajectories =
          MakeTrajectories(network, env.trajectories, env.traj_max_segments, rep);
      tasks::TrajSimConfig task_config;
      task_config.seed = 71 + rep;
      tasks::TrajectorySimilarityTask task(network, trajectories, task_config);

      for (const char* method : {"node2vec", "SRN2Vec", "GraphCL", "GCA", "RNE"}) {
        EmbeddingRun run = RunMethod(method, network, env, rep);
        if (run.out_of_memory) continue;
        tasks::FrozenEmbeddingSource source(run.embeddings);
        Add(results[method][city], task.Evaluate(source));
      }
      {
        auto sarn = TrainSarn(network, BenchSarnConfig(env, rep, network));
        tasks::FrozenEmbeddingSource frozen(sarn->Embeddings());
        Add(results["SARN"][city], task.Evaluate(frozen));
        tasks::SarnFineTuneSource tuned(*sarn);
        Add(results["SARN*"][city], task.Evaluate(tuned));
      }
      {
        baselines::HrnrLiteConfig hrnr_config;
        hrnr_config.seed = 41 + rep;
        hrnr_config.feature_dim_per_feature = 8;
        baselines::HrnrLite hrnr(network, hrnr_config);
        if (!hrnr.out_of_memory()) {
          tasks::HrnrSource source(hrnr);
          Add(results["HRNR"][city], task.Evaluate(source));
        }
      }
      {
        baselines::NeutrajLiteConfig neutraj_config;
        neutraj_config.seed = 43 + rep;
        Add(results["NEUTRAJ"][city], task.EvaluateNeutraj(neutraj_config));
      }
    }
  }

  std::vector<int> widths = {10, 12, 12, 12, 12, 12, 12, 12, 12, 12};
  PrintRow({"Method", "CD HR@5", "CD HR@20", "CD R5@20", "BJ HR@5", "BJ HR@20",
            "BJ R5@20", "SF HR@5", "SF HR@20", "SF R5@20"},
           widths);
  PrintRule(widths);
  for (const std::string& method : methods) {
    std::vector<std::string> row = {method};
    for (const std::string& city : cities) {
      auto it = results[method].find(city);
      if (it == results[method].end() || it->second.hr5.count == 0) {
        row.insert(row.end(), {"OOM", "OOM", "OOM"});
      } else {
        row.push_back(it->second.hr5.Cell(1));
        row.push_back(it->second.hr20.Cell(1));
        row.push_back(it->second.r5_20.Cell(1));
      }
    }
    PrintRow(row, widths);
  }
  std::printf(
      "\nPaper shape: SARN dominates the self-supervised group (gain up to\n"
      "+34%% HR@5 over the best baseline); SARN* is comparable to NEUTRAJ;\n"
      "SRN2Vec is the strongest self-supervised baseline on this task.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}
