// Reproduces Table 6: shortest-path distance prediction — MRE (%) and MAE
// (meters) per method and city. Ground truth: Dijkstra on the directed
// length-weighted segment graph.

#include <cstdio>
#include <map>

#include "baselines/hrnr_lite.h"
#include "bench_common.h"
#include "tasks/embedding_source.h"
#include "tasks/spd_task.h"

namespace sarn::bench {
namespace {

struct Cells {
  Stat mre, mae;
};

void Add(Cells& cells, const tasks::SpdResult& r) {
  cells.mre.Add(100.0 * r.mre);
  cells.mae.Add(r.mae_meters);
}

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Table 6: Shortest-Path Distance Prediction (scale=" + Num(env.scale, 3) +
             "; smaller is better)");
  const std::vector<std::string> cities = {"CD", "BJ", "SF"};
  const std::vector<std::string> methods = {"node2vec", "SRN2Vec", "GraphCL", "GCA",
                                            "SARN",     "SARN*",   "HRNR",    "RNE"};
  std::map<std::string, std::map<std::string, Cells>> results;

  for (const std::string& city : cities) {
    roadnet::RoadNetwork network = BuildCity(city, env);
    std::printf("[%s] %lld segments\n", city.c_str(),
                static_cast<long long>(network.num_segments()));
    for (int rep = 0; rep < env.reps; ++rep) {
      tasks::SpdConfig task_config;
      task_config.seed = 61 + rep;
      tasks::SpdTask task(network, task_config);

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
    }
  }

  std::vector<int> widths = {10, 13, 13, 13, 13, 13, 13};
  PrintRow({"Method", "CD MRE%", "CD MAE(m)", "BJ MRE%", "BJ MAE(m)", "SF MRE%",
            "SF MAE(m)"},
           widths);
  PrintRule(widths);
  for (const std::string& method : methods) {
    std::vector<std::string> row = {method};
    for (const std::string& city : cities) {
      auto it = results[method].find(city);
      if (it == results[method].end() || it->second.mre.count == 0) {
        row.insert(row.end(), {"OOM", "OOM"});
      } else {
        row.push_back(it->second.mre.Cell(1));
        row.push_back(it->second.mae.Cell(0));
      }
    }
    PrintRow(row, widths);
  }
  std::printf(
      "\nPaper shape: node2vec/SRN2Vec are far behind (50-60%% MRE); the GCL\n"
      "family is strong; SARN beats all self-supervised baselines; HRNR is\n"
      "the best overall; RNE is close to SARN*.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}
