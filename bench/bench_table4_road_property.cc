// Reproduces Table 4: road property (speed limit) prediction — F1 and AUC
// for every method on the CD/BJ/SF-like networks.
//
// Methods: the self-supervised group (node2vec, SRN2Vec, GraphCL, GCA,
// SARN) evaluated with frozen embeddings + an FFN classifier; SARN*
// (fine-tuned); and the supervised group (HRNR end-to-end, RNE embeddings
// reused frozen).

#include <cstdio>
#include <map>

#include "baselines/hrnr_lite.h"
#include "bench_common.h"
#include "tasks/embedding_source.h"

namespace sarn::bench {
namespace {

struct CellPair {
  Stat f1;
  Stat auc;
};

void Run() {
  BenchEnv env = GetEnv();
  PrintTitle("Table 4: Road Property Prediction (synthetic, scale=" +
             Num(env.scale, 3) + ", reps=" + std::to_string(env.reps) + ")");

  const std::vector<std::string> cities = {"CD", "BJ", "SF"};
  const std::vector<std::string> methods = {"node2vec", "SRN2Vec", "GraphCL", "GCA",
                                            "SARN",     "SARN*",   "HRNR",    "RNE"};
  std::map<std::string, std::map<std::string, CellPair>> results;

  for (const std::string& city : cities) {
    roadnet::RoadNetwork network = BuildCity(city, env);
    std::printf("[%s] %lld segments\n", city.c_str(),
                static_cast<long long>(network.num_segments()));
    for (int rep = 0; rep < env.reps; ++rep) {
      tasks::RoadPropertyConfig task_config;
      task_config.seed = 51 + rep;
      tasks::RoadPropertyTask task(network, task_config);

      for (const char* method : {"node2vec", "SRN2Vec", "GraphCL", "GCA", "RNE"}) {
        EmbeddingRun run = RunMethod(method, network, env, rep);
        if (run.out_of_memory) continue;
        tasks::FrozenEmbeddingSource source(run.embeddings);
        tasks::RoadPropertyResult r = task.Evaluate(source);
        results[method][city].f1.Add(100.0 * r.f1);
        results[method][city].auc.Add(100.0 * r.auc);
      }
      {
        auto sarn = TrainSarn(network, BenchSarnConfig(env, rep, network));
        tasks::FrozenEmbeddingSource frozen(sarn->Embeddings());
        tasks::RoadPropertyResult r = task.Evaluate(frozen);
        results["SARN"][city].f1.Add(100.0 * r.f1);
        results["SARN"][city].auc.Add(100.0 * r.auc);
        tasks::SarnFineTuneSource tuned(*sarn);
        tasks::RoadPropertyResult rt = task.Evaluate(tuned);
        results["SARN*"][city].f1.Add(100.0 * rt.f1);
        results["SARN*"][city].auc.Add(100.0 * rt.auc);
      }
      {
        baselines::HrnrLiteConfig hrnr_config;
        hrnr_config.seed = 41 + rep;
        hrnr_config.feature_dim_per_feature = 8;
        baselines::HrnrLite hrnr(network, hrnr_config);
        if (!hrnr.out_of_memory()) {
          tasks::HrnrSource source(hrnr);
          tasks::RoadPropertyResult r = task.Evaluate(source);
          results["HRNR"][city].f1.Add(100.0 * r.f1);
          results["HRNR"][city].auc.Add(100.0 * r.auc);
        }
      }
    }
  }

  std::vector<int> widths = {10, 14, 14, 14, 14, 14, 14};
  PrintRow({"Method", "CD F1", "CD AUC", "BJ F1", "BJ AUC", "SF F1", "SF AUC"}, widths);
  PrintRule(widths);
  for (const std::string& method : methods) {
    std::vector<std::string> row = {method};
    for (const std::string& city : cities) {
      auto it = results[method].find(city);
      if (it == results[method].end() || it->second.f1.count == 0) {
        row.push_back("OOM");
        row.push_back("OOM");
      } else {
        row.push_back(it->second.f1.Cell());
        row.push_back(it->second.auc.Cell());
      }
    }
    PrintRow(row, widths);
  }
  std::printf(
      "\nPaper shape: SARN beats all self-supervised baselines on every city\n"
      "(best baseline GCA/GraphCL); SARN* >= SARN and beats HRNR/RNE.\n");
}

}  // namespace
}  // namespace sarn::bench

int main() {
  sarn::bench::Run();
  return 0;
}
