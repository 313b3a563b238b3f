// Downstream task 3: shortest-path distance prediction (paper §5.2.3).
//
// Ground truth comes from Dijkstra on the length-weighted segment graph
// (midpoint-to-midpoint distances, directed). Following the paper, an FFN
// with one hidden layer of 20 units predicts the distance from the
// per-dimension DIFFERENCE of the two segment embeddings, trained with MSE
// on sampled reachable OD pairs; we report MAE (meters) and MRE.

#ifndef SARN_TASKS_SPD_TASK_H_
#define SARN_TASKS_SPD_TASK_H_

#include <cstdint>
#include <vector>

#include "roadnet/road_network.h"
#include "tasks/embedding_source.h"

namespace sarn::tasks {

struct SpdConfig {
  uint64_t seed = 61;
  /// Sampled reachable OD pairs (paper: 1 permille of all pairs for
  /// training, 0.01 permille for testing; we cap for bench speed).
  int num_train_pairs = 4000;
  int num_test_pairs = 800;
  int64_t hidden = 20;
  int epochs = 150;
  /// Epoch budget for trainable sources (each batch re-encodes the graph).
  int epochs_trainable = 25;
  int batch_size = 512;
  float learning_rate = 0.01f;
};

struct SpdResult {
  double mae_meters = 0.0;
  double mre = 0.0;  // Fractional (0.1 = 10%).
  int64_t num_test_pairs = 0;
};

class SpdTask {
 public:
  SpdTask(const roadnet::RoadNetwork& network, const SpdConfig& config);

  SpdResult Evaluate(const EmbeddingSource& source) const;

  /// The sampled held-out (origin, destination, meters) triples
  /// (tests/inspection).
  const std::vector<std::tuple<int64_t, int64_t, double>>& test_pairs() const {
    return test_pairs_;
  }

 private:
  SpdConfig config_;
  std::vector<std::tuple<int64_t, int64_t, double>> train_pairs_;
  std::vector<std::tuple<int64_t, int64_t, double>> test_pairs_;
  double mean_distance_km_ = 1.0;
};

}  // namespace sarn::tasks

#endif  // SARN_TASKS_SPD_TASK_H_
