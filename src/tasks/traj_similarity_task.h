// Downstream task 2: trajectory similarity prediction (paper §5.2.2).
//
// Each trajectory is a (map-matched, truncated) sequence of road segments.
// A 2-layer GRU over the frozen segment embeddings produces a trajectory
// embedding; the L1 distance between two trajectory embeddings predicts
// their distance, trained by regression against the discrete Fréchet
// distance of the matched polylines (the paper's ground-truth metric). We
// report HR@5, HR@20 and R5@20 over the test set, ranking each test
// trajectory's peers by predicted distance. NEUTRAJ (which owns its segment
// table) is evaluated through the same ranking harness.

#ifndef SARN_TASKS_TRAJ_SIMILARITY_TASK_H_
#define SARN_TASKS_TRAJ_SIMILARITY_TASK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "baselines/neutraj_lite.h"
#include "geo/point.h"
#include "roadnet/road_network.h"
#include "tasks/embedding_source.h"
#include "tasks/splits.h"
#include "traj/similarity_metrics.h"
#include "traj/trajectory.h"

namespace sarn::tasks {

struct TrajSimConfig {
  uint64_t seed = 71;
  int64_t gru_hidden = 64;
  int gru_layers = 2;
  int epochs = 6;
  int pairs_per_epoch = 1000;
  int batch_pairs = 24;
  float learning_rate = 0.01f;
  /// L2-normalise segment embeddings before the GRU (applied uniformly to
  /// every method; differentiable for trainable sources).
  bool normalize_embeddings = true;
  /// Ground-truth trajectory distance (paper default: discrete Fréchet;
  /// §5.2.2 notes the metric is replaceable — DTW/Hausdorff also supported).
  traj::SimilarityMetric metric = traj::SimilarityMetric::kFrechet;
};

struct TrajSimResult {
  double hr5 = 0.0;
  double hr20 = 0.0;
  double r5_20 = 0.0;
  int64_t num_test = 0;
};

class TrajectorySimilarityTask {
 public:
  /// Requires >= 30 trajectories so that the test split can rank top-20.
  TrajectorySimilarityTask(const roadnet::RoadNetwork& network,
                           std::vector<traj::MatchedTrajectory> trajectories,
                           const TrajSimConfig& config);

  /// Trains the GRU head on the source's embeddings and reports ranking
  /// metrics over the test split.
  TrajSimResult Evaluate(const EmbeddingSource& source) const;

  /// NEUTRAJ-lite: its own segment table + GRU, trained on the same split
  /// and judged by the same harness.
  TrajSimResult EvaluateNeutraj(const baselines::NeutrajLiteConfig& config) const;

  /// Ground-truth distance between two trajectories under the configured
  /// metric (cached).
  double GroundTruthDistance(size_t a, size_t b) const;

  const Split& split() const { return split_; }

 private:
  TrajSimResult RankTestSet(const tensor::Tensor& test_embeddings) const;

  const roadnet::RoadNetwork* network_;
  TrajSimConfig config_;
  std::vector<std::vector<int64_t>> sequences_;
  std::vector<std::vector<geo::LatLng>> polylines_;
  Split split_;
  mutable std::map<std::pair<size_t, size_t>, double> frechet_cache_;
  // True rankings among test items, computed once: true_ranking_[q] lists
  // the other test-set positions ordered by ground-truth distance.
  std::vector<std::vector<int64_t>> true_ranking_;
};

}  // namespace sarn::tasks

#endif  // SARN_TASKS_TRAJ_SIMILARITY_TASK_H_
