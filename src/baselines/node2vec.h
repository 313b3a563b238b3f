// node2vec baseline (Grover & Leskovec, KDD'16): biased random walks over
// the road-segment graph + skip-gram with negative sampling (word2vec).
// Topology-only — no spatial structure — which is exactly the weakness the
// paper's experiments expose.
//
// The skip-gram trainer is a classic hand-rolled SGNS loop over raw float
// tables (no autograd): it is the standard formulation and an order of
// magnitude faster than taping millions of tiny ops.

#ifndef SARN_BASELINES_NODE2VEC_H_
#define SARN_BASELINES_NODE2VEC_H_

#include <cstdint>

#include "graph/random_walk.h"
#include "roadnet/road_network.h"
#include "tensor/tensor.h"

namespace sarn::baselines {

struct Node2VecConfig {
  uint64_t seed = 17;
  int64_t dim = 64;
  graph::RandomWalkConfig walk;
  int window = 5;
  int negatives_per_positive = 5;
  int epochs = 2;
  float learning_rate = 0.025f;
};

/// Trains node2vec embeddings for all road segments. Returns [n, dim].
tensor::Tensor TrainNode2Vec(const roadnet::RoadNetwork& network,
                             const Node2VecConfig& config);

}  // namespace sarn::baselines

#endif  // SARN_BASELINES_NODE2VEC_H_
