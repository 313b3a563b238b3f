#include "baselines/node2vec.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace sarn::baselines {
namespace {

float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

tensor::Tensor TrainNode2Vec(const roadnet::RoadNetwork& network,
                             const Node2VecConfig& config) {
  int64_t n = network.num_segments();
  int64_t d = config.dim;
  SARN_CHECK_GT(n, 1);
  Rng rng(config.seed);

  graph::CsrGraph g = network.ToTypeWeightedGraph();
  std::vector<std::vector<graph::VertexId>> corpus =
      GenerateWalkCorpus(g, config.walk, rng);

  // Input (embedding) and output (context) tables.
  std::vector<float> in(static_cast<size_t>(n * d));
  std::vector<float> out(static_cast<size_t>(n * d), 0.0f);
  float init = 0.5f / static_cast<float>(d);
  for (float& v : in) v = static_cast<float>(rng.Uniform(-init, init));

  // Unigram^0.75 negative-sampling distribution over corpus frequencies.
  std::vector<double> frequency(static_cast<size_t>(n), 1.0);
  for (const auto& walk : corpus) {
    for (graph::VertexId v : walk) frequency[static_cast<size_t>(v)] += 1.0;
  }
  std::vector<double> noise(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    noise[static_cast<size_t>(v)] = std::pow(frequency[static_cast<size_t>(v)], 0.75);
  }
  // Built once and reused: constructing a discrete distribution per draw
  // would cost O(n) per negative sample.
  std::discrete_distribution<size_t> noise_distribution(noise.begin(), noise.end());

  std::vector<float> gradient(static_cast<size_t>(d));
  float lr = config.learning_rate;
  int64_t total_steps = static_cast<int64_t>(corpus.size()) * config.epochs;
  int64_t step = 0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& walk : corpus) {
      // Linear learning-rate decay (word2vec style).
      float progress = static_cast<float>(step++) / std::max<int64_t>(1, total_steps);
      float current_lr = std::max(lr * (1.0f - progress), lr * 0.01f);
      for (size_t center = 0; center < walk.size(); ++center) {
        int64_t center_id = walk[center];
        float* center_vec = in.data() + center_id * d;
        size_t lo = center >= static_cast<size_t>(config.window)
                        ? center - static_cast<size_t>(config.window)
                        : 0;
        size_t hi = std::min(walk.size() - 1, center + static_cast<size_t>(config.window));
        for (size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          std::fill(gradient.begin(), gradient.end(), 0.0f);
          // One positive + k negative updates.
          for (int k = 0; k <= config.negatives_per_positive; ++k) {
            int64_t target;
            float label;
            if (k == 0) {
              target = walk[ctx];
              label = 1.0f;
            } else {
              target = static_cast<int64_t>(noise_distribution(rng.engine()));
              if (target == walk[ctx]) continue;
              label = 0.0f;
            }
            float* target_vec = out.data() + target * d;
            float dot = 0.0f;
            for (int64_t j = 0; j < d; ++j) dot += center_vec[j] * target_vec[j];
            float g_scale = (label - FastSigmoid(dot)) * current_lr;
            for (int64_t j = 0; j < d; ++j) {
              gradient[static_cast<size_t>(j)] += g_scale * target_vec[j];
              target_vec[j] += g_scale * center_vec[j];
            }
          }
          for (int64_t j = 0; j < d; ++j) center_vec[j] += gradient[static_cast<size_t>(j)];
        }
      }
    }
  }
  return tensor::Tensor::FromVector({n, d}, std::move(in));
}

}  // namespace sarn::baselines
