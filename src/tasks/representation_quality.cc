#include "tasks/representation_quality.h"

#include <cmath>

#include "common/check.h"

namespace sarn::tasks {
namespace {

// Normalised row accessor: returns unit row i of x into `out`.
void NormalizedRow(const tensor::Tensor& x, int64_t i, std::vector<double>& out) {
  int64_t d = x.shape()[1];
  out.resize(static_cast<size_t>(d));
  double sq = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    out[static_cast<size_t>(j)] = x.at(i, j);
    sq += out[static_cast<size_t>(j)] * out[static_cast<size_t>(j)];
  }
  double inv = sq > 1e-16 ? 1.0 / std::sqrt(sq) : 0.0;
  for (double& v : out) v *= inv;
}

double SquaredDistance(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    double diff = a[j] - b[j];
    total += diff * diff;
  }
  return total;
}

}  // namespace

double AlignmentLoss(const tensor::Tensor& embeddings,
                     const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  SARN_CHECK_EQ(embeddings.rank(), 2);
  SARN_CHECK(!pairs.empty());
  std::vector<double> a, b;
  double total = 0.0;
  for (const auto& [i, j] : pairs) {
    NormalizedRow(embeddings, i, a);
    NormalizedRow(embeddings, j, b);
    total += SquaredDistance(a, b);
  }
  return total / static_cast<double>(pairs.size());
}

double UniformityLoss(const tensor::Tensor& embeddings, int num_samples, uint64_t seed,
                      double t) {
  SARN_CHECK_EQ(embeddings.rank(), 2);
  int64_t n = embeddings.shape()[0];
  SARN_CHECK_GT(n, 1);
  SARN_CHECK_GT(num_samples, 0);
  Rng rng(seed);
  std::vector<double> a, b;
  double sum = 0.0;
  for (int s = 0; s < num_samples; ++s) {
    int64_t i = rng.UniformInt(0, n - 1);
    int64_t j = rng.UniformInt(0, n - 1);
    while (j == i) j = rng.UniformInt(0, n - 1);
    NormalizedRow(embeddings, i, a);
    NormalizedRow(embeddings, j, b);
    sum += std::exp(-t * SquaredDistance(a, b));
  }
  return std::log(sum / num_samples);
}

}  // namespace sarn::tasks
