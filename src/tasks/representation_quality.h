// Alignment / uniformity diagnostics (Wang & Isola, ICML'20 — the paper
// cites them in §4.4 to argue that a large negative pool "prompts the
// distribution of embeddings with uniformity").
//
//   alignment  = E[ ||f(x) - f(x+)||^2 ]  over positive pairs (lower = better)
//   uniformity = log E[ exp(-2 ||f(x) - f(y)||^2) ] over random pairs
//                (lower = more uniform on the hypersphere)
//
// Both are computed on L2-normalised embeddings. Used by tests and
// diagnostics to verify that contrastive training actually improves the
// embedding distribution, independent of any downstream task.

#ifndef SARN_TASKS_REPRESENTATION_QUALITY_H_
#define SARN_TASKS_REPRESENTATION_QUALITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace sarn::tasks {

/// Mean squared L2 distance between normalised embedding pairs (rows
/// `pairs[i].first` vs `pairs[i].second`).
double AlignmentLoss(const tensor::Tensor& embeddings,
                     const std::vector<std::pair<int64_t, int64_t>>& pairs);

/// log E[exp(-t * ||x - y||^2)] over `num_samples` random row pairs
/// (t = 2, the paper's [38] default). Deterministic given `seed`.
double UniformityLoss(const tensor::Tensor& embeddings, int num_samples,
                      uint64_t seed, double t = 2.0);

}  // namespace sarn::tasks

#endif  // SARN_TASKS_REPRESENTATION_QUALITY_H_
