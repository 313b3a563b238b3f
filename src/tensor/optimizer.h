// Gradient-descent optimizers over Tensor parameters.
//
// The SARN trainer uses Adam with a cosine-annealed learning rate (paper
// §5.1).

#ifndef SARN_TENSOR_OPTIMIZER_H_
#define SARN_TENSOR_OPTIMIZER_H_

#include <vector>

#include "common/binary_io.h"
#include "tensor/tensor.h"

namespace sarn::tensor {

/// Adam (Kingma & Ba) with bias correction and the paper's constants
/// (beta1 0.9, beta2 0.999, epsilon 1e-8, no weight decay). Parameters are
/// registered once; Step() applies one update from the accumulated
/// gradients; ZeroGrad() clears them.
class Adam {
 public:
  Adam(std::vector<Tensor> parameters, float learning_rate);

  /// Applies one update using each parameter's current grad buffer.
  void Step();

  /// Zeroes the grad buffers of all registered parameters.
  void ZeroGrad();

  /// Serialises the learning rate, step count and both moment buffers
  /// (lr f32, step i64, m, v) so a restored optimizer produces a
  /// bitwise-identical next Step(). Parameter *values* are not included;
  /// checkpoint those separately.
  void SaveState(ByteWriter& out) const;

  /// Restores state written by SaveState for the same parameter list.
  /// Returns false — leaving this optimizer untouched — on truncation or a
  /// parameter-count/size mismatch.
  bool LoadState(ByteReader& in);

  /// Overrides the learning rate (used by LR schedules).
  void set_learning_rate(float lr) { learning_rate_ = lr; }
  float learning_rate() const { return learning_rate_; }

  int64_t step_count() const { return step_; }

  const std::vector<Tensor>& parameters() const { return parameters_; }

 private:
  std::vector<Tensor> parameters_;
  float learning_rate_;
  int64_t step_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Cosine-annealing learning-rate schedule down to zero: lr(t) = lr_max *
/// (1 + cos(pi * t / t_max)) / 2. Call OnEpoch(optimizer, epoch) at the start
/// of each epoch.
class CosineAnnealingSchedule {
 public:
  CosineAnnealingSchedule(float lr_max, int max_epochs);

  /// Learning rate for the given epoch (clamped to [0, max_epochs]).
  float LearningRateAt(int epoch) const;

  void OnEpoch(Adam& optimizer, int epoch) {
    last_epoch_ = epoch;
    optimizer.set_learning_rate(LearningRateAt(epoch));
  }

  /// Most recent epoch passed to OnEpoch (-1 before the first call); this is
  /// the schedule's full resumable state.
  int last_epoch() const { return last_epoch_; }

  void SaveState(ByteWriter& out) const;
  /// Returns false on truncation or a mismatched schedule horizon.
  bool LoadState(ByteReader& in);

 private:
  float lr_max_;
  int max_epochs_;
  int last_epoch_ = -1;
};

}  // namespace sarn::tensor

#endif  // SARN_TENSOR_OPTIMIZER_H_
