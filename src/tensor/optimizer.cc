#include "tensor/optimizer.h"

#include <cmath>

#include "geo/point.h"

namespace sarn::tensor {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

// Per-parameter moment buffers are written as a count followed by one float
// vector per parameter.
void WriteBuffers(ByteWriter& out, const std::vector<std::vector<float>>& buffers) {
  out.PutU64(buffers.size());
  for (const std::vector<float>& b : buffers) out.PutFloats(b);
}

// Reads buffers written by WriteBuffers into `staged`, validating the count
// and per-parameter sizes against `parameters`. Strong guarantee: on failure
// `staged` content is unspecified but nothing else is touched.
bool ReadBuffers(ByteReader& in, const std::vector<Tensor>& parameters,
                 std::vector<std::vector<float>>* staged) {
  uint64_t count = 0;
  if (!in.GetU64(&count) || count != parameters.size()) return false;
  staged->resize(parameters.size());
  for (size_t i = 0; i < parameters.size(); ++i) {
    if (!in.GetFloats(&(*staged)[i])) return false;
    if ((*staged)[i].size() != parameters[i].data().size()) return false;
  }
  return true;
}

}  // namespace

Adam::Adam(std::vector<Tensor> parameters, float learning_rate)
    : parameters_(std::move(parameters)), learning_rate_(learning_rate) {
  m_.resize(parameters_.size());
  v_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    SARN_CHECK(parameters_[i].defined() && parameters_[i].requires_grad())
        << "optimizer parameters must be defined and require grad";
    m_[i].assign(parameters_[i].data().size(), 0.0f);
    v_[i].assign(parameters_[i].data().size(), 0.0f);
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : parameters_) p.ZeroGrad();
}

void Adam::SaveState(ByteWriter& out) const {
  out.PutF32(learning_rate_);
  out.PutI64(step_);
  WriteBuffers(out, m_);
  WriteBuffers(out, v_);
}

bool Adam::LoadState(ByteReader& in) {
  float lr = 0.0f;
  int64_t step = 0;
  if (!in.GetF32(&lr) || !in.GetI64(&step) || step < 0) return false;
  std::vector<std::vector<float>> m, v;
  if (!ReadBuffers(in, parameters_, &m) || !ReadBuffers(in, parameters_, &v)) {
    return false;
  }
  learning_rate_ = lr;
  step_ = step;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

void Adam::Step() {
  ++step_;
  float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_));
  float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Storage& data = parameters_[i].mutable_data();
    const Storage& grad = parameters_[i].grad();
    std::vector<float>& m = m_[i];
    std::vector<float>& v = v_[i];
    for (size_t j = 0; j < data.size(); ++j) {
      float g = grad[j];
      m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * g;
      v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * g * g;
      float m_hat = m[j] / bias1;
      float v_hat = v[j] / bias2;
      data[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + kEpsilon);
    }
  }
}

CosineAnnealingSchedule::CosineAnnealingSchedule(float lr_max, int max_epochs)
    : lr_max_(lr_max), max_epochs_(max_epochs) {
  SARN_CHECK_GT(max_epochs, 0);
}

void CosineAnnealingSchedule::SaveState(ByteWriter& out) const {
  out.PutI64(max_epochs_);
  out.PutI64(last_epoch_);
}

bool CosineAnnealingSchedule::LoadState(ByteReader& in) {
  int64_t max_epochs = 0;
  int64_t last_epoch = 0;
  if (!in.GetI64(&max_epochs) || !in.GetI64(&last_epoch)) return false;
  if (max_epochs != max_epochs_) return false;  // Different schedule horizon.
  last_epoch_ = static_cast<int>(last_epoch);
  return true;
}

float CosineAnnealingSchedule::LearningRateAt(int epoch) const {
  if (epoch < 0) epoch = 0;
  if (epoch > max_epochs_) epoch = max_epochs_;
  double phase = static_cast<double>(epoch) / max_epochs_;
  return lr_max_ * 0.5f * static_cast<float>(1.0 + std::cos(geo::kPi * phase));
}

}  // namespace sarn::tensor
