#include "tasks/road_property_task.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/linear.h"
#include "nn/losses.h"
#include "tasks/metrics.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace sarn::tasks {

using tensor::Tensor;

RoadPropertyTask::RoadPropertyTask(const roadnet::RoadNetwork& network,
                                   const RoadPropertyConfig& config)
    : config_(config) {
  std::vector<int64_t> candidates;
  for (int64_t i = 0; i < network.num_segments(); ++i) {
    if (network.segment(i).speed_limit_kmh.has_value()) candidates.push_back(i);
  }
  if (config.max_labeled > 0 &&
      static_cast<int64_t>(candidates.size()) > config.max_labeled) {
    Rng rng(config.seed);
    rng.Shuffle(candidates);
    candidates.resize(static_cast<size_t>(config.max_labeled));
  }
  labeled_ids_ = std::move(candidates);
  SARN_CHECK_GE(labeled_ids_.size(), 10u) << "too few labeled segments";
  for (int64_t id : labeled_ids_) {
    int speed = *network.segment(id).speed_limit_kmh;
    class_of_speed_.emplace(speed, static_cast<int64_t>(class_of_speed_.size()));
  }
  // Re-number classes in sorted speed order for determinism.
  int64_t next = 0;
  for (auto& [speed, cls] : class_of_speed_) cls = next++;
  for (int64_t id : labeled_ids_) {
    labels_.push_back(class_of_speed_.at(*network.segment(id).speed_limit_kmh));
  }
  split_ = MakeSplit(static_cast<int64_t>(labeled_ids_.size()), config.seed + 1);
}

RoadPropertyResult RoadPropertyTask::Evaluate(const EmbeddingSource& source) const {
  Rng rng(config_.seed + 2);
  int64_t num_classes = this->num_classes();
  nn::Ffn classifier({source.dim(), config_.hidden, num_classes},
                     nn::Activation::kRelu, rng);
  std::vector<Tensor> parameters = classifier.Parameters();
  for (const Tensor& p : source.TrainableParameters()) parameters.push_back(p);
  tensor::Adam optimizer(parameters, config_.learning_rate);

  auto subset_labels = [&](const std::vector<int64_t>& subset) {
    std::vector<int64_t> out;
    out.reserve(subset.size());
    for (int64_t local : subset) out.push_back(labels_[static_cast<size_t>(local)]);
    return out;
  };
  auto subset_segment_ids = [&](const std::vector<int64_t>& subset) {
    std::vector<int64_t> out;
    out.reserve(subset.size());
    for (int64_t local : subset) out.push_back(labeled_ids_[static_cast<size_t>(local)]);
    return out;
  };

  std::vector<int64_t> train_segments = subset_segment_ids(split_.train);
  std::vector<int64_t> train_labels = subset_labels(split_.train);
  std::vector<int64_t> val_segments = subset_segment_ids(split_.val);
  std::vector<int64_t> val_labels = subset_labels(split_.val);
  std::vector<int64_t> test_segments = subset_segment_ids(split_.test);
  std::vector<int64_t> test_labels = subset_labels(split_.test);

  bool trainable_source = !source.TrainableParameters().empty();
  Tensor frozen_embeddings;
  if (!trainable_source) frozen_embeddings = source.Forward();

  auto logits_for = [&](const std::vector<int64_t>& segments) {
    Tensor embeddings = trainable_source ? source.Forward() : frozen_embeddings;
    return classifier.Forward(tensor::Rows(embeddings, segments));
  };
  auto predict = [&](const Tensor& logits) {
    std::vector<int64_t> predictions;
    int64_t m = logits.shape()[0];
    for (int64_t i = 0; i < m; ++i) {
      int64_t best = 0;
      for (int64_t c = 1; c < num_classes; ++c) {
        if (logits.at(i, c) > logits.at(i, best)) best = c;
      }
      predictions.push_back(best);
    }
    return predictions;
  };

  double best_val_f1 = -1.0;
  RoadPropertyResult best;
  best.num_classes = num_classes;
  best.num_labeled = num_labeled();
  int epochs = trainable_source ? config_.epochs_trainable : config_.epochs;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    optimizer.ZeroGrad();
    Tensor loss = nn::CrossEntropyWithLogits(logits_for(train_segments), train_labels);
    loss.Backward();
    optimizer.Step();

    // Periodic validation-gated test measurement.
    if (epoch % 5 == 4 || epoch + 1 == epochs) {
      tensor::NoGradGuard guard;
      double val_f1 = MicroF1(predict(logits_for(val_segments)), val_labels);
      if (val_f1 > best_val_f1) {
        best_val_f1 = val_f1;
        Tensor test_logits = logits_for(test_segments);
        Tensor probabilities = tensor::RowSoftmax(test_logits);
        std::vector<std::vector<double>> scores(test_labels.size());
        for (size_t i = 0; i < test_labels.size(); ++i) {
          for (int64_t c = 0; c < num_classes; ++c) {
            scores[i].push_back(probabilities.at(static_cast<int64_t>(i), c));
          }
        }
        std::vector<int64_t> predictions = predict(test_logits);
        best.f1 = MicroF1(predictions, test_labels);
        best.macro_f1 = MacroF1(predictions, test_labels);
        best.auc = MacroAuc(scores, test_labels, num_classes);
      }
    }
  }
  return best;
}

}  // namespace sarn::tasks
