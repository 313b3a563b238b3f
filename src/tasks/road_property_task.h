// Downstream task 1: road property (speed limit) prediction (paper §5.2.1).
//
// The labels are the posted speed limits of the labeled subset of segments
// (never part of the embedding inputs). A one-hidden-layer FFN classifier
// (32 units, as in the paper) is trained on frozen or jointly-trainable
// embeddings with a 6:2:2 split; we report F1 (micro) and one-vs-rest AUC,
// selecting the test epoch by validation F1.

#ifndef SARN_TASKS_ROAD_PROPERTY_TASK_H_
#define SARN_TASKS_ROAD_PROPERTY_TASK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "roadnet/road_network.h"
#include "tasks/embedding_source.h"
#include "tasks/splits.h"

namespace sarn::tasks {

struct RoadPropertyConfig {
  uint64_t seed = 51;
  int64_t hidden = 32;
  int epochs = 150;
  /// Epoch budget when the source itself is trainable (SARN*, HRNR): every
  /// epoch then re-encodes the whole network, so fewer epochs are used.
  int epochs_trainable = 60;
  float learning_rate = 0.01f;
  /// Use at most this many labeled segments (0 = all); mirrors the paper's
  /// partially-labeled datasets.
  int64_t max_labeled = 0;
};

struct RoadPropertyResult {
  double f1 = 0.0;        // Micro F1 on test.
  double macro_f1 = 0.0;  // Macro F1 on test.
  double auc = 0.0;       // One-vs-rest macro AUC on test.
  int64_t num_classes = 0;
  int64_t num_labeled = 0;
};

class RoadPropertyTask {
 public:
  RoadPropertyTask(const roadnet::RoadNetwork& network, const RoadPropertyConfig& config);

  /// Trains the classifier (jointly with the source's trainable parameters)
  /// and reports test metrics.
  RoadPropertyResult Evaluate(const EmbeddingSource& source) const;

  int64_t num_classes() const { return static_cast<int64_t>(class_of_speed_.size()); }
  int64_t num_labeled() const { return static_cast<int64_t>(labeled_ids_.size()); }

 private:
  RoadPropertyConfig config_;
  std::vector<int64_t> labeled_ids_;
  std::vector<int64_t> labels_;  // Aligned with labeled_ids_.
  std::map<int, int64_t> class_of_speed_;
  Split split_;  // Indexes into labeled_ids_.
};

}  // namespace sarn::tasks

#endif  // SARN_TASKS_ROAD_PROPERTY_TASK_H_
