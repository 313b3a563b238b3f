// The variant-agnostic contrastive training driver (DESIGN.md §16).
//
// ContrastiveTrainer owns everything about *how* momentum contrastive
// training runs — the epoch/batch loop, MoCo momentum update, optimizer and
// LR schedule, crash-safe checkpoint/resume (with the variant tag),
// abort-on-non-finite guards, and epoch telemetry — while the model supplies
// *what* is trained: the encoder pair, the augmentation's graph views, and
// the negative sampler's loss. Swapping any registry variant changes none of
// the trainer's code, which is why the bitwise-reproducibility invariants
// (resume identity, thread-count identity) hold for every composition at
// once.

#ifndef SARN_CORE_CONTRASTIVE_TRAINER_H_
#define SARN_CORE_CONTRASTIVE_TRAINER_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/receptive_field.h"
#include "nn/serialization.h"
#include "tensor/optimizer.h"

namespace sarn::core {

class SarnModel;
struct TrainOptions;
struct TrainStats;

class ContrastiveTrainer {
 public:
  /// `model` must outlive the trainer.
  explicit ContrastiveTrainer(SarnModel& model) : model_(&model) {}

  /// Runs (or resumes) training to completion; see SarnModel::Train for the
  /// full contract.
  TrainStats Run(const TrainOptions& options);

 private:
  /// Early-stopping and epoch bookkeeping carried across checkpoints.
  struct Progress {
    int next_epoch = 0;
    double best_loss = 1e18;
    int epochs_since_best = 0;
    std::vector<double> epoch_losses;
  };

  /// Packs the complete training state into a checkpoint container,
  /// including the model's variant tag.
  nn::TrainingCheckpoint BuildCheckpoint(const tensor::Adam& optimizer,
                                         const tensor::CosineAnnealingSchedule& schedule,
                                         const Rng& rng, const Progress& progress) const;

  /// Restores the state captured by BuildCheckpoint. Atomic: every section
  /// is parsed and validated into staging first, and the model/optimizer/
  /// rng/sampler are only mutated once everything checks out. Returns false
  /// when the checkpoint does not match this model, with a human-readable
  /// reason in *detail (a variant-tag mismatch names both combos).
  bool ApplyCheckpoint(const nn::TrainingCheckpoint& ckpt, tensor::Adam& optimizer,
                       tensor::CosineAnnealingSchedule& schedule, Rng& rng,
                       Progress& progress, std::string* detail);

  SarnModel* model_;
  /// Per-view receptive fields (online view, target view): rebound each
  /// epoch and restricted each batch, reusing their index buffers.
  ReceptiveField online_field_;
  ReceptiveField target_field_;
};

}  // namespace sarn::core

#endif  // SARN_CORE_CONTRASTIVE_TRAINER_H_
