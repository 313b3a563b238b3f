// The SARN model (paper §4) as a composition over the pluggable contrastive
// plane (DESIGN.md §16): feature embedding + a momentum-coupled pair of
// graph encoders (core::Encoder) and projection heads, trained by the
// variant-agnostic ContrastiveTrainer with a graph-view generator
// (core::Augmentation) and a negative-sampling/loss policy
// (core::NegativeSampler). The paper's defaults compose encoder "gat" +
// augmentation "spatial-importance" + negatives "spatial" (Algorithm 1);
// every piece is swappable by registry name through SarnConfig.
//
// Ablation variants (paper §5.4) are obtained through SarnConfig:
//  * SARN          — defaults.
//  * SARN-w/o-M    — use_spatial_matrix = false.
//  * SARN-w/o-NL   — use_spatial_negatives = false (resolves the "spatial"
//                    negatives to "random": plain InfoNCE).
//  * SARN-w/o-MNL  — both false (the plain weighted-GCL baseline of §3).

#ifndef SARN_CORE_SARN_MODEL_H_
#define SARN_CORE_SARN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/augmentation.h"
#include "core/checkpoint_tags.h"
#include "core/encoder.h"
#include "core/negative_sampler.h"
#include "core/receptive_field.h"
#include "core/sarn_config.h"
#include "core/spatial_similarity.h"
#include "nn/embedding.h"
#include "nn/gat.h"
#include "nn/projection_head.h"
#include "obs/metrics_sink.h"
#include "roadnet/features.h"
#include "roadnet/road_network.h"
#include "snapshot/arena.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace sarn::core {

struct TrainStats {
  int epochs_run = 0;
  double final_loss = 0.0;
  double seconds = 0.0;
  std::vector<double> epoch_losses;
  /// Epochs that were already complete when this call started (restored from
  /// a checkpoint); 0 for a fresh run. epoch_losses always covers the full
  /// history, including restored epochs.
  int resumed_from_epoch = 0;
  /// Checkpoint files successfully written by this call.
  int checkpoints_written = 0;
  /// True when training stopped because a loss or gradient norm went
  /// non-finite; abort_reason carries the diagnostic. The model keeps the
  /// last finite parameter state and no checkpoint of the poisoned epoch is
  /// written. Also true, before any epoch runs, when checkpoint_dir is set
  /// but cannot be created or listed.
  bool aborted = false;
  std::string abort_reason;
};

/// Options for the crash-safe training driver. Defaults reproduce the
/// original single-shot Train() behaviour (no checkpointing).
struct TrainOptions {
  /// Directory for rolling checkpoints (created if missing). Empty disables
  /// checkpointing and resume. A path that is not a usable directory aborts
  /// the run before its first epoch.
  std::string checkpoint_dir;
  /// Write a checkpoint every this many completed epochs (>= 1). A final
  /// checkpoint is always written when training stops with checkpointing on.
  int checkpoint_every = 1;
  /// Rolling retention: only the newest `keep_last` checkpoint files are
  /// kept in checkpoint_dir.
  int keep_last = 3;
  /// Resume from the newest valid checkpoint in checkpoint_dir; corrupt or
  /// mismatched files are skipped with a logged warning.
  bool resume = true;
  /// Stop once this many *total* epochs are complete (simulating a kill at
  /// epoch k); < 0 trains to config.max_epochs. The LR schedule and
  /// early-stopping horizon always follow config.max_epochs, so an
  /// interrupted-and-resumed run is bitwise identical to an uninterrupted
  /// one.
  int max_epochs = -1;
  /// Optional telemetry sink (not owned; must outlive the Train call).
  /// Receives one obs::EpochRecord per completed epoch plus checkpoint
  /// lifecycle events. Telemetry is measurement-only: it never touches the
  /// RNG or the numerics, so a run with a sink attached is bitwise identical
  /// to one without.
  obs::MetricsSink* metrics_sink = nullptr;
  /// Run label stamped on every telemetry record ("sarn" for the model's own
  /// training; baseline wrappers pass their own name).
  std::string run_name = "sarn";
};

/// Typed outcome of the SarnModel loads.
enum class ModelLoadError {
  kOk = 0,
  kFileNotFound,          // Missing or unreadable path.
  kParseError,            // Unparsable CSV (ragged rows, non-numeric or
                          // non-finite cells).
  kArchitectureMismatch,  // Checkpoint does not fit the requested config.
  kVariantMismatch,       // Checkpoint was written by a different encoder/
                          // augmentation/negatives combo (the message names
                          // both combos).
};
const char* ModelLoadErrorName(ModelLoadError error);

/// Typed status of the partial-restore entry points (no payload).
struct ModelLoadStatus {
  ModelLoadError error = ModelLoadError::kOk;
  std::string message;
  bool ok() const { return error == ModelLoadError::kOk; }
};

struct ModelLoadResult {
  ModelLoadError error = ModelLoadError::kOk;
  std::string message;
  /// The [n, d] embedding matrix; defined on success.
  tensor::Tensor embeddings;
  bool ok() const { return error == ModelLoadError::kOk; }
};

class SarnModel {
 public:
  /// `network` must outlive the model. The config's variant names must be
  /// registered (checked); unknown names abort with the available set.
  SarnModel(const roadnet::RoadNetwork& network, SarnConfig config);

  /// Reads a headerless n x d CSV of embedding rows; every cell must be a
  /// finite float (kParseError names the first row and column that is not).
  static ModelLoadResult LoadEmbeddingsCsv(const std::string& path);

  /// Rebuilds the architecture of `config` over `network`, restores its
  /// online branch from a SaveWeights file or rolling training checkpoint
  /// (LoadWeights) and returns its Embeddings().
  static ModelLoadResult LoadCheckpointEmbeddings(const std::string& path,
                                                  const roadnet::RoadNetwork& network,
                                                  const SarnConfig& config);

  /// Runs Algorithm 1 (with cosine-annealed Adam and loss-plateau early
  /// stopping) and leaves the online encoder ready for Embeddings().
  TrainStats Train();

  /// Fault-tolerant epoch-stepping driver (ContrastiveTrainer): same
  /// training loop, but resumes from the newest valid checkpoint in
  /// options.checkpoint_dir, writes atomic rolling checkpoints of the
  /// *complete* training state (online + momentum parameters, Adam moments,
  /// schedule position, RNG stream, negative-sampler state, early-stop
  /// progress, variant tag), and aborts with a diagnostic if a loss or
  /// gradient norm goes non-finite. Resume invariant: a run killed after
  /// any checkpoint and resumed with the same config and thread count
  /// finishes bitwise identical to an uninterrupted run.
  TrainStats Train(const TrainOptions& options);

  /// Road-segment embeddings H = F(S, G) on the *uncorrupted* graph,
  /// detached ([n, d]). This is what downstream tasks consume.
  tensor::Tensor Embeddings() const;

  /// Gradient-tracked encoder output for SARN* fine-tuning; optimise
  /// FineTuneParameters() against a task loss on top of this.
  tensor::Tensor EncodeForFineTune() const;

  /// Final encoder layer parameters (the paper fine-tunes only this layer).
  std::vector<tensor::Tensor> FineTuneParameters() const;

  const SarnConfig& config() const { return config_; }
  const std::vector<SpatialEdge>& spatial_edges() const { return spatial_edges_; }
  const roadnet::RoadNetwork& network() const { return *network_; }
  int64_t embedding_dim() const { return config_.embedding_dim; }

  /// The resolved registry names this model is composed of (config names
  /// after legacy-ablation mapping; see ResolvedVariantTag).
  const VariantTag& variant_tag() const { return variant_tag_; }
  const char* negatives_name() const { return variant_tag_.negatives.c_str(); }

  /// All trainable parameters of the online branch (tests/inspection).
  std::vector<tensor::Tensor> OnlineParameters() const;

  /// Atomically writes the weights file: an arena (snapshot/arena.h) with
  /// the two model sections, sarn/variant and sarn/online.
  snapshot::SnapshotStatus SaveWeights(const std::string& path) const;

  /// Restores the online branch (and re-syncs the target branch to it) from
  /// any arena carrying the model sections: a SaveWeights file or a rolling
  /// training checkpoint, whose optimizer/RNG/queue sections are ignored.
  /// This is what `sarn snapshot save --checkpoint` reads. The variant tag
  /// is required and must match this model's composition (kVariantMismatch
  /// names both combos otherwise); a missing section, a corrupt file or an
  /// architecture mismatch also fails, and the model is left untouched.
  ModelLoadStatus LoadWeights(const std::string& path);

 private:
  friend class SarnModelTestPeer;
  friend class ContrastiveTrainer;

  /// Momentum-branch parameters (target encoder + target head).
  std::vector<tensor::Tensor> TargetParameters() const;

  /// Adds the model sections (sarn/variant, sarn/online) to an arena; shared
  /// by SaveWeights and the trainer's checkpoints.
  void AddModelSections(snapshot::SnapshotWriter& writer) const;
  /// Phase 1 of every restore: requires both model sections, checks the
  /// variant tag against this model, then parses sarn/online into `staged`
  /// (one buffer per OnlineParameters() tensor). Touches no parameter.
  ModelLoadStatus StageModelSections(const snapshot::MappedSnapshot& arena,
                                     std::vector<std::vector<float>>* staged) const;

  /// Binds `field` to `view` with this model's input ids (the view's
  /// attribute mask, if any) and encoder depth; starts in the all-rows case.
  void BindField(const GraphView& view, ReceptiveField* field) const;

  /// Online forward over a bound field: feature embedding of the input rows
  /// -> encoder -> [field.rows(L), d].
  tensor::Tensor OnlineEncode(const ReceptiveField& field) const;
  /// Target branch forward (call under NoGradGuard), through the projection
  /// head: [field.rows(L), d_z], L2-normalised.
  tensor::Tensor TargetProject(const ReceptiveField& field) const;
  /// OnlineEncode over all rows of the uncorrupted graph.
  tensor::Tensor EncodeFullGraph() const;

  /// Contrastive loss of one minibatch, delegated to the negative sampler.
  /// `z` is the online projection rows of the batch (normalised,
  /// grad-tracked); `z_prime` the matching momentum projections (detached,
  /// normalised). Convenience for policies that never read z'_all.
  tensor::Tensor ComputeLoss(const tensor::Tensor& z, const tensor::Tensor& z_prime,
                             const std::vector<int64_t>& batch, Rng& rng) const;

  const roadnet::RoadNetwork* network_;
  SarnConfig config_;
  VariantTag variant_tag_;
  roadnet::SegmentFeatures features_;
  std::vector<SpatialEdge> spatial_edges_;
  /// The uncorrupted graph as a GraphView; what Embeddings()/
  /// EncodeForFineTune() encode over.
  GraphView full_view_;

  std::unique_ptr<nn::FeatureEmbedding> feature_embedding_;
  std::unique_ptr<Encoder> online_encoder_;
  std::unique_ptr<nn::ProjectionHead> online_head_;
  std::unique_ptr<Encoder> target_encoder_;
  std::unique_ptr<nn::ProjectionHead> target_head_;
  std::unique_ptr<Augmentation> augmentation_;
  std::unique_ptr<NegativeSampler> sampler_;
};

}  // namespace sarn::core

#endif  // SARN_CORE_SARN_MODEL_H_
