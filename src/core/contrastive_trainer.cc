#include "core/contrastive_trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/checkpoint_tags.h"
#include "core/sarn_model.h"
#include "nn/serialization.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/storage.h"

namespace sarn::core {
namespace {

using tensor::Tensor;

int64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

// Squared L2 norm of the accumulated gradients; +inf/NaN poison propagates
// into the sum, so one finite check covers every parameter.
double GradNormSquared(const std::vector<Tensor>& parameters) {
  double sum = 0.0;
  for (const Tensor& p : parameters) {
    for (float g : p.grad()) sum += static_cast<double>(g) * g;
  }
  return sum;
}

// L2-normalises a raw float vector in place.
void NormalizeVector(std::vector<float>& v) {
  double sq = 0.0;
  for (float x : v) sq += static_cast<double>(x) * x;
  float inv = sq > 1e-16 ? static_cast<float>(1.0 / std::sqrt(sq)) : 0.0f;
  for (float& x : v) x *= inv;
}

// Wall-time breakdown of one training epoch; field order is the emission
// order in the metrics file.
struct EpochPhases {
  double augmentation = 0.0;
  double target_forward = 0.0;
  double online_forward = 0.0;
  double loss = 0.0;
  double backward = 0.0;
  double optimizer_step = 0.0;
  double queue_push = 0.0;
  double checkpoint_write = 0.0;

  std::vector<std::pair<std::string, double>> AsList() const {
    return {{"augmentation", augmentation},   {"target_forward", target_forward},
            {"online_forward", online_forward}, {"loss", loss},
            {"backward", backward},           {"optimizer_step", optimizer_step},
            {"queue_push", queue_push},       {"checkpoint_write", checkpoint_write}};
  }
};

// Sums of one branch's receptive-field sizes over an epoch's batches.
struct HaloSums {
  std::vector<double> rows;   // Per depth R_0 .. R_L.
  std::vector<double> edges;  // Per layer.

  void Add(const ReceptiveField& field) {
    rows.resize(static_cast<size_t>(field.num_layers()) + 1, 0.0);
    edges.resize(static_cast<size_t>(field.num_layers()), 0.0);
    for (int d = 0; d <= field.num_layers(); ++d) {
      rows[static_cast<size_t>(d)] += static_cast<double>(field.rows(d));
    }
    for (int l = 0; l < field.num_layers(); ++l) {
      edges[static_cast<size_t>(l)] += static_cast<double>(field.edges(l));
    }
  }

  obs::EpochRecord::HaloBranch Mean(const char* name, int batches) const {
    obs::EpochRecord::HaloBranch branch;
    branch.name = name;
    const double scale = 1.0 / std::max(1, batches);
    for (double sum : rows) branch.rows.push_back(sum * scale);
    for (double sum : edges) branch.edges.push_back(sum * scale);
    return branch;
  }
};

}  // namespace

TrainStats ContrastiveTrainer::Run(const TrainOptions& options) {
  Timer timer;
  const SarnConfig& config = model_->config_;
  Rng rng(config.seed + 1);

  std::vector<Tensor> parameters = model_->OnlineParameters();
  tensor::Adam optimizer(parameters, config.learning_rate);
  tensor::CosineAnnealingSchedule schedule(config.learning_rate, config.max_epochs);

  std::vector<Tensor> target_params = model_->TargetParameters();
  std::vector<Tensor> online_params_no_features = model_->online_encoder_->Parameters();
  for (const Tensor& p : model_->online_head_->Parameters()) {
    online_params_no_features.push_back(p);
  }

  TrainStats stats;
  Progress progress;
  const bool checkpointing = !options.checkpoint_dir.empty();
  std::vector<std::pair<int, std::string>> found;
  if (checkpointing) {
    // A run asked to checkpoint never trains without: an unusable directory
    // aborts before the first epoch.
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    snapshot::SnapshotStatus listed = nn::ListCheckpoints(options.checkpoint_dir, &found);
    if (!listed.ok()) {
      stats.aborted = true;
      stats.abort_reason = "unusable checkpoint dir: " + listed.message;
      SARN_LOG(Error) << "training aborted: " << stats.abort_reason;
      return stats;
    }
  }
  if (options.resume) {
    // Newest first; every skipped or restored file becomes a structured
    // checkpoint lifecycle event (log line + registry counter + sink).
    for (const auto& [ckpt_epoch, path] : found) {
      obs::CheckpointEvent event;
      event.path = path;
      event.epoch = ckpt_epoch;
      Timer load_timer;
      std::shared_ptr<const snapshot::MappedSnapshot> arena;
      snapshot::SnapshotStatus status = snapshot::MappedSnapshot::Map(path, {}, &arena);
      if (!status.ok()) {
        event.action = obs::CheckpointEvent::Action::kSkippedCorrupt;
        event.detail = std::string(snapshot::SnapshotErrorName(status.error)) + ": " +
                       status.message;
        obs::RecordCheckpointEvent(options.metrics_sink, event);
        continue;
      }
      std::string detail;
      if (!ApplyCheckpoint(*arena, optimizer, schedule, rng, progress, &detail)) {
        event.action = obs::CheckpointEvent::Action::kSkippedMismatch;
        event.detail = detail;
        obs::RecordCheckpointEvent(options.metrics_sink, event);
        continue;
      }
      event.action = obs::CheckpointEvent::Action::kResumedFrom;
      event.epoch = progress.next_epoch;
      event.bytes = static_cast<int64_t>(arena->file_bytes());
      event.seconds = load_timer.ElapsedSeconds();
      obs::RecordCheckpointEvent(options.metrics_sink, event);
      stats.resumed_from_epoch = progress.next_epoch;
      break;
    }
  }
  stats.epoch_losses = progress.epoch_losses;
  stats.epochs_run = progress.next_epoch;
  if (!stats.epoch_losses.empty()) stats.final_loss = stats.epoch_losses.back();

  int64_t n = model_->network_->num_segments();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  NegativeSampler& sampler = *model_->sampler_;
  const Augmentation& augmentation = *model_->augmentation_;
  const bool keep_all_projections = sampler.NeedsAllProjections();
  const bool sampler_wants_pushes = sampler.WantsPushes();

  // Cached instrument references: one registry lock each, lock-free updates
  // in the loop. Telemetry is measurement-only — it must never touch `rng`
  // or the numerics, or resumed runs would stop being bitwise reproducible.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter& epochs_counter = registry.GetCounter("sarn.train.epochs");
  obs::Counter& batches_counter = registry.GetCounter("sarn.train.batches");
  obs::Gauge& loss_gauge = registry.GetGauge("sarn.train.loss");
  obs::Gauge& lr_gauge = registry.GetGauge("sarn.train.lr");
  obs::Gauge& grad_norm_gauge = registry.GetGauge("sarn.train.grad_norm");
  obs::Gauge& queue_stored_gauge = registry.GetGauge("sarn.queue.stored");
  obs::Histogram& epoch_seconds_hist =
      registry.GetHistogram("sarn.train.epoch_seconds");

  int stop_after = options.max_epochs >= 0
                       ? std::min(options.max_epochs, config.max_epochs)
                       : config.max_epochs;
  for (int epoch = progress.next_epoch; epoch < stop_after && !stats.aborted;
       ++epoch) {
    SARN_TRACE_SPAN("train_epoch");
    Timer epoch_timer;
    EpochPhases phases;
    ParallelPoolStats pool_before = GetParallelPoolStats();
    const uint64_t misses_before = tensor::BufferPool::Instance().Stats().misses;
    HaloSums online_halo, target_halo;
    double grad_norm_sum = 0.0;

    schedule.OnEpoch(optimizer, epoch);
    GraphView view1, view2;
    {
      SARN_TRACE_SPAN("augmentation");
      obs::ScopedPhaseTimer phase(&phases.augmentation);
      view1 = augmentation.MakeView(rng);
      view2 = augmentation.MakeView(rng);
    }
    model_->BindField(view1, &online_field_);
    model_->BindField(view2, &target_field_);
    // Reshuffle from the identity so the batch order is a pure function of
    // the RNG state — which is checkpointed — rather than of the cumulative
    // permutation history, which is not. Statistically equivalent (a uniform
    // shuffle of any fixed permutation is uniform) and required for resumed
    // runs to be bitwise identical to uninterrupted ones.
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);

    double epoch_loss = 0.0;
    int batches = 0;
    for (int64_t begin = 0; begin < n; begin += config.batch_size) {
      // One storage "step": every tensor buffer and tape closure acquired in
      // this batch returns to the pool when Backward() consumes the tape, so
      // after the first batch warms the size classes, steady-state batches
      // run with zero pool-miss allocations (tracked by sarn.alloc.*).
      tensor::StepScope alloc_scope;
      int64_t end = std::min<int64_t>(n, begin + config.batch_size);
      std::vector<int64_t> batch(order.begin() + begin, order.begin() + end);

      // Both branches run only on the rows the loss can reach: the batch's
      // receptive field in each view (DESIGN.md §17). A sampler whose loss
      // reads every vertex's target projection gets the all-rows field on
      // the target branch instead.

      // Target branch first (fills z' and, later, the sampler state).
      Tensor z_prime_batch;
      Tensor z_prime_all_kept;
      {
        SARN_TRACE_SPAN("target_forward");
        obs::ScopedPhaseTimer phase(&phases.target_forward);
        tensor::NoGradGuard guard;
        if (keep_all_projections) {
          target_field_.SelectAll();
        } else {
          target_field_.Restrict(batch);
        }
        Tensor z_prime = model_->TargetProject(target_field_);
        z_prime_batch = tensor::Rows(z_prime, target_field_.BatchRows(batch));
        if (keep_all_projections) z_prime_all_kept = z_prime;
      }
      target_halo.Add(target_field_);

      // Online branch.
      Tensor z_batch;
      {
        SARN_TRACE_SPAN("online_forward");
        obs::ScopedPhaseTimer phase(&phases.online_forward);
        online_field_.Restrict(batch);
        Tensor h = model_->OnlineEncode(online_field_);
        Tensor z = tensor::RowL2Normalize(model_->online_head_->Forward(h));
        z_batch = tensor::Rows(z, online_field_.BatchRows(batch));
      }
      online_halo.Add(online_field_);

      Tensor loss;
      {
        SARN_TRACE_SPAN("loss");
        obs::ScopedPhaseTimer phase(&phases.loss);
        loss = sampler.ComputeLoss(z_batch, z_prime_batch, z_prime_all_kept, batch,
                                   rng);
      }
      float loss_value = loss.item();
      if (!std::isfinite(loss_value)) {
        stats.aborted = true;
        stats.abort_reason = "non-finite loss " + std::to_string(loss_value) +
                             " at epoch " + std::to_string(epoch) + ", batch " +
                             std::to_string(batches);
        break;
      }
      epoch_loss += loss_value;
      ++batches;

      double grad_norm_sq = 0.0;
      {
        SARN_TRACE_SPAN("backward");
        obs::ScopedPhaseTimer phase(&phases.backward);
        optimizer.ZeroGrad();
        loss.Backward();
        grad_norm_sq = GradNormSquared(parameters);
      }
      if (!std::isfinite(grad_norm_sq)) {
        // Abort before Step(): parameters keep their last finite values.
        stats.aborted = true;
        stats.abort_reason = "non-finite gradient norm at epoch " +
                             std::to_string(epoch) + ", batch " +
                             std::to_string(batches - 1);
        break;
      }
      grad_norm_sum += std::sqrt(grad_norm_sq);
      {
        SARN_TRACE_SPAN("optimizer_step");
        obs::ScopedPhaseTimer phase(&phases.optimizer_step);
        optimizer.Step();
        nn::MomentumUpdate(target_params, online_params_no_features, config.momentum);
      }

      // Sampler update with the fresh momentum projections (Algorithm 1 L15).
      {
        SARN_TRACE_SPAN("queue_push");
        obs::ScopedPhaseTimer phase(&phases.queue_push);
        if (sampler_wants_pushes) {
          for (size_t i = 0; i < batch.size(); ++i) {
            std::vector<float> embedding(
                z_prime_batch.data().begin() +
                    static_cast<int64_t>(i) * config.projection_dim,
                z_prime_batch.data().begin() +
                    static_cast<int64_t>(i + 1) * config.projection_dim);
            NormalizeVector(embedding);
            sampler.Push(batch[i], std::move(embedding));
          }
        }
      }
    }
    if (stats.aborted) {
      // Leave the last durable checkpoint as the restart point rather than
      // persisting an epoch that produced non-finite numbers.
      SARN_LOG(Error) << "training aborted: " << stats.abort_reason;
      break;
    }

    epoch_loss /= std::max(1, batches);
    progress.epoch_losses.push_back(epoch_loss);
    progress.next_epoch = epoch + 1;
    stats.epoch_losses.push_back(epoch_loss);
    stats.epochs_run = epoch + 1;
    stats.final_loss = epoch_loss;

    bool stopping = epoch + 1 == stop_after;
    if (epoch_loss < progress.best_loss - 1e-4) {
      progress.best_loss = epoch_loss;
      progress.epochs_since_best = 0;
    } else if (++progress.epochs_since_best >= config.patience) {
      SARN_LOG(Debug) << "early stop at epoch " << epoch;
      stopping = true;
    }

    int64_t checkpoint_bytes = 0;
    if (checkpointing &&
        (stopping || (epoch + 1) % std::max(1, options.checkpoint_every) == 0)) {
      SARN_TRACE_SPAN("checkpoint_write");
      obs::ScopedPhaseTimer phase(&phases.checkpoint_write);
      std::string path = options.checkpoint_dir + "/" +
                         nn::CheckpointFileName(progress.next_epoch);
      Timer write_timer;
      snapshot::SnapshotStatus status = snapshot::WriteSnapshotFile(
          path, BuildCheckpoint(optimizer, schedule, rng, progress));
      obs::CheckpointEvent event;
      event.path = path;
      event.epoch = progress.next_epoch;
      event.seconds = write_timer.ElapsedSeconds();
      if (status.ok()) {
        ++stats.checkpoints_written;
        checkpoint_bytes = FileSizeOrZero(path);
        event.action = obs::CheckpointEvent::Action::kWritten;
        event.bytes = checkpoint_bytes;
        obs::RecordCheckpointEvent(options.metrics_sink, event);
        nn::PruneCheckpoints(options.checkpoint_dir, options.keep_last);
      } else {
        event.action = obs::CheckpointEvent::Action::kWriteFailed;
        event.detail = std::string(snapshot::SnapshotErrorName(status.error)) + ": " +
                       status.message;
        obs::RecordCheckpointEvent(options.metrics_sink, event);
      }
    }

    double epoch_seconds = epoch_timer.ElapsedSeconds();
    double grad_norm_mean = grad_norm_sum / std::max(1, batches);
    NegativeSamplerStats sampler_stats = sampler.Stats();
    epochs_counter.Increment();
    batches_counter.Increment(static_cast<uint64_t>(batches));
    loss_gauge.Set(epoch_loss);
    lr_gauge.Set(optimizer.learning_rate());
    grad_norm_gauge.Set(grad_norm_mean);
    queue_stored_gauge.Set(static_cast<double>(sampler_stats.stored));
    epoch_seconds_hist.Observe(epoch_seconds);
    if (options.metrics_sink != nullptr) {
      ParallelPoolStats pool_after = GetParallelPoolStats();
      obs::EpochRecord record;
      record.run = options.run_name;
      record.epoch = epoch;
      record.loss = epoch_loss;
      record.grad_norm = grad_norm_mean;
      record.learning_rate = optimizer.learning_rate();
      record.batches = batches;
      record.epoch_seconds = epoch_seconds;
      record.resumed = stats.resumed_from_epoch > 0;
      record.phase_seconds = phases.AsList();
      record.queue_stored = sampler_stats.stored;
      record.queue_nonempty_cells = sampler_stats.nonempty_cells;
      record.queue_pushes = sampler_stats.pushes;
      record.queue_evictions = sampler_stats.evictions;
      record.checkpoint_bytes = checkpoint_bytes;
      record.checkpoint_seconds = phases.checkpoint_write;
      record.pool_regions = pool_after.regions - pool_before.regions;
      record.pool_chunks = pool_after.chunks - pool_before.chunks;
      record.pool_items = pool_after.items - pool_before.items;
      record.pool_idle_seconds =
          pool_after.worker_idle_seconds - pool_before.worker_idle_seconds;
      record.pool_misses =
          tensor::BufferPool::Instance().Stats().misses - misses_before;
      record.halo_vertices = n;
      record.halo = {online_halo.Mean("online", batches),
                     target_halo.Mean("target", batches)};
      options.metrics_sink->OnEpoch(record);
    }
    if (stopping) break;
  }
  if (options.metrics_sink != nullptr) options.metrics_sink->Flush();
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

std::string ContrastiveTrainer::BuildCheckpoint(
    const tensor::Adam& optimizer, const tensor::CosineAnnealingSchedule& schedule,
    const Rng& rng, const Progress& progress) const {
  // Each section moves straight from its ByteWriter into the arena writer,
  // so a write peaks at two copies of the payload (sections + file image).
  snapshot::SnapshotWriter writer;
  model_->AddModelSections(writer);
  auto add = [&writer](const char* name, ByteWriter& section) {
    writer.Add(name, snapshot::SectionType::kBytes, section.Take());
  };

  ByteWriter target;
  nn::WriteTensors(target, model_->TargetParameters());
  add(kSectionTarget, target);

  ByteWriter optimizer_state;
  optimizer.SaveState(optimizer_state);
  add(kSectionOptimizer, optimizer_state);

  ByteWriter schedule_state;
  schedule.SaveState(schedule_state);
  add(kSectionSchedule, schedule_state);

  ByteWriter rng_state;
  rng.SaveState(rng_state);
  add(kSectionRng, rng_state);

  ByteWriter sampler_state;
  model_->sampler_->SaveState(sampler_state);
  add(kSectionQueues, sampler_state);

  ByteWriter trainer;
  trainer.PutU64(model_->config_.seed);
  trainer.PutI64(progress.next_epoch);
  trainer.PutF64(progress.best_loss);
  trainer.PutI64(progress.epochs_since_best);
  trainer.PutU64(progress.epoch_losses.size());
  for (double loss : progress.epoch_losses) trainer.PutF64(loss);
  add(kSectionTrainer, trainer);
  return writer.Finish();
}

bool ContrastiveTrainer::ApplyCheckpoint(const snapshot::MappedSnapshot& arena,
                                         tensor::Adam& optimizer,
                                         tensor::CosineAnnealingSchedule& schedule,
                                         Rng& rng, Progress& progress,
                                         std::string* detail) {
  const SarnConfig& config = model_->config_;
  auto fail = [detail](std::string message) {
    SARN_LOG(Warning) << message;
    if (detail != nullptr) *detail = std::move(message);
    return false;
  };

  // Phase 1: parse and validate every section into staging; the model is
  // not touched until all of them check out. The model sections go first:
  // a checkpoint from a differently-composed model is rejected by its
  // variant tag, never via a downstream shape mismatch.
  std::vector<std::vector<float>> online_staged;
  ModelLoadStatus model_status = model_->StageModelSections(arena, &online_staged);
  if (!model_status.ok()) return fail(model_status.message);
  for (const char* name : {kSectionTarget, kSectionOptimizer, kSectionSchedule,
                           kSectionRng, kSectionQueues, kSectionTrainer}) {
    if (arena.Find(name) == nullptr) {
      return fail(arena.path() + ": no '" + name + "' section");
    }
  }
  auto section = [&arena](const char* name) {
    return ByteReader(arena.BytesOf(*arena.Find(name)));
  };

  std::vector<Tensor> online_params = model_->OnlineParameters();
  std::vector<Tensor> target_params = model_->TargetParameters();
  std::vector<std::vector<float>> target_staged;
  ByteReader target_in = section(kSectionTarget);
  snapshot::SnapshotStatus status =
      nn::ParseTensors(target_in, target_params, &target_staged);
  if (!status.ok()) {
    return fail("target parameters: " + status.message);
  }

  tensor::Adam staged_optimizer = optimizer;
  ByteReader optimizer_in = section(kSectionOptimizer);
  if (!staged_optimizer.LoadState(optimizer_in)) {
    return fail("optimizer state does not match this model");
  }

  tensor::CosineAnnealingSchedule staged_schedule = schedule;
  ByteReader schedule_in = section(kSectionSchedule);
  if (!staged_schedule.LoadState(schedule_in)) {
    return fail("schedule state does not match this model");
  }

  Rng staged_rng = rng;
  ByteReader rng_in = section(kSectionRng);
  if (!staged_rng.LoadState(rng_in)) {
    return fail("rng state is corrupt");
  }

  std::unique_ptr<NegativeSampler> staged_sampler = model_->sampler_->Clone();
  ByteReader sampler_in = section(kSectionQueues);
  if (!staged_sampler->LoadState(sampler_in)) {
    return fail("negative-sampler state does not match this model");
  }

  Progress staged_progress;
  ByteReader trainer_in = section(kSectionTrainer);
  uint64_t seed = 0;
  int64_t next_epoch = 0;
  int64_t epochs_since_best = 0;
  uint64_t loss_count = 0;
  if (!trainer_in.GetU64(&seed) || !trainer_in.GetI64(&next_epoch) ||
      !trainer_in.GetF64(&staged_progress.best_loss) ||
      !trainer_in.GetI64(&epochs_since_best) || !trainer_in.GetU64(&loss_count)) {
    return fail("trainer progress section is corrupt");
  }
  if (seed != config.seed) {
    return fail("checkpoint was trained with seed " + std::to_string(seed) +
                ", this model uses " + std::to_string(config.seed));
  }
  if (next_epoch < 0 || next_epoch > config.max_epochs ||
      loss_count != static_cast<uint64_t>(next_epoch)) {
    return fail("trainer progress is out of range");
  }
  staged_progress.next_epoch = static_cast<int>(next_epoch);
  staged_progress.epochs_since_best = static_cast<int>(epochs_since_best);
  staged_progress.epoch_losses.resize(static_cast<size_t>(loss_count));
  for (double& loss : staged_progress.epoch_losses) {
    if (!trainer_in.GetF64(&loss)) {
      return fail("trainer progress section is corrupt");
    }
  }

  // Phase 2: commit everything.
  for (size_t i = 0; i < online_params.size(); ++i) {
    online_params[i].mutable_data() = std::move(online_staged[i]);
  }
  for (size_t i = 0; i < target_params.size(); ++i) {
    target_params[i].mutable_data() = std::move(target_staged[i]);
  }
  optimizer = staged_optimizer;
  schedule = staged_schedule;
  rng = staged_rng;
  model_->sampler_ = std::move(staged_sampler);
  progress = std::move(staged_progress);
  return true;
}

}  // namespace sarn::core
