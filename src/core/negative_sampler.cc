#include "core/negative_sampler.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "nn/losses.h"
#include "tensor/ops.h"

namespace sarn::core {
namespace {

using tensor::Tensor;

// Mask value for padded negative slots; after division by tau (>= 0.01)
// exp() underflows to exactly 0.
constexpr float kMaskedSimilarity = -1e4f;

// --- "spatial": the paper's two-level loss over grid queues ------------------

class SpatialNegativeSampler final : public NegativeSampler {
 public:
  SpatialNegativeSampler(const roadnet::RoadNetwork& network, const SarnConfig& config)
      : config_(&config),
        queues_(std::make_unique<NegativeQueueStore>(network, config.cell_side_meters,
                                                     config.queue_budget)) {}

  const char* name() const override { return "spatial"; }

  Tensor ComputeLoss(const Tensor& z, const Tensor& z_prime, const Tensor&,
                     const std::vector<int64_t>& batch, Rng&) const override {
    int64_t m = z.shape()[0];
    int64_t dz = z.shape()[1];
    Tensor positive_sim = tensor::DotRows(z, z_prime);  // Lambda(z_i, z'_i), [m].

    // --- Local contrastive loss (Eq. 15) -----------------------------------
    std::vector<std::vector<const QueueEntry*>> local(static_cast<size_t>(m));
    int64_t phi_max = 0;
    for (int64_t i = 0; i < m; ++i) {
      local[static_cast<size_t>(i)] =
          queues_->LocalNegatives(batch[static_cast<size_t>(i)]);
      phi_max = std::max(phi_max,
                         static_cast<int64_t>(local[static_cast<size_t>(i)].size()));
    }
    Tensor local_loss;
    if (phi_max == 0) {
      local_loss = Tensor::Zeros({1});  // Queues still empty (first iterations).
    } else {
      Tensor negatives = Tensor::Zeros({m * phi_max, dz});
      Tensor mask = Tensor::Full({m, phi_max}, kMaskedSimilarity);
      tensor::Storage& neg_data = negatives.mutable_data();
      tensor::Storage& mask_data = mask.mutable_data();
      for (int64_t i = 0; i < m; ++i) {
        const auto& entries = local[static_cast<size_t>(i)];
        for (size_t s = 0; s < entries.size(); ++s) {
          std::copy(entries[s]->embedding.begin(), entries[s]->embedding.end(),
                    neg_data.begin() + (static_cast<size_t>(i) * phi_max + s) * dz);
          mask_data[static_cast<size_t>(i) * phi_max + s] = 0.0f;
        }
      }
      std::vector<int64_t> repeat_index(static_cast<size_t>(m * phi_max));
      for (int64_t i = 0; i < m; ++i) {
        std::fill_n(repeat_index.begin() + i * phi_max, phi_max, i);
      }
      Tensor sims = tensor::Reshape(
          tensor::DotRows(tensor::Rows(z, repeat_index), negatives), {m, phi_max});
      sims = tensor::Add(sims, mask);
      local_loss =
          nn::InfoNceLoss(positive_sim, sims, static_cast<float>(config_->tau));
    }

    // --- Global contrastive loss (Eq. 16) ------------------------------------
    // One InfoNCE over cell aggregates: for anchor i, the positive is its own
    // cell's readout and the negatives are every other non-empty cell's
    // readout — i.e., cross entropy over cells with label = own cell.
    std::vector<int> cells = queues_->NonEmptyCells();
    Tensor global_loss = Tensor::Zeros({1});
    if (cells.size() >= 2) {
      std::vector<int> cell_rank(static_cast<size_t>(queues_->num_cells()), -1);
      for (size_t c = 0; c < cells.size(); ++c)
        cell_rank[static_cast<size_t>(cells[c])] = static_cast<int>(c);
      int64_t c_count = static_cast<int64_t>(cells.size());
      // Every row is fully overwritten by its cell's aggregate, so the pooled
      // buffer can stay uninitialized.
      Tensor aggregates = Tensor::Uninitialized({c_count, dz});
      tensor::Storage& agg_data = aggregates.mutable_data();
      for (int64_t c = 0; c < c_count; ++c) {
        std::vector<float> aggregate =
            queues_->CellAggregate(cells[static_cast<size_t>(c)]);
        std::copy(aggregate.begin(), aggregate.end(), agg_data.begin() + c * dz);
      }
      // Anchors whose own cell queue is non-empty participate.
      std::vector<int64_t> rows;
      std::vector<int64_t> labels;
      for (int64_t i = 0; i < m; ++i) {
        int rank = cell_rank[static_cast<size_t>(
            queues_->CellOf(batch[static_cast<size_t>(i)]))];
        if (rank >= 0) {
          rows.push_back(i);
          labels.push_back(rank);
        }
      }
      if (!rows.empty()) {
        Tensor sims =
            tensor::MatMul(tensor::Rows(z, rows), tensor::Transpose(aggregates));
        Tensor logits =
            tensor::MulScalar(sims, 1.0f / static_cast<float>(config_->tau));
        global_loss = nn::CrossEntropyWithLogits(logits, labels);
      }
    }

    float lambda = static_cast<float>(config_->lambda);
    return tensor::Add(tensor::MulScalar(local_loss, lambda),
                       tensor::MulScalar(global_loss, 1.0f - lambda));
  }

  bool WantsPushes() const override { return true; }

  void Push(int64_t segment, std::vector<float> embedding) override {
    queues_->Push(segment, std::move(embedding));
  }

  void SaveState(ByteWriter& out) const override { queues_->SaveState(out); }
  bool LoadState(ByteReader& in) override { return queues_->LoadState(in); }

  std::unique_ptr<NegativeSampler> Clone() const override {
    auto clone = std::make_unique<SpatialNegativeSampler>(*this);
    return clone;
  }

  NegativeSamplerStats Stats() const override {
    NegativeSamplerStats stats;
    stats.stored = queues_->TotalStored();
    stats.nonempty_cells = static_cast<int64_t>(queues_->NonEmptyCells().size());
    stats.pushes = queues_->push_count();
    stats.evictions = queues_->eviction_count();
    return stats;
  }

  NegativeQueueStore* queue_store() override { return queues_.get(); }

  SpatialNegativeSampler(const SpatialNegativeSampler& other)
      : config_(other.config_),
        queues_(std::make_unique<NegativeQueueStore>(*other.queues_)) {}

 private:
  const SarnConfig* config_;
  std::unique_ptr<NegativeQueueStore> queues_;
};

// --- "random": plain InfoNCE with uniform queue-pool draws (SARN-w/o-NL) -----

class RandomNegativeSampler final : public NegativeSampler {
 public:
  RandomNegativeSampler(const roadnet::RoadNetwork& network, const SarnConfig& config)
      : config_(&config),
        queues_(std::make_unique<NegativeQueueStore>(network, config.cell_side_meters,
                                                     config.queue_budget)) {}

  const char* name() const override { return "random"; }

  Tensor ComputeLoss(const Tensor& z, const Tensor& z_prime, const Tensor&,
                     const std::vector<int64_t>& batch, Rng& rng) const override {
    int64_t m = z.shape()[0];
    int64_t dz = z.shape()[1];
    Tensor positive_sim = tensor::DotRows(z, z_prime);
    // Plain InfoNCE (Eq. 2) with random negatives from the global queue pool.
    // Negatives and mask are staged straight into pooled tensor storage —
    // no transient std::vector<float> per batch.
    int k = config_->random_negatives;
    Tensor negatives = Tensor::Zeros({m * k, dz});
    Tensor mask = Tensor::Full({m, k}, kMaskedSimilarity);
    tensor::Storage& neg_data = negatives.mutable_data();
    tensor::Storage& mask_data = mask.mutable_data();
    for (int64_t i = 0; i < m; ++i) {
      auto drawn = queues_->RandomNegatives(batch[static_cast<size_t>(i)], k, rng);
      for (size_t s = 0; s < drawn.size(); ++s) {
        std::copy(drawn[s]->embedding.begin(), drawn[s]->embedding.end(),
                  neg_data.begin() + (static_cast<size_t>(i) * k + s) * dz);
        mask_data[static_cast<size_t>(i) * k + s] = 0.0f;
      }
    }
    std::vector<int64_t> repeat_index(static_cast<size_t>(m * k));
    for (int64_t i = 0; i < m; ++i) {
      std::fill_n(repeat_index.begin() + i * k, k, i);
    }
    Tensor sims = tensor::Reshape(
        tensor::DotRows(tensor::Rows(z, repeat_index), negatives), {m, k});
    sims = tensor::Add(sims, mask);
    return nn::InfoNceLoss(positive_sim, sims, static_cast<float>(config_->tau));
  }

  bool WantsPushes() const override { return true; }

  void Push(int64_t segment, std::vector<float> embedding) override {
    queues_->Push(segment, std::move(embedding));
  }

  // Loss shape depends only on m and random_negatives (both in the base
  // key); masked padding keeps the structure fixed while queues fill up.

  void SaveState(ByteWriter& out) const override { queues_->SaveState(out); }
  bool LoadState(ByteReader& in) override { return queues_->LoadState(in); }

  std::unique_ptr<NegativeSampler> Clone() const override {
    return std::make_unique<RandomNegativeSampler>(*this);
  }

  NegativeSamplerStats Stats() const override {
    NegativeSamplerStats stats;
    stats.stored = queues_->TotalStored();
    stats.nonempty_cells = static_cast<int64_t>(queues_->NonEmptyCells().size());
    stats.pushes = queues_->push_count();
    stats.evictions = queues_->eviction_count();
    return stats;
  }

  NegativeQueueStore* queue_store() override { return queues_.get(); }

  RandomNegativeSampler(const RandomNegativeSampler& other)
      : config_(other.config_),
        queues_(std::make_unique<NegativeQueueStore>(*other.queues_)) {}

 private:
  const SarnConfig* config_;
  std::unique_ptr<NegativeQueueStore> queues_;
};

// --- "in-batch": symmetric NT-Xent (GraphCL) ---------------------------------

class InBatchNegativeSampler final : public NegativeSampler {
 public:
  explicit InBatchNegativeSampler(const SarnConfig& config) : config_(&config) {}

  const char* name() const override { return "in-batch"; }

  Tensor ComputeLoss(const Tensor& z, const Tensor& z_prime, const Tensor&,
                     const std::vector<int64_t>&, Rng&) const override {
    int64_t m = z.shape()[0];
    float inv_tau = 1.0f / static_cast<float>(config_->tau);
    Tensor logits12 =
        tensor::MulScalar(tensor::MatMul(z, tensor::Transpose(z_prime)), inv_tau);
    Tensor logits21 =
        tensor::MulScalar(tensor::MatMul(z_prime, tensor::Transpose(z)), inv_tau);
    std::vector<int64_t> labels(static_cast<size_t>(m));
    std::iota(labels.begin(), labels.end(), 0);
    return tensor::MulScalar(
        tensor::Add(nn::CrossEntropyWithLogits(logits12, labels),
                    nn::CrossEntropyWithLogits(logits21, labels)),
        0.5f);
  }

  std::unique_ptr<NegativeSampler> Clone() const override {
    return std::make_unique<InBatchNegativeSampler>(*this);
  }

 private:
  const SarnConfig* config_;
};

// --- "all-vertex": every vertex of the target view is a negative (GCA) -------

class AllVertexNegativeSampler final : public NegativeSampler {
 public:
  explicit AllVertexNegativeSampler(const SarnConfig& config) : config_(&config) {}

  const char* name() const override { return "all-vertex"; }

  Tensor ComputeLoss(const Tensor& z, const Tensor&, const Tensor& z_prime_all,
                     const std::vector<int64_t>& batch, Rng&) const override {
    // Negatives: ALL vertices of the target view (label = own row).
    Tensor logits =
        tensor::MulScalar(tensor::MatMul(z, tensor::Transpose(z_prime_all)),
                          1.0f / static_cast<float>(config_->tau));
    return nn::CrossEntropyWithLogits(logits, batch);
  }

  bool NeedsAllProjections() const override { return true; }

  std::unique_ptr<NegativeSampler> Clone() const override {
    return std::make_unique<AllVertexNegativeSampler>(*this);
  }

 private:
  const SarnConfig* config_;
};

}  // namespace

std::unique_ptr<NegativeSampler> MakeSpatialNegativeSampler(
    const roadnet::RoadNetwork& network, const SarnConfig& config) {
  return std::make_unique<SpatialNegativeSampler>(network, config);
}

std::unique_ptr<NegativeSampler> MakeRandomNegativeSampler(
    const roadnet::RoadNetwork& network, const SarnConfig& config) {
  return std::make_unique<RandomNegativeSampler>(network, config);
}

std::unique_ptr<NegativeSampler> MakeInBatchNegativeSampler(const SarnConfig& config) {
  return std::make_unique<InBatchNegativeSampler>(config);
}

std::unique_ptr<NegativeSampler> MakeAllVertexNegativeSampler(const SarnConfig& config) {
  return std::make_unique<AllVertexNegativeSampler>(config);
}

}  // namespace sarn::core
