#include "core/encoder.h"

#include <utility>

#include "nn/gat.h"
#include "nn/rfn.h"

namespace sarn::core {
namespace {

using tensor::Tensor;

class GatPlaneEncoder final : public Encoder {
 public:
  GatPlaneEncoder(const SarnConfig& config, int64_t input_dim, Rng& rng)
      : gat_(input_dim, config.hidden_dim, config.embedding_dim, config.gat_layers,
             config.gat_heads, rng, config.use_attention) {}

  const char* name() const override { return "gat"; }

  Tensor Forward(const Tensor& x, const GraphView& view) const override {
    return gat_.Forward(x, view.edges);
  }

  std::vector<Tensor> Parameters() const override { return gat_.Parameters(); }

  std::vector<Tensor> FinalLayerParameters() const override {
    return gat_.FinalLayerParameters();
  }

  int64_t out_dim() const override { return gat_.out_dim(); }

 private:
  nn::GatEncoder gat_;
};

class RfnPlaneEncoder final : public Encoder {
 public:
  RfnPlaneEncoder(const SarnConfig& config, int64_t input_dim, Rng& rng)
      : rfn_(input_dim, config.hidden_dim, config.embedding_dim, config.gat_layers,
             rng) {}

  const char* name() const override { return "rfn"; }

  Tensor Forward(const Tensor& x, const GraphView& view) const override {
    return rfn_.Forward(x, view.topo_edges, view.spatial_edges);
  }

  std::vector<Tensor> Parameters() const override { return rfn_.Parameters(); }

  std::vector<Tensor> FinalLayerParameters() const override {
    return rfn_.FinalLayerParameters();
  }

  int64_t out_dim() const override { return rfn_.out_dim(); }

 private:
  nn::RfnEncoder rfn_;
};

}  // namespace

std::unique_ptr<Encoder> MakeGatEncoder(const SarnConfig& config, int64_t input_dim,
                                        Rng& rng) {
  return std::make_unique<GatPlaneEncoder>(config, input_dim, rng);
}

std::unique_ptr<Encoder> MakeRfnEncoder(const SarnConfig& config, int64_t input_dim,
                                        Rng& rng) {
  return std::make_unique<RfnPlaneEncoder>(config, input_dim, rng);
}

}  // namespace sarn::core
