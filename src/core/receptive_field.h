// Receptive-field training steps (DESIGN.md §17).
//
// A minibatch's contrastive loss reads the encoder output of the batch rows
// only. Through L encoder layers those rows depend on nothing but their
// L-hop in-neighbourhood, and every row outside it gets an exact zero
// gradient. ReceptiveField computes, per graph view and batch, the row sets
//
//   R_L = the batch, R_l = R_{l+1} ∪ in-neighbours(R_{l+1})   (l = L-1 .. 0),
//
// each sorted ascending, plus one nn::LayerGraph per layer: the edges whose
// destination is in R_{l+1}, in the view's edge order with the self-loops
// last, renumbered into R_l / R_{l+1} rows. The view's edge order puts the
// topological edges first, so each relation an RFN layer reads is a
// contiguous range of that one restricted set. The feature embedding then runs
// on R_0, layer l maps R_l to R_{l+1}, and the projection head runs on the
// batch rows alone. Because every row set is ascending and every edge list
// keeps the view's order, each float sum sees the same non-zero terms in the
// same order as the full-graph step, so the results are bitwise identical.
//
// The all-rows case (inference, and the target branch of a sampler that
// reads every projection) maps each layer onto the whole view without
// copying it.

#ifndef SARN_CORE_RECEPTIVE_FIELD_H_
#define SARN_CORE_RECEPTIVE_FIELD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/augmentation.h"
#include "nn/gat.h"

namespace sarn::core {

class ReceptiveField {
 public:
  /// Binds a view over `num_vertices` rows for an encoder of `num_layers`
  /// layers. `ids` holds the per-feature input ids of every row (the view's
  /// masked ids, or the network's). Both must outlive the binding and stay
  /// unchanged while it is used. The in-CSR is built on the first Restrict
  /// after a Bind; buffers keep their capacity across Binds.
  void Bind(const GraphView& view, const std::vector<std::vector<int64_t>>& ids,
            int64_t num_vertices, int num_layers);

  /// Every layer maps all rows to themselves.
  void SelectAll();

  /// Keeps only the rows `batch` can reach. Batch ids must be distinct.
  void Restrict(const std::vector<int64_t>& batch);

  bool all_rows() const { return all_rows_; }
  std::span<const nn::LayerGraph> layers() const { return layers_; }
  /// Per-feature ids of the encoder's input rows R_0.
  const std::vector<std::vector<int64_t>>& input_ids() const {
    return all_rows_ ? *ids_ : input_ids_;
  }
  /// The encoder output row of each batch vertex, in batch order: `batch`
  /// itself in the all-rows case, its positions in R_L otherwise.
  const std::vector<int64_t>& BatchRows(const std::vector<int64_t>& batch) const {
    return all_rows_ ? batch : batch_rows_;
  }
  /// |R_depth| for depth in [0, num_layers].
  int64_t rows(int depth) const;
  /// Edges of the self-loop-augmented list that layer `layer` aggregates.
  int64_t edges(int layer) const;
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  // One layer's restricted edges.
  struct Edges {
    std::vector<int64_t> src;
    std::vector<int64_t> dst_in;
    std::vector<int64_t> dst_out;
  };

  void BuildCsr();

  const std::vector<std::vector<int64_t>>* ids_ = nullptr;
  // The view's edges with the self-loops appended: [0, topo_end_) is the
  // topological relation, [topo_end_, spatial_end_) the spatial one.
  const nn::EdgeList* list_ = nullptr;
  size_t topo_end_ = 0;
  size_t spatial_end_ = 0;
  int64_t n_ = 0;
  bool csr_built_ = false;
  bool all_rows_ = true;

  // In-edges of every vertex: csr_ids_[csr_offsets_[v], csr_offsets_[v+1])
  // ascending.
  std::vector<int64_t> csr_offsets_;
  std::vector<int64_t> csr_ids_;
  std::vector<int64_t> cursor_;
  // rows_[d] = R_d ascending; pos_[d][v] = index of v in R_d, or -1.
  std::vector<std::vector<int64_t>> rows_;
  std::vector<std::vector<int64_t>> pos_;
  std::vector<std::vector<int64_t>> out_rows_;
  std::vector<Edges> edges_;
  std::vector<int64_t> edge_ids_;
  std::vector<nn::LayerGraph> layers_;
  std::vector<std::vector<int64_t>> input_ids_;
  std::vector<int64_t> batch_rows_;
};

}  // namespace sarn::core

#endif  // SARN_CORE_RECEPTIVE_FIELD_H_
