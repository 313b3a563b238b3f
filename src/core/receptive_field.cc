#include "core/receptive_field.h"

#include <algorithm>

#include "common/check.h"

namespace sarn::core {

void ReceptiveField::Bind(const GraphView& view,
                          const std::vector<std::vector<int64_t>>& ids,
                          int64_t num_vertices, int num_layers) {
  SARN_CHECK_GE(num_layers, 1);
  for (const std::vector<int64_t>& column : ids) {
    SARN_CHECK_EQ(static_cast<int64_t>(column.size()), num_vertices);
  }
  ids_ = &ids;
  SARN_CHECK(view.surviving_topo >= 0 &&
             static_cast<size_t>(view.surviving_topo) <= view.edges.size());
  list_ = &view.edges.WithSelfLoops(num_vertices);
  topo_end_ = static_cast<size_t>(view.surviving_topo);
  spatial_end_ = view.edges.size();
  n_ = num_vertices;
  csr_built_ = false;
  layers_.resize(static_cast<size_t>(num_layers));
  SelectAll();
}

void ReceptiveField::SelectAll() {
  all_rows_ = true;
  for (nn::LayerGraph& layer : layers_) {
    layer = nn::LayerGraph::AllRows(n_, *list_, topo_end_, spatial_end_);
  }
}

void ReceptiveField::BuildCsr() {
  const nn::EdgeList& list = *list_;
  csr_offsets_.assign(static_cast<size_t>(n_) + 1, 0);
  for (int64_t v : list.dst) ++csr_offsets_[static_cast<size_t>(v) + 1];
  for (int64_t v = 0; v < n_; ++v) {
    csr_offsets_[static_cast<size_t>(v) + 1] += csr_offsets_[static_cast<size_t>(v)];
  }
  // Counting sort by destination; ascending e keeps each vertex's in-edges
  // in the list's order.
  cursor_.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
  csr_ids_.resize(list.size());
  for (size_t e = 0; e < list.size(); ++e) {
    csr_ids_[static_cast<size_t>(cursor_[static_cast<size_t>(list.dst[e])]++)] =
        static_cast<int64_t>(e);
  }
  csr_built_ = true;
}

void ReceptiveField::Restrict(const std::vector<int64_t>& batch) {
  SARN_CHECK(ids_ != nullptr) << "ReceptiveField::Restrict before Bind";
  if (!csr_built_) BuildCsr();
  all_rows_ = false;
  const size_t depths = layers_.size() + 1;
  if (pos_.size() != depths || static_cast<int64_t>(pos_[0].size()) != n_) {
    rows_.assign(depths, {});
    pos_.assign(depths, std::vector<int64_t>(static_cast<size_t>(n_), -1));
    out_rows_.resize(depths - 1);
    edges_.resize(depths - 1);
  } else {
    // Clear the previous restriction's marks (pos_ is -1 everywhere else).
    for (size_t d = 0; d < depths; ++d) {
      for (int64_t v : rows_[d]) pos_[d][static_cast<size_t>(v)] = -1;
    }
  }

  const size_t depth_l = rows_.size() - 1;
  std::vector<int64_t>& last = rows_[depth_l];
  last.assign(batch.begin(), batch.end());
  std::sort(last.begin(), last.end());
  for (size_t i = 0; i < last.size(); ++i) {
    int64_t& pos = pos_[depth_l][static_cast<size_t>(last[i])];
    SARN_CHECK_EQ(pos, -1) << "batch repeats vertex " << last[i];
    pos = static_cast<int64_t>(i);
  }
  batch_rows_.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    batch_rows_[i] = pos_[depth_l][static_cast<size_t>(batch[i])];
  }

  for (size_t l = depth_l; l-- > 0;) {
    const std::vector<int64_t>& out = rows_[l + 1];
    std::vector<int64_t>& in = rows_[l];
    std::vector<int64_t>& in_pos = pos_[l];
    const std::vector<int64_t>& out_pos = pos_[l + 1];
    // R_l = R_{l+1} plus every source of an in-edge of R_{l+1}; 0 marks
    // membership until the sorted positions are assigned.
    in.assign(out.begin(), out.end());
    for (int64_t v : out) in_pos[static_cast<size_t>(v)] = 0;
    const std::vector<int64_t>& src = list_->src;
    for (int64_t v : out) {
      for (int64_t k = csr_offsets_[static_cast<size_t>(v)];
           k < csr_offsets_[static_cast<size_t>(v) + 1]; ++k) {
        int64_t u = src[static_cast<size_t>(csr_ids_[static_cast<size_t>(k)])];
        if (in_pos[static_cast<size_t>(u)] < 0) {
          in_pos[static_cast<size_t>(u)] = 0;
          in.push_back(u);
        }
      }
    }
    std::sort(in.begin(), in.end());
    for (size_t i = 0; i < in.size(); ++i) {
      in_pos[static_cast<size_t>(in[i])] = static_cast<int64_t>(i);
    }

    std::vector<int64_t>& out_rows = out_rows_[l];
    out_rows.resize(out.size());
    for (size_t j = 0; j < out.size(); ++j) {
      out_rows[j] = in_pos[static_cast<size_t>(out[j])];
    }

    nn::LayerGraph& layer = layers_[l];
    layer.num_in = static_cast<int64_t>(in.size());
    layer.num_out = static_cast<int64_t>(out.size());
    layer.out_rows = &out_rows;
    // Edges into R_{l+1}, back in the list's order: topological, then
    // spatial, then the self-loops.
    edge_ids_.clear();
    for (int64_t v : out) {
      edge_ids_.insert(edge_ids_.end(),
                       csr_ids_.begin() + csr_offsets_[static_cast<size_t>(v)],
                       csr_ids_.begin() + csr_offsets_[static_cast<size_t>(v) + 1]);
    }
    std::sort(edge_ids_.begin(), edge_ids_.end());
    Edges& edges = edges_[l];
    edges.src.resize(edge_ids_.size());
    edges.dst_in.resize(edge_ids_.size());
    edges.dst_out.resize(edge_ids_.size());
    for (size_t k = 0; k < edge_ids_.size(); ++k) {
      const size_t e = static_cast<size_t>(edge_ids_[k]);
      const size_t dst = static_cast<size_t>(list_->dst[e]);
      edges.src[k] = in_pos[static_cast<size_t>(list_->src[e])];
      edges.dst_in[k] = in_pos[dst];
      edges.dst_out[k] = out_pos[dst];
    }
    const auto split = [&](size_t end) {
      return static_cast<size_t>(std::lower_bound(edge_ids_.begin(), edge_ids_.end(),
                                                  static_cast<int64_t>(end)) -
                                 edge_ids_.begin());
    };
    const size_t topo_end = split(topo_end_);
    layer.edges = {edges.src, edges.dst_in, edges.dst_out, list_->size() > 0};
    layer.topo = layer.edges.Range(0, topo_end, topo_end_ > 0);
    layer.spatial =
        layer.edges.Range(topo_end, split(spatial_end_), spatial_end_ > topo_end_);
  }

  const std::vector<int64_t>& first = rows_[0];
  input_ids_.resize(ids_->size());
  for (size_t f = 0; f < ids_->size(); ++f) {
    const std::vector<int64_t>& column = (*ids_)[f];
    std::vector<int64_t>& gathered = input_ids_[f];
    gathered.resize(first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      gathered[i] = column[static_cast<size_t>(first[i])];
    }
  }
}

int64_t ReceptiveField::rows(int depth) const {
  SARN_CHECK(depth >= 0 && depth <= num_layers()) << "depth " << depth;
  return all_rows_ ? n_ : static_cast<int64_t>(rows_[static_cast<size_t>(depth)].size());
}

int64_t ReceptiveField::edges(int layer) const {
  SARN_CHECK(layer >= 0 && layer < num_layers()) << "layer " << layer;
  return static_cast<int64_t>(layers_[static_cast<size_t>(layer)].edges.size());
}

}  // namespace sarn::core
