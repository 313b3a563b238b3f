// Tensor sections and checkpoint directories.
//
// Weights files and training checkpoints are section sets of the one binary
// container (snapshot/arena.h; DESIGN.md §8 and §13). This file holds the two
// parts of them that are not container code:
//
// 1. Tensor-list sections (WriteTensors / ParseTensors / ReadTensorsInto): a
//    module's parameter list serialised into one kBytes section. The layout
//    is positional — u64 count, then per tensor i64 rank, i64 dims..., u64
//    value count and float32 values (host order) — so a section restores
//    only into the same architecture, which is checked by shape before any
//    value is written.
// 2. Checkpoint directories: the naming, newest-first discovery and
//    keep-last-K rotation of the rolling "ckpt_<epoch>.sarnckpt" files the
//    trainer writes.

#ifndef SARN_NN_SERIALIZATION_H_
#define SARN_NN_SERIALIZATION_H_

#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "snapshot/format.h"
#include "tensor/tensor.h"

namespace sarn::nn {

/// Serialises a tensor list (shapes + values) into `out`; the counterpart of
/// ReadTensorsInto.
void WriteTensors(ByteWriter& out, const std::vector<tensor::Tensor>& tensors);

/// Two-phase restore of a tensor list written by WriteTensors: every tensor
/// is parsed and shape-checked against `tensors` before ANY value is
/// written, so a mismatch never leaves the targets half-loaded. Errors are
/// kShapeMismatch (count, rank or dims differ) or kMalformed (truncated).
snapshot::SnapshotStatus ReadTensorsInto(ByteReader& in,
                                         const std::vector<tensor::Tensor>& tensors);

/// Parse-only half of ReadTensorsInto: validates count and shapes against
/// `like` and fills `staged` with one value buffer per tensor, without
/// touching `like`. Lets a caller stage several tensor groups and commit
/// them together (whole-model atomic resume).
snapshot::SnapshotStatus ParseTensors(ByteReader& in,
                                      const std::vector<tensor::Tensor>& like,
                                      std::vector<std::vector<float>>* staged);

// --- Checkpoint directories --------------------------------------------------

/// "ckpt_000042.sarnckpt" for epoch 42 (zero-padded so names sort).
std::string CheckpointFileName(int epoch);

/// All checkpoint files in `dir` as (epoch, full path), newest epoch first.
/// kIoError when `dir` is missing or is not a readable directory; `*found`
/// is only set on success.
snapshot::SnapshotStatus ListCheckpoints(
    const std::string& dir, std::vector<std::pair<int, std::string>>* found);

/// Deletes all but the `keep_last` newest checkpoint files in `dir`.
void PruneCheckpoints(const std::string& dir, int keep_last);

}  // namespace sarn::nn

#endif  // SARN_NN_SERIALIZATION_H_
