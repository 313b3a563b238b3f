#include "nn/serialization.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

namespace sarn::nn {
namespace {

using snapshot::SnapshotError;
using snapshot::SnapshotStatus;

constexpr char kCheckpointSuffix[] = ".sarnckpt";
constexpr char kCheckpointPrefix[] = "ckpt_";

}  // namespace

void WriteTensors(ByteWriter& out, const std::vector<tensor::Tensor>& tensors) {
  out.PutU64(tensors.size());
  for (const tensor::Tensor& t : tensors) {
    out.PutI64(t.rank());
    for (int64_t d : t.shape()) out.PutI64(d);
    out.PutFloats(t.data().data(), t.data().size());
  }
}

SnapshotStatus ReadTensorsInto(ByteReader& in,
                               const std::vector<tensor::Tensor>& tensors) {
  std::vector<std::vector<float>> staged;
  SnapshotStatus status = ParseTensors(in, tensors, &staged);
  if (!status.ok()) return status;
  for (size_t i = 0; i < tensors.size(); ++i) {
    const_cast<tensor::Tensor&>(tensors[i]).mutable_data() = std::move(staged[i]);
  }
  return SnapshotStatus::Ok();
}

SnapshotStatus ParseTensors(ByteReader& in, const std::vector<tensor::Tensor>& like,
                            std::vector<std::vector<float>>* out_staged) {
  uint64_t count = 0;
  if (!in.GetU64(&count)) {
    return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                "tensor section: cannot read count");
  }
  if (count != like.size()) {
    return SnapshotStatus::Fail(
        SnapshotError::kShapeMismatch,
        "tensor section has " + std::to_string(count) + " tensors, expected " +
            std::to_string(like.size()));
  }
  std::vector<std::vector<float>> staged(like.size());
  for (size_t i = 0; i < like.size(); ++i) {
    const tensor::Tensor& t = like[i];
    int64_t rank = 0;
    if (!in.GetI64(&rank)) {
      return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                  "tensor section: truncated at tensor " +
                                      std::to_string(i));
    }
    if (rank != t.rank()) {
      return SnapshotStatus::Fail(
          SnapshotError::kShapeMismatch,
          "tensor " + std::to_string(i) + " has rank " + std::to_string(rank) +
              ", expected " + std::to_string(t.rank()));
    }
    for (int64_t expected : t.shape()) {
      int64_t d = 0;
      if (!in.GetI64(&d)) {
        return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                    "tensor section: truncated at tensor " +
                                        std::to_string(i));
      }
      if (d != expected) {
        return SnapshotStatus::Fail(
            SnapshotError::kShapeMismatch,
            "tensor " + std::to_string(i) + " dim " + std::to_string(d) +
                " != expected " + std::to_string(expected));
      }
    }
    if (!in.GetFloats(&staged[i]) || staged[i].size() != t.data().size()) {
      return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                  "tensor section: bad value payload for tensor " +
                                      std::to_string(i));
    }
  }
  *out_staged = std::move(staged);
  return SnapshotStatus::Ok();
}

// --- Checkpoint directories --------------------------------------------------

std::string CheckpointFileName(int epoch) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d%s", kCheckpointPrefix, epoch,
                kCheckpointSuffix);
  return name;
}

SnapshotStatus ListCheckpoints(const std::string& dir,
                               std::vector<std::pair<int, std::string>>* out) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return SnapshotStatus::Fail(
        SnapshotError::kIoError,
        "cannot list checkpoint directory " + dir + ": " + ec.message());
  }
  std::vector<std::pair<int, std::string>> found;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    size_t prefix_len = sizeof(kCheckpointPrefix) - 1;
    size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kCheckpointPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kCheckpointSuffix) != 0) {
      continue;
    }
    std::string digits = name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoi(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  *out = std::move(found);
  return SnapshotStatus::Ok();
}

void PruneCheckpoints(const std::string& dir, int keep_last) {
  if (keep_last < 1) keep_last = 1;
  std::vector<std::pair<int, std::string>> found;
  if (!ListCheckpoints(dir, &found).ok()) return;
  std::error_code ec;
  for (size_t i = static_cast<size_t>(keep_last); i < found.size(); ++i) {
    std::filesystem::remove(found[i].second, ec);
  }
}

}  // namespace sarn::nn
