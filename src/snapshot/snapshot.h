// Save/load of the serving section set: mmap-able model + index snapshots
// (format.h, DESIGN.md §13).
//
// Writing: BuildServingSnapshot assembles the standard contents — the
// trained embedding matrix, the prepared float and/or int8 index payloads
// taken verbatim from an EmbeddingIndex, and the geo locator table — into
// one arena (arena.h), so a snapshot round-trips bitwise.
//
// Loading: LoadServingSnapshot maps the file (validation steps 1-9, arena.h),
// checks the serving meta (steps 10-11), then adopts the index sections as
// zero-copy tensor::Storage::External views — the EmbeddingIndex pins the
// mapping via a shared_ptr owner, so the file stays mapped exactly as long
// as any index (or in-flight serve batch) still references it, and hot-swap
// retirement munmaps it with the last reference. Only the locator is
// materialised (its grid buckets are rebuilt from the mapped midpoint
// table).
//
// Obs: every successful load publishes sarn.snapshot.load_ms, .bytes,
// .mapped_bytes (zero-copy adopted), .copied_bytes (materialised) and bumps
// sarn.snapshot.loads.

#ifndef SARN_SNAPSHOT_SNAPSHOT_H_
#define SARN_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/spatial_index.h"
#include "snapshot/arena.h"
#include "tasks/embedding_index.h"
#include "tensor/tensor.h"

namespace sarn::snapshot {

// Section names of the serving set. A snapshot always carries kSectionMeta;
// everything else is optional and advertised by the meta flags.
inline constexpr char kSectionMeta[] = "meta";
inline constexpr char kSectionModelEmbeddings[] = "model/embeddings";
inline constexpr char kSectionIndexF32Rows[] = "index/f32/rows";
inline constexpr char kSectionIndexI8Codes[] = "index/i8/codes";
inline constexpr char kSectionIndexI8Scales[] = "index/i8/scales";
inline constexpr char kSectionGeoMidpoints[] = "geo/midpoints";

/// Meta-section payload version (bumped independently of the container).
inline constexpr uint32_t kMetaVersion = 1;

// SnapshotMeta::payload_flags bits.
inline constexpr uint32_t kHasFloatIndex = 1u << 0;
inline constexpr uint32_t kHasInt8Index = 1u << 1;
inline constexpr uint32_t kHasLocator = 1u << 2;
inline constexpr uint32_t kHasModelEmbeddings = 1u << 3;

// --- Writing -----------------------------------------------------------------

/// What BuildServingSnapshot puts into the arena. All payload pointers are
/// borrowed for the call only.
struct SnapshotContents {
  int64_t n = 0;
  int64_t d = 0;
  tasks::IndexMetric metric = tasks::IndexMetric::kCosine;
  /// Trained [n, d] embedding matrix (pre-normalisation); optional.
  const tensor::Tensor* model_embeddings = nullptr;
  /// Prepared indexes to embed; each must match (n, d, metric) and its
  /// precision. Either may be null.
  const tasks::EmbeddingIndex* float_index = nullptr;
  const tasks::EmbeddingIndex* int8_index = nullptr;
  /// Segment midpoints for the serve locator; optional.
  const std::vector<geo::LatLng>* midpoints = nullptr;
  /// Grid cell side the locator was built with (meters).
  double locator_cell_side_meters = 0.0;
};

/// Serialises the contents into one arena (meta + payload sections).
std::string BuildServingSnapshot(const SnapshotContents& contents);

/// BuildServingSnapshot + WriteSnapshotFile.
SnapshotStatus SaveServingSnapshot(const std::string& path,
                                   const SnapshotContents& contents);

// --- Loading -----------------------------------------------------------------

/// Parsed meta section.
struct SnapshotMeta {
  int64_t n = 0;
  int64_t d = 0;
  tasks::IndexMetric metric = tasks::IndexMetric::kCosine;
  uint32_t payload_flags = 0;  // kHasFloatIndex | kHasInt8Index | ...
  float i8_shared_scale = 0.0f;
  double locator_cell_side_meters = 0.0;

  bool has(uint32_t flag) const { return (payload_flags & flag) != 0; }
};

/// Validation steps 10-11 over a mapped arena: parses the meta section and
/// checks every advertised payload's dtype and byte count against its n/d.
SnapshotStatus ReadServingMeta(const MappedSnapshot& mapping, SnapshotMeta* out);

/// Everything a serve cold start needs, adopted from one mapping.
struct LoadedSnapshot {
  std::shared_ptr<const MappedSnapshot> mapping;
  SnapshotMeta meta;
  /// Index at the requested precision; zero-copy over the mapping.
  std::shared_ptr<const tasks::EmbeddingIndex> index;
  /// Rebuilt from the mapped midpoint table; null when the snapshot has no
  /// locator section.
  std::shared_ptr<const geo::SpatialIndex> locator;
  /// Zero-copy view of the trained [n, d] embedding matrix (empty when the
  /// snapshot was built without one).
  std::span<const float> model_embeddings;

  size_t mapped_bytes = 0;  // Adopted zero-copy payload bytes.
  size_t copied_bytes = 0;  // Materialised bytes (locator rebuild).
  double load_ms = 0.0;
};

/// Maps `path`, runs ReadServingMeta and adopts the index payload at
/// `precision` (the snapshot must carry that payload — kMalformed
/// otherwise). On success publishes
/// the sarn.snapshot.* metrics.
SnapshotStatus LoadServingSnapshot(const std::string& path,
                                   tasks::IndexPrecision precision,
                                   LoadedSnapshot* out,
                                   const MappedSnapshot::Options& options = {});

}  // namespace sarn::snapshot

#endif  // SARN_SNAPSHOT_SNAPSHOT_H_
