#include <chrono>

#include "common/binary_io.h"
#include "obs/metrics.h"
#include "snapshot/snapshot.h"

namespace sarn::snapshot {
namespace {

struct SnapshotMetrics {
  obs::Counter& loads;
  obs::Counter& load_errors;
  obs::Histogram& load_ms;
  obs::Gauge& bytes;
  obs::Gauge& mapped_bytes;
  obs::Gauge& copied_bytes;

  static SnapshotMetrics& Get() {
    static SnapshotMetrics metrics{
        obs::MetricsRegistry::Default().GetCounter("sarn.snapshot.loads"),
        obs::MetricsRegistry::Default().GetCounter("sarn.snapshot.load_errors"),
        obs::MetricsRegistry::Default().GetHistogram(
            "sarn.snapshot.load_ms", obs::ExponentialBuckets(0.01, 4.0, 12)),
        obs::MetricsRegistry::Default().GetGauge("sarn.snapshot.bytes"),
        obs::MetricsRegistry::Default().GetGauge("sarn.snapshot.mapped_bytes"),
        obs::MetricsRegistry::Default().GetGauge("sarn.snapshot.copied_bytes"),
    };
    return metrics;
  }
};

}  // namespace

SnapshotStatus ReadServingMeta(const MappedSnapshot& mapping,
                               SnapshotMeta* out) {
  const std::string& path = mapping.path();
  // Step 10: the meta section is mandatory and must parse.
  const MappedSnapshot::Section* meta_section = mapping.Find(kSectionMeta);
  if (meta_section == nullptr) {
    return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                path + ": no '" + std::string(kSectionMeta) +
                                    "' section (not a serving snapshot)");
  }
  ByteReader reader(mapping.BytesOf(*meta_section));
  uint32_t meta_version = 0;
  uint32_t metric_raw = 0;
  SnapshotMeta meta;
  // Trailing bytes after the v1 fields are tolerated: minor versions may
  // append fields, and this reader must keep loading them.
  bool parsed = reader.GetU32(&meta_version) && reader.GetI64(&meta.n) &&
                reader.GetI64(&meta.d) && reader.GetU32(&metric_raw) &&
                reader.GetU32(&meta.payload_flags) &&
                reader.GetF32(&meta.i8_shared_scale) &&
                reader.GetF64(&meta.locator_cell_side_meters);
  if (!parsed || meta_version > kMetaVersion || meta.n < 0 || meta.d <= 0 ||
      metric_raw > static_cast<uint32_t>(tasks::IndexMetric::kL1)) {
    return SnapshotStatus::Fail(SnapshotError::kMalformed,
                                path + ": meta section does not parse");
  }
  meta.metric = static_cast<tasks::IndexMetric>(metric_raw);

  // Step 11: every advertised payload exists with the byte count meta's
  // (n, d) imply, with the dtype the writer stamps.
  const size_t n = static_cast<size_t>(meta.n);
  const size_t d = static_cast<size_t>(meta.d);
  struct Expectation {
    uint32_t flag;
    const char* name;
    SectionType dtype;
    size_t bytes;
  };
  const Expectation expectations[] = {
      {kHasModelEmbeddings, kSectionModelEmbeddings, SectionType::kF32,
       n * d * sizeof(float)},
      {kHasFloatIndex, kSectionIndexF32Rows, SectionType::kF32,
       n * d * sizeof(float)},
      {kHasInt8Index, kSectionIndexI8Codes, SectionType::kI8, n * d},
      {kHasLocator, kSectionGeoMidpoints, SectionType::kF64,
       n * 2 * sizeof(double)},
  };
  for (const Expectation& expect : expectations) {
    if (!meta.has(expect.flag)) continue;
    const MappedSnapshot::Section* section = mapping.Find(expect.name);
    if (section == nullptr || section->dtype != expect.dtype) {
      return SnapshotStatus::Fail(
          SnapshotError::kMalformed,
          path + ": meta advertises section '" + std::string(expect.name) +
              "' but the snapshot does not carry it");
    }
    if (section->bytes != expect.bytes) {
      return SnapshotStatus::Fail(
          SnapshotError::kShapeMismatch,
          path + ": section '" + std::string(expect.name) + "' holds " +
              std::to_string(section->bytes) + " bytes, expected " +
              std::to_string(expect.bytes) + " for n=" +
              std::to_string(meta.n) + " d=" + std::to_string(meta.d));
    }
  }
  // Per-row scales ride along with an int8 cosine payload only.
  if (meta.has(kHasInt8Index) && meta.metric == tasks::IndexMetric::kCosine) {
    const MappedSnapshot::Section* scales = mapping.Find(kSectionIndexI8Scales);
    if (scales == nullptr || scales->dtype != SectionType::kF32) {
      return SnapshotStatus::Fail(
          SnapshotError::kMalformed,
          path + ": int8 cosine payload is missing its per-row scales");
    }
    if (scales->bytes != n * sizeof(float)) {
      return SnapshotStatus::Fail(
          SnapshotError::kShapeMismatch,
          path + ": int8 scale section holds " +
              std::to_string(scales->bytes) + " bytes, expected " +
              std::to_string(n * sizeof(float)));
    }
  }
  if (meta.has(kHasLocator) && !(meta.locator_cell_side_meters > 0.0)) {
    return SnapshotStatus::Fail(
        SnapshotError::kMalformed,
        path + ": locator payload with non-positive grid cell side");
  }

  *out = meta;
  return SnapshotStatus::Ok();
}

SnapshotStatus LoadServingSnapshot(const std::string& path,
                                   tasks::IndexPrecision precision,
                                   LoadedSnapshot* out,
                                   const MappedSnapshot::Options& options) {
  const auto start = std::chrono::steady_clock::now();
  SnapshotMetrics& metrics = SnapshotMetrics::Get();

  std::shared_ptr<const MappedSnapshot> mapping;
  SnapshotMeta meta;
  SnapshotStatus status = MappedSnapshot::Map(path, options, &mapping);
  if (status.ok()) status = ReadServingMeta(*mapping, &meta);
  if (!status.ok()) {
    metrics.load_errors.Increment();
    return status;
  }

  LoadedSnapshot loaded;
  loaded.mapping = mapping;
  loaded.meta = meta;

  if (precision == tasks::IndexPrecision::kFloat32) {
    if (!meta.has(kHasFloatIndex)) {
      metrics.load_errors.Increment();
      return SnapshotStatus::Fail(
          SnapshotError::kMalformed,
          path + ": snapshot carries no float32 index payload");
    }
    const MappedSnapshot::Section* rows = mapping->Find(kSectionIndexF32Rows);
    loaded.index = tasks::EmbeddingIndex::Adopt(
        meta.n, meta.d, meta.metric, precision,
        tensor::Storage::External(static_cast<const float*>(rows->data),
                                  rows->bytes / sizeof(float)),
        tensor::Storage(), 0.0f, mapping);
    loaded.mapped_bytes += rows->bytes;
  } else {
    if (!meta.has(kHasInt8Index)) {
      metrics.load_errors.Increment();
      return SnapshotStatus::Fail(
          SnapshotError::kMalformed,
          path + ": snapshot carries no int8 index payload");
    }
    const MappedSnapshot::Section* codes = mapping->Find(kSectionIndexI8Codes);
    // Codes ride in a float storage (same ByteStorage convention as the heap
    // index). Rounding the view up to whole floats stays in bounds: sections
    // sit at 64-byte offsets and the arena is zero-padded to 64.
    tensor::Storage code_view = tensor::Storage::External(
        static_cast<const float*>(codes->data),
        (codes->bytes + sizeof(float) - 1) / sizeof(float));
    tensor::Storage scale_view;
    if (meta.metric == tasks::IndexMetric::kCosine) {
      const MappedSnapshot::Section* scales =
          mapping->Find(kSectionIndexI8Scales);
      scale_view = tensor::Storage::External(
          static_cast<const float*>(scales->data),
          scales->bytes / sizeof(float));
      loaded.mapped_bytes += scales->bytes;
    }
    loaded.index = tasks::EmbeddingIndex::Adopt(
        meta.n, meta.d, meta.metric, precision, std::move(code_view),
        std::move(scale_view), meta.i8_shared_scale, mapping);
    loaded.mapped_bytes += codes->bytes;
  }

  if (meta.has(kHasModelEmbeddings)) {
    const MappedSnapshot::Section* model =
        mapping->Find(kSectionModelEmbeddings);
    loaded.model_embeddings = mapping->SpanOf<float>(*model);
    loaded.mapped_bytes += model->bytes;
  }

  if (meta.has(kHasLocator)) {
    const MappedSnapshot::Section* midpoints =
        mapping->Find(kSectionGeoMidpoints);
    std::span<const double> flat = mapping->SpanOf<double>(*midpoints);
    std::vector<geo::LatLng> points(flat.size() / 2);
    for (size_t i = 0; i < points.size(); ++i) {
      points[i] = geo::LatLng{flat[2 * i], flat[2 * i + 1]};
    }
    // The only materialised payload: grid buckets are cheap to rebuild and
    // pointer-heavy to serialise, so the snapshot stores just the points.
    loaded.locator = std::make_shared<const geo::SpatialIndex>(
        std::move(points), meta.locator_cell_side_meters);
    loaded.copied_bytes += midpoints->bytes;
  }

  loaded.load_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  metrics.loads.Increment();
  metrics.load_ms.Observe(loaded.load_ms);
  metrics.bytes.Set(static_cast<double>(mapping->file_bytes()));
  metrics.mapped_bytes.Set(static_cast<double>(loaded.mapped_bytes));
  metrics.copied_bytes.Set(static_cast<double>(loaded.copied_bytes));

  *out = std::move(loaded);
  return SnapshotStatus::Ok();
}

}  // namespace sarn::snapshot
