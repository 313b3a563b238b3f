#include <vector>

#include "common/binary_io.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace sarn::snapshot {

std::string BuildServingSnapshot(const SnapshotContents& contents) {
  SARN_CHECK(contents.n >= 0 && contents.d > 0);
  uint32_t flags = 0;
  float shared_scale = 0.0f;
  if (contents.model_embeddings != nullptr) {
    SARN_CHECK_EQ(contents.model_embeddings->rank(), 2);
    SARN_CHECK_EQ(contents.model_embeddings->shape()[0], contents.n);
    SARN_CHECK_EQ(contents.model_embeddings->shape()[1], contents.d);
    flags |= kHasModelEmbeddings;
  }
  if (contents.float_index != nullptr) {
    SARN_CHECK(contents.float_index->precision() ==
               tasks::IndexPrecision::kFloat32);
    SARN_CHECK(contents.float_index->metric() == contents.metric);
    SARN_CHECK_EQ(contents.float_index->size(), contents.n);
    SARN_CHECK_EQ(contents.float_index->dim(), contents.d);
    flags |= kHasFloatIndex;
  }
  if (contents.int8_index != nullptr) {
    SARN_CHECK(contents.int8_index->precision() == tasks::IndexPrecision::kInt8);
    SARN_CHECK(contents.int8_index->metric() == contents.metric);
    SARN_CHECK_EQ(contents.int8_index->size(), contents.n);
    SARN_CHECK_EQ(contents.int8_index->dim(), contents.d);
    flags |= kHasInt8Index;
    shared_scale = contents.int8_index->shared_scale_i8();
  }
  if (contents.midpoints != nullptr) {
    SARN_CHECK_EQ(static_cast<int64_t>(contents.midpoints->size()), contents.n);
    flags |= kHasLocator;
  }

  ByteWriter meta;
  meta.PutU32(kMetaVersion);
  meta.PutI64(contents.n);
  meta.PutI64(contents.d);
  meta.PutU32(static_cast<uint32_t>(contents.metric));
  meta.PutU32(flags);
  meta.PutF32(shared_scale);
  meta.PutF64(contents.locator_cell_side_meters);

  SnapshotWriter writer;
  writer.Add(kSectionMeta, SectionType::kBytes, meta.buffer().data(),
             meta.buffer().size());
  if (contents.model_embeddings != nullptr) {
    const tensor::Storage& data = contents.model_embeddings->data();
    writer.Add(kSectionModelEmbeddings, SectionType::kF32, data.data(),
               data.size() * sizeof(float));
  }
  if (contents.float_index != nullptr) {
    std::span<const float> rows = contents.float_index->rows_f32();
    writer.Add(kSectionIndexF32Rows, SectionType::kF32, rows.data(),
               rows.size() * sizeof(float));
  }
  if (contents.int8_index != nullptr) {
    std::span<const int8_t> codes = contents.int8_index->codes_i8();
    writer.Add(kSectionIndexI8Codes, SectionType::kI8, codes.data(),
               codes.size());
    std::span<const float> scales = contents.int8_index->row_scales_i8();
    if (!scales.empty()) {
      writer.Add(kSectionIndexI8Scales, SectionType::kF32, scales.data(),
                 scales.size() * sizeof(float));
    }
  }
  if (contents.midpoints != nullptr) {
    // [n, 2] f64 (lat, lng) — LatLng is two doubles, serialised explicitly
    // so the section layout never depends on struct padding.
    std::vector<double> flat;
    flat.reserve(contents.midpoints->size() * 2);
    for (const geo::LatLng& p : *contents.midpoints) {
      flat.push_back(p.lat);
      flat.push_back(p.lng);
    }
    writer.Add(kSectionGeoMidpoints, SectionType::kF64, flat.data(),
               flat.size() * sizeof(double));
  }
  return writer.Finish();
}

SnapshotStatus SaveServingSnapshot(const std::string& path,
                                   const SnapshotContents& contents) {
  return WriteSnapshotFile(path, BuildServingSnapshot(contents));
}

}  // namespace sarn::snapshot
