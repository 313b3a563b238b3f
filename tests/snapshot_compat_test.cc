// Golden-file compatibility suite for snapshot format v1. A small snapshot
// committed under tests/data/ pins the exact on-disk layout: the writer must
// re-encode the deterministic golden contents byte-for-byte, and every
// future build must keep loading the committed file (and answering the
// pinned queries bitwise) forever. Regenerate after a DELIBERATE format
// change with:
//   SARN_REGEN_GOLDEN=1 ./snapshot_compat_test
// and bump kSnapshotVersionMajor/Minor per the rules in format.h.

#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "geo/point.h"
#include "tasks/embedding_index.h"
#include "tensor/tensor.h"

namespace sarn::snapshot {
namespace {

using tasks::EmbeddingIndex;
using tasks::IndexMetric;
using tasks::IndexPrecision;
using tasks::Neighbor;
using tensor::Tensor;

constexpr int64_t kGoldenN = 8;
constexpr int64_t kGoldenD = 4;

std::string GoldenPath() {
  return std::string(SARN_TEST_DATA_DIR) + "/golden_v1.sarnsnap";
}

// Pure integer arithmetic producing exact dyadic floats — identical on every
// platform, compiler and libm, so the golden bytes are reproducible.
Tensor GoldenEmbeddings() {
  std::vector<float> values;
  values.reserve(static_cast<size_t>(kGoldenN * kGoldenD));
  for (int64_t i = 0; i < kGoldenN; ++i) {
    for (int64_t j = 0; j < kGoldenD; ++j) {
      const int64_t raw = (i * 31 + j * 17) % 97 - 48;
      values.push_back(static_cast<float>(raw) / 64.0f);
    }
  }
  return Tensor::FromVector({kGoldenN, kGoldenD}, std::move(values));
}

std::vector<geo::LatLng> GoldenMidpoints() {
  std::vector<geo::LatLng> midpoints(static_cast<size_t>(kGoldenN));
  for (size_t i = 0; i < midpoints.size(); ++i) {
    midpoints[i] = {30.0 + static_cast<double>(i) / 128.0,
                    104.0 - static_cast<double>(i) / 256.0};
  }
  return midpoints;
}

struct GoldenFixture {
  Tensor embeddings = GoldenEmbeddings();
  EmbeddingIndex float_index{embeddings, IndexMetric::kCosine,
                             IndexPrecision::kFloat32};
  EmbeddingIndex int8_index{embeddings, IndexMetric::kCosine,
                            IndexPrecision::kInt8};
  std::vector<geo::LatLng> midpoints = GoldenMidpoints();

  SnapshotContents Contents() const {
    SnapshotContents contents;
    contents.n = kGoldenN;
    contents.d = kGoldenD;
    contents.metric = IndexMetric::kCosine;
    contents.model_embeddings = &embeddings;
    contents.float_index = &float_index;
    contents.int8_index = &int8_index;
    contents.midpoints = &midpoints;
    contents.locator_cell_side_meters = 300.0;
    return contents;
  }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return in ? buffer.str() : std::string();
}

// The committed file IS the v1 layout spec: any writer change — field order,
// alignment, padding, CRC coverage, section naming — breaks this byte
// comparison and forces a deliberate versioning decision.
TEST(SnapshotCompatTest, WriterReencodesGoldenBytesExactly) {
  GoldenFixture golden;
  const std::string encoded = BuildServingSnapshot(golden.Contents());
  if (std::getenv("SARN_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteSnapshotFile(GoldenPath(), encoded).ok());
    GTEST_SKIP() << "regenerated " << GoldenPath() << " (" << encoded.size()
                 << " bytes)";
  }
  const std::string committed = ReadFileBytes(GoldenPath());
  ASSERT_FALSE(committed.empty()) << "missing golden file " << GoldenPath();
  ASSERT_EQ(encoded.size(), committed.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    ASSERT_EQ(encoded[i], committed[i])
        << "snapshot v1 layout changed at byte " << i
        << "; if deliberate, bump the format version (format.h) and "
           "regenerate with SARN_REGEN_GOLDEN=1";
  }
}

TEST(SnapshotCompatTest, GoldenSnapshotLoadsForever) {
  std::shared_ptr<const MappedSnapshot> mapping;
  SnapshotStatus status = MappedSnapshot::Map(GoldenPath(), {}, &mapping);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(mapping->version_major(), 1u);
  SnapshotMeta meta;
  ASSERT_TRUE(ReadServingMeta(*mapping, &meta).ok());
  EXPECT_EQ(meta.n, kGoldenN);
  EXPECT_EQ(meta.d, kGoldenD);
  EXPECT_EQ(meta.metric, IndexMetric::kCosine);
  EXPECT_EQ(meta.locator_cell_side_meters, 300.0);
  for (const char* name :
       {kSectionMeta, kSectionModelEmbeddings, kSectionIndexF32Rows,
        kSectionIndexI8Codes, kSectionGeoMidpoints}) {
    EXPECT_NE(mapping->Find(name), nullptr) << name;
  }

  GoldenFixture golden;
  for (IndexPrecision precision :
       {IndexPrecision::kFloat32, IndexPrecision::kInt8}) {
    const EmbeddingIndex& heap = precision == IndexPrecision::kFloat32
                                     ? golden.float_index
                                     : golden.int8_index;
    LoadedSnapshot loaded;
    ASSERT_TRUE(LoadServingSnapshot(GoldenPath(), precision, &loaded).ok());
    // Pinned queries: answers must stay bitwise what a freshly built heap
    // index over the golden embeddings computes.
    for (int64_t id = 0; id < kGoldenN; ++id) {
      const std::vector<Neighbor> expected = heap.QueryById(id, 3);
      const std::vector<Neighbor> actual = loaded.index->QueryById(id, 3);
      ASSERT_EQ(actual.size(), expected.size()) << "id " << id;
      for (size_t r = 0; r < expected.size(); ++r) {
        EXPECT_EQ(actual[r].id, expected[r].id) << "id " << id;
        EXPECT_EQ(actual[r].score, expected[r].score) << "id " << id;
      }
    }
    ASSERT_NE(loaded.locator, nullptr);
    for (size_t i = 0; i < golden.midpoints.size(); ++i) {
      EXPECT_EQ(loaded.locator->point(i), golden.midpoints[i]);
    }
  }
}

// Forward-compat stance (format.h): minor bumps stay readable, a higher
// major is a typed, actionable rejection — never a misparse.
TEST(SnapshotCompatTest, FutureMajorVersionIsRejected) {
  std::string bytes = ReadFileBytes(GoldenPath());
  ASSERT_GE(bytes.size(), sizeof(SnapshotHeader));
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version_major = kSnapshotVersionMajor + 1;
  header.header_crc = Crc32(&header, offsetof(SnapshotHeader, header_crc));
  std::memcpy(bytes.data(), &header, sizeof(header));

  const std::string path = testing::TempDir() + "/sarn_compat_future.sarnsnap";
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());
  std::shared_ptr<const MappedSnapshot> mapping;
  SnapshotStatus status = MappedSnapshot::Map(path, {}, &mapping);
  EXPECT_EQ(status.error, SnapshotError::kBadVersion);
  EXPECT_NE(status.message.find("version"), std::string::npos)
      << "rejection must tell the operator what is wrong: " << status.message;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sarn::snapshot
