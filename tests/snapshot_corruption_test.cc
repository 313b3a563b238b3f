// Deterministic corruption sweep over the one binary container: every
// mutation class (header bit flips, version lies, truncations at every
// section boundary, section-table geometry lies, payload flips) must be
// rejected with exactly the typed SnapshotError documented in format.h —
// never UB, never a crash. The container-level cases (validation steps 1-9)
// run over two arenas: a serving snapshot and a real training checkpoint
// written by the trainer. The serving-only cases (meta garbage, shape lies:
// steps 10-11) follow, then degenerate paths. tools/verify.sh runs this
// suite under ASan/LSan; the random bit-flip fuzz mirrors csv_fuzz_test.cc.

#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/rng.h"
#include "core/checkpoint_tags.h"
#include "core/sarn_model.h"
#include "nn/serialization.h"
#include "roadnet/synthetic_city.h"
#include "tasks/embedding_index.h"
#include "tensor/tensor.h"

namespace sarn::snapshot {
namespace {

using tasks::EmbeddingIndex;
using tasks::IndexMetric;
using tasks::IndexPrecision;
using tensor::Tensor;

// One fully loaded serving arena: meta + model + float + int8 (+ scales) +
// locator.
std::string ServingArena() {
  Rng rng(20260809);
  Tensor embeddings = Tensor::Randn({12, 8}, rng);
  EmbeddingIndex float_index(embeddings, IndexMetric::kCosine,
                             IndexPrecision::kFloat32);
  EmbeddingIndex int8_index(embeddings, IndexMetric::kCosine,
                            IndexPrecision::kInt8);
  std::vector<geo::LatLng> midpoints(12);
  for (size_t i = 0; i < midpoints.size(); ++i) {
    midpoints[i] = {30.0 + 0.001 * static_cast<double>(i), 104.0};
  }
  SnapshotContents contents;
  contents.n = 12;
  contents.d = 8;
  contents.metric = IndexMetric::kCosine;
  contents.model_embeddings = &embeddings;
  contents.float_index = &float_index;
  contents.int8_index = &int8_index;
  contents.midpoints = &midpoints;
  contents.locator_cell_side_meters = 120.0;
  return BuildServingSnapshot(contents);
}

// A training checkpoint as the trainer writes it: one epoch of a tiny model,
// all eight sarn/* sections. Built once per process.
std::string CheckpointArena() {
  static const std::string bytes = [] {
    roadnet::SyntheticCityConfig city;
    city.rows = 5;
    city.cols = 5;
    const roadnet::RoadNetwork network = roadnet::GenerateSyntheticCity(city);
    core::SarnConfig config;
    config.hidden_dim = 8;
    config.embedding_dim = 8;
    config.projection_dim = 4;
    config.gat_layers = 1;
    config.gat_heads = 2;
    config.feature_dim_per_feature = 2;
    config.max_epochs = 1;
    const std::string dir = testing::TempDir() + "/sarn_corrupt_checkpoint";
    std::filesystem::remove_all(dir);
    core::TrainOptions options;
    options.checkpoint_dir = dir;
    core::SarnModel model(network, config);
    model.Train(options);
    std::vector<std::pair<int, std::string>> found;
    EXPECT_TRUE(nn::ListCheckpoints(dir, &found).ok());
    EXPECT_EQ(found.size(), 1u);
    std::ifstream in(found.at(0).second, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::filesystem::remove_all(dir);
    return buffer.str();
  }();
  return bytes;
}

// One arena the container-level cases run over, with the two sections the
// entry-lie cases rewrite: `victim` gets the lie, `other` lends its name.
struct ArenaCase {
  const char* label;
  std::string (*build)();
  size_t sections;
  const char* victim;
  const char* other;
};

void PrintTo(const ArenaCase& arena, std::ostream* os) { *os << arena.label; }

const ArenaCase kArenaCases[] = {
    {"serving", &ServingArena, 6, kSectionIndexF32Rows, kSectionMeta},
    {"checkpoint", &CheckpointArena, 8, core::kSectionOnline,
     core::kSectionVariant},
};

// Maps mutated bytes through a real file, exactly like production loads.
SnapshotStatus MapBytes(const std::string& bytes,
                        std::shared_ptr<const MappedSnapshot>* out = nullptr) {
  static int counter = 0;
  const std::string path = testing::TempDir() + "/sarn_corrupt_" +
                           std::to_string(counter++) + ".sarnsnap";
  EXPECT_TRUE(WriteSnapshotFile(path, bytes).ok());
  std::shared_ptr<const MappedSnapshot> local;
  SnapshotStatus status =
      MappedSnapshot::Map(path, MappedSnapshot::Options{}, out ? out : &local);
  std::remove(path.c_str());
  return status;
}

SnapshotHeader ReadHeader(const std::string& arena) {
  SnapshotHeader header;
  std::memcpy(&header, arena.data(), sizeof(header));
  return header;
}

void WriteHeader(std::string* arena, SnapshotHeader header) {
  header.header_crc = 0;
  std::memcpy(arena->data(), &header, sizeof(header));
  const uint32_t crc = Crc32(arena->data(), offsetof(SnapshotHeader, header_crc));
  std::memcpy(arena->data() + offsetof(SnapshotHeader, header_crc), &crc,
              sizeof(crc));
}

SectionEntry ReadEntry(const std::string& arena, size_t i) {
  SectionEntry entry;
  std::memcpy(&entry,
              arena.data() + sizeof(SnapshotHeader) + i * sizeof(SectionEntry),
              sizeof(entry));
  return entry;
}

void WriteEntry(std::string* arena, size_t i, const SectionEntry& entry) {
  std::memcpy(arena->data() + sizeof(SnapshotHeader) + i * sizeof(SectionEntry),
              &entry, sizeof(entry));
}

// Recomputes table and header CRCs after a deliberate entry/meta edit, so a
// mutation can target one validation step without tripping the earlier CRC
// gates. Payload CRCs are left to the caller (entries carry them).
void Reseal(std::string* arena) {
  SnapshotHeader header = ReadHeader(*arena);
  header.table_crc = Crc32(
      arena->data() + header.table_offset,
      static_cast<size_t>(header.section_count) * sizeof(SectionEntry));
  WriteHeader(arena, header);
}

// Reseal variant that also refreshes one section's payload CRC (used when a
// mutation legitimately rewrites payload bytes, e.g. meta edits).
void ResealWithPayload(std::string* arena, size_t entry_index) {
  SectionEntry entry = ReadEntry(*arena, entry_index);
  entry.crc32 = Crc32(arena->data() + entry.offset, entry.bytes);
  WriteEntry(arena, entry_index, entry);
  Reseal(arena);
}

size_t FindEntryIndex(const std::string& arena, const char* name) {
  const SnapshotHeader header = ReadHeader(arena);
  for (size_t i = 0; i < header.section_count; ++i) {
    if (std::strcmp(ReadEntry(arena, i).name, name) == 0) return i;
  }
  ADD_FAILURE() << "section " << name << " not found";
  return 0;
}

// --- Container level (steps 1-9), over every arena ----------------------------

class SnapshotCorruptionTest : public testing::TestWithParam<ArenaCase> {
 protected:
  static std::string BaseArena() { return GetParam().build(); }
};

INSTANTIATE_TEST_SUITE_P(Arenas, SnapshotCorruptionTest,
                         testing::ValuesIn(kArenaCases),
                         [](const testing::TestParamInfo<ArenaCase>& info) {
                           return std::string(info.param.label);
                         });

TEST_P(SnapshotCorruptionTest, PristineArenaMaps) {
  std::shared_ptr<const MappedSnapshot> snap;
  SnapshotStatus status = MapBytes(BaseArena(), &snap);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(snap->sections().size(), GetParam().sections);
  EXPECT_NE(snap->Find(GetParam().victim), nullptr);
  EXPECT_NE(snap->Find(GetParam().other), nullptr);
}

TEST_P(SnapshotCorruptionTest, TruncationBelowHeaderIsTruncated) {
  const std::string arena = BaseArena();
  for (size_t keep : {0u, 1u, 8u, 63u}) {
    SnapshotStatus status = MapBytes(arena.substr(0, keep));
    EXPECT_EQ(status.error, SnapshotError::kTruncated) << "keep=" << keep;
  }
}

TEST_P(SnapshotCorruptionTest, TruncationAtEverySectionBoundaryIsTruncated) {
  const std::string arena = BaseArena();
  const SnapshotHeader header = ReadHeader(arena);
  std::vector<size_t> cuts = {sizeof(SnapshotHeader),
                              static_cast<size_t>(header.table_offset) +
                                  header.section_count * sizeof(SectionEntry)};
  for (size_t i = 0; i < header.section_count; ++i) {
    const SectionEntry entry = ReadEntry(arena, i);
    cuts.push_back(entry.offset);                // Section start.
    cuts.push_back(entry.offset + entry.bytes);  // Section end (pre-padding).
    cuts.push_back(entry.offset + entry.bytes / 2);
  }
  cuts.push_back(arena.size() - 1);
  for (size_t cut : cuts) {
    if (cut >= arena.size()) continue;
    SnapshotStatus status = MapBytes(arena.substr(0, cut));
    EXPECT_EQ(status.error, SnapshotError::kTruncated) << "cut=" << cut;
  }
  // Appending garbage is the same lie in the other direction.
  SnapshotStatus status = MapBytes(arena + std::string(64, 'x'));
  EXPECT_EQ(status.error, SnapshotError::kTruncated);
}

TEST_P(SnapshotCorruptionTest, EveryHeaderByteFlipIsTyped) {
  const std::string arena = BaseArena();
  for (size_t i = 0; i < sizeof(SnapshotHeader); ++i) {
    std::string mutated = arena;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    SnapshotStatus status = MapBytes(mutated);
    if (i < sizeof(kSnapshotMagic)) {
      EXPECT_EQ(status.error, SnapshotError::kBadMagic) << "byte " << i;
    } else {
      // Any other header flip — fields or the CRC itself — is caught by the
      // header checksum before the lying field is ever trusted.
      EXPECT_EQ(status.error, SnapshotError::kCrcMismatch) << "byte " << i;
    }
  }
}

TEST_P(SnapshotCorruptionTest, FutureMajorVersionIsRejectedWithClearError) {
  std::string arena = BaseArena();
  SnapshotHeader header = ReadHeader(arena);
  header.version_major = kSnapshotVersionMajor + 1;
  WriteHeader(&arena, header);
  SnapshotStatus status = MapBytes(arena);
  EXPECT_EQ(status.error, SnapshotError::kBadVersion);
  EXPECT_NE(status.message.find("newer than this build"), std::string::npos)
      << status.message;

  // A minor bump stays readable (additive evolution).
  header = ReadHeader(BaseArena());
  arena = BaseArena();
  header.version_minor = kSnapshotVersionMinor + 7;
  WriteHeader(&arena, header);
  EXPECT_TRUE(MapBytes(arena).ok());
}

TEST_P(SnapshotCorruptionTest, FileBytesLieIsTruncated) {
  std::string arena = BaseArena();
  SnapshotHeader header = ReadHeader(arena);
  header.file_bytes += 64;
  WriteHeader(&arena, header);
  EXPECT_EQ(MapBytes(arena).error, SnapshotError::kTruncated);
}

TEST_P(SnapshotCorruptionTest, SectionCountLieIsBadSectionTable) {
  std::string arena = BaseArena();
  SnapshotHeader header = ReadHeader(arena);
  header.section_count = 1u << 20;
  WriteHeader(&arena, header);
  EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
}

TEST_P(SnapshotCorruptionTest, TableOffsetLieIsBadSectionTable) {
  for (uint64_t offset : {uint64_t{0}, uint64_t{63}, uint64_t{1} << 40}) {
    std::string arena = BaseArena();
    SnapshotHeader header = ReadHeader(arena);
    header.table_offset = offset;
    WriteHeader(&arena, header);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable)
        << "offset=" << offset;
  }
}

TEST_P(SnapshotCorruptionTest, TableByteFlipIsCrcMismatch) {
  const std::string arena = BaseArena();
  const SnapshotHeader header = ReadHeader(arena);
  const size_t table_bytes = header.section_count * sizeof(SectionEntry);
  for (size_t i = 0; i < table_bytes; i += 17) {
    std::string mutated = arena;
    mutated[header.table_offset + i] ^= 0x01;
    EXPECT_EQ(MapBytes(mutated).error, SnapshotError::kCrcMismatch)
        << "table byte " << i;
  }
}

TEST_P(SnapshotCorruptionTest, EntryLiesAreBadSectionTable) {
  const std::string base = BaseArena();
  const size_t meta_i = FindEntryIndex(base, GetParam().other);
  const size_t rows_i = FindEntryIndex(base, GetParam().victim);

  {  // Empty name.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    std::memset(entry.name, 0, sizeof(entry.name));
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Name without a NUL terminator.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    std::memset(entry.name, 'x', sizeof(entry.name));
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Misaligned offset.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    entry.offset += 1;
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Offset pointing past EOF.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    entry.offset = (base.size() + kSectionAlignment) / kSectionAlignment *
                   kSectionAlignment * 2;
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Extent overflowing EOF (and, with a huge value, uint64 wraparound).
    for (uint64_t bytes : {static_cast<uint64_t>(base.size()),
                           ~uint64_t{0} - 32}) {
      std::string arena = base;
      SectionEntry entry = ReadEntry(arena, rows_i);
      entry.bytes = bytes;
      WriteEntry(&arena, rows_i, entry);
      Reseal(&arena);
      EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable)
          << "bytes=" << bytes;
    }
  }
  {  // Offset overlapping the section table itself.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    entry.offset = sizeof(SnapshotHeader);
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Unknown dtype.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    entry.dtype = 200;
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
  {  // Duplicate name.
    std::string arena = base;
    SectionEntry entry = ReadEntry(arena, rows_i);
    const SectionEntry meta_entry = ReadEntry(arena, meta_i);
    std::memcpy(entry.name, meta_entry.name, sizeof(entry.name));
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(MapBytes(arena).error, SnapshotError::kBadSectionTable);
  }
}

TEST_P(SnapshotCorruptionTest, PayloadByteFlipsAreCrcMismatch) {
  const std::string arena = BaseArena();
  const SnapshotHeader header = ReadHeader(arena);
  for (size_t i = 0; i < header.section_count; ++i) {
    const SectionEntry entry = ReadEntry(arena, i);
    if (entry.bytes == 0) continue;
    for (size_t pos : {size_t{0}, static_cast<size_t>(entry.bytes) / 2,
                       static_cast<size_t>(entry.bytes) - 1}) {
      std::string mutated = arena;
      mutated[entry.offset + pos] ^= 0x10;
      EXPECT_EQ(MapBytes(mutated).error, SnapshotError::kCrcMismatch)
          << "section " << entry.name << " pos " << pos;
    }
  }
}

TEST_P(SnapshotCorruptionTest, PayloadFlipSlipsThroughWithCrcVerifyOff) {
  // Documents the verify_payload_crc=false contract: geometry is still
  // checked, payload bytes are trusted.
  std::string arena = BaseArena();
  const SectionEntry entry =
      ReadEntry(arena, FindEntryIndex(arena, GetParam().victim));
  arena[entry.offset] ^= 0x10;
  static int counter = 0;
  const std::string path = testing::TempDir() + "/sarn_noverify_" +
                           std::to_string(counter++) + ".sarnsnap";
  ASSERT_TRUE(WriteSnapshotFile(path, arena).ok());
  MappedSnapshot::Options options;
  options.verify_payload_crc = false;
  std::shared_ptr<const MappedSnapshot> snap;
  EXPECT_TRUE(MappedSnapshot::Map(path, options, &snap).ok());
  std::remove(path.c_str());
}

TEST_P(SnapshotCorruptionTest, RandomBitFlipFuzzNeverSucceedsOutsidePadding) {
  const std::string arena = BaseArena();
  const SnapshotHeader header = ReadHeader(arena);
  // Bytes covered by some checksum or geometry check: header, table, and
  // every section extent. Only alignment padding is (by design) unchecked.
  std::vector<bool> covered(arena.size(), false);
  const size_t table_end =
      header.table_offset + header.section_count * sizeof(SectionEntry);
  for (size_t i = 0; i < table_end; ++i) covered[i] = true;
  for (size_t s = 0; s < header.section_count; ++s) {
    const SectionEntry entry = ReadEntry(arena, s);
    for (uint64_t i = entry.offset; i < entry.offset + entry.bytes; ++i) {
      covered[i] = true;
    }
  }

  Rng rng(424242);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t byte = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(arena.size()) - 1));
    const int bit = static_cast<int>(rng.UniformInt(0, 7));
    std::string mutated = arena;
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    SnapshotStatus status = MapBytes(mutated);
    if (covered[byte]) {
      EXPECT_NE(status.error, SnapshotError::kOk)
          << "flip at covered byte " << byte << " bit " << bit << " got through";
    } else {
      EXPECT_TRUE(status.ok())
          << "flip in padding byte " << byte << " should be benign: "
          << status.message;
    }
  }
}

// --- Serving section set (steps 10-11) ----------------------------------------

// Loads mutated bytes through LoadServingSnapshot (Map + the meta checks).
SnapshotStatus LoadBytes(const std::string& bytes) {
  static int counter = 0;
  const std::string path = testing::TempDir() + "/sarn_corrupt_meta_" +
                           std::to_string(counter++) + ".sarnsnap";
  EXPECT_TRUE(WriteSnapshotFile(path, bytes).ok());
  LoadedSnapshot loaded;
  SnapshotStatus status =
      LoadServingSnapshot(path, IndexPrecision::kFloat32, &loaded);
  std::remove(path.c_str());
  return status;
}

TEST(ServingMetaCorruptionTest, PristineMetaParses) {
  const std::string arena = ServingArena();
  std::shared_ptr<const MappedSnapshot> snap;
  ASSERT_TRUE(MapBytes(arena, &snap).ok());
  SnapshotMeta meta;
  SnapshotStatus status = ReadServingMeta(*snap, &meta);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(meta.n, 12);
  EXPECT_EQ(meta.d, 8);
  EXPECT_TRUE(LoadBytes(arena).ok());
}

TEST(ServingMetaCorruptionTest, MetaGarbageIsMalformed) {
  const std::string base = ServingArena();
  const size_t meta_i = FindEntryIndex(base, kSectionMeta);
  const SectionEntry meta_entry = ReadEntry(base, meta_i);

  {  // Meta too short to parse.
    std::string arena = base;
    SectionEntry entry = meta_entry;
    entry.bytes = 4;
    WriteEntry(&arena, meta_i, entry);
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
  {  // Unknown metric enum value.
    std::string arena = base;
    const size_t metric_off = meta_entry.offset + 4 + 8 + 8;
    const uint32_t bogus = 7;
    std::memcpy(arena.data() + metric_off, &bogus, sizeof(bogus));
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
  {  // Negative n.
    std::string arena = base;
    const int64_t bogus = -3;
    std::memcpy(arena.data() + meta_entry.offset + 4, &bogus, sizeof(bogus));
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
  {  // Future meta payload version.
    std::string arena = base;
    const uint32_t bogus = kMetaVersion + 9;
    std::memcpy(arena.data() + meta_entry.offset, &bogus, sizeof(bogus));
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
  {  // Meta section missing entirely (renamed).
    std::string arena = base;
    SectionEntry entry = meta_entry;
    std::strcpy(entry.name, "mete");
    WriteEntry(&arena, meta_i, entry);
    Reseal(&arena);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
  {  // Advertised payload section missing (renamed).
    std::string arena = base;
    const size_t rows_i = FindEntryIndex(base, kSectionIndexF32Rows);
    SectionEntry entry = ReadEntry(arena, rows_i);
    entry.name[std::strlen(entry.name) - 1] = 'z';
    WriteEntry(&arena, rows_i, entry);
    Reseal(&arena);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kMalformed);
  }
}

TEST(ServingMetaCorruptionTest, ShapeLiesAreShapeMismatch) {
  const std::string base = ServingArena();
  const size_t meta_i = FindEntryIndex(base, kSectionMeta);
  const SectionEntry meta_entry = ReadEntry(base, meta_i);
  {  // n+1: every payload section's byte count now disagrees.
    std::string arena = base;
    const int64_t n = 13;
    std::memcpy(arena.data() + meta_entry.offset + 4, &n, sizeof(n));
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kShapeMismatch);
  }
  {  // d halved.
    std::string arena = base;
    const int64_t d = 4;
    std::memcpy(arena.data() + meta_entry.offset + 12, &d, sizeof(d));
    ResealWithPayload(&arena, meta_i);
    EXPECT_EQ(LoadBytes(arena).error, SnapshotError::kShapeMismatch);
  }
}

TEST(SnapshotErrorTest, NamesAreStable) {
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kOk), "ok");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kBadMagic), "bad_magic");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kBadVersion), "bad_version");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kTruncated), "truncated");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kBadSectionTable),
               "bad_section_table");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kCrcMismatch), "crc_mismatch");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kMalformed), "malformed");
  EXPECT_STREQ(SnapshotErrorName(SnapshotError::kShapeMismatch),
               "shape_mismatch");
}

// --- Degenerate paths ----------------------------------------------------------
// A missing path, a 0-byte file and a directory come back typed from both
// readers; a write with no parent directory is kIoError and leaves no .tmp.

class SnapshotDegeneratePathTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/sarn_snapshot_degenerate";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ + "/adir");
    std::ofstream(root_ + "/empty.sarnsnap").close();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST_F(SnapshotDegeneratePathTest, MapAndLoadAreTyped) {
  struct Case {
    std::string path;
    SnapshotError error;
    const char* says;
  };
  const Case cases[] = {
      {root_ + "/missing.sarnsnap", SnapshotError::kIoError, "cannot open"},
      {root_ + "/empty.sarnsnap", SnapshotError::kTruncated, "0 bytes"},
      {root_ + "/adir", SnapshotError::kIoError, "not a regular file"},
  };
  for (const Case& c : cases) {
    std::shared_ptr<const MappedSnapshot> snap;
    SnapshotStatus status = MappedSnapshot::Map(c.path, {}, &snap);
    EXPECT_EQ(status.error, c.error) << c.path << ": " << status.message;
    EXPECT_NE(status.message.find(c.says), std::string::npos) << status.message;
    EXPECT_EQ(snap, nullptr);

    LoadedSnapshot loaded;
    status = LoadServingSnapshot(c.path, IndexPrecision::kFloat32, &loaded);
    EXPECT_EQ(status.error, c.error) << c.path << ": " << status.message;
    EXPECT_EQ(loaded.index, nullptr);
  }
}

TEST_F(SnapshotDegeneratePathTest, WriteWithoutParentDirIsIoErrorAndLeavesNoTmp) {
  const std::string path = root_ + "/nodir/model.sarnsnap";
  SnapshotStatus status = WriteSnapshotFile(path, ServingArena());
  EXPECT_EQ(status.error, SnapshotError::kIoError) << status.message;
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(SnapshotDegeneratePathTest, WriteOverADirectoryIsIoErrorAndLeavesNoTmp) {
  const std::string path = root_ + "/adir";
  SnapshotStatus status = WriteSnapshotFile(path, ServingArena());
  EXPECT_EQ(status.error, SnapshotError::kIoError) << status.message;
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace sarn::snapshot
