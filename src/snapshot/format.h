// On-disk layout of SARN's one binary container (DESIGN.md §13).
//
// Every binary file SARN writes — serving snapshots, training checkpoints
// and weights files — is ONE contiguous arena: the file itself, holding
// named, 64-byte-aligned, CRC-checked sections. The three uses differ only
// in their section sets. The design follows ggml's one-buffer model file: a
// fixed header, a fixed-stride section table, then raw payload bytes at
// aligned offsets, so a loader mmaps the file once and adopts tensor
// sections as zero-copy views — cold start is O(page-fault), not O(parse).
//
//   offset 0        SnapshotHeader (64 bytes)
//   offset 64       SectionEntry[section_count]   (64 bytes each)
//   aligned         section payloads, each 64-byte aligned, zero-padded
//
// Multi-byte fields are little-endian host order: the magic plus CRCs
// reject foreign files; this is a deployment format for the machines the
// model trains and serves on.
//
// Validation order on load — each corruption mode maps to its own
// SnapshotError so the fuzz suite can pin them one by one. Steps 1-9 are the
// container's (MappedSnapshot::Map, every file); steps 10-11 belong to the
// serving section set (LoadServingSnapshot):
//   1. file shorter than the header ............................ kTruncated
//   2. magic mismatch .......................................... kBadMagic
//   3. header CRC mismatch (bit flip in the header) ............ kCrcMismatch
//   4. version_major above this build's ........................ kBadVersion
//   5. declared file_bytes != actual size ...................... kTruncated
//   6. section table out of bounds / bad count ................. kBadSectionTable
//   7. section table CRC mismatch .............................. kCrcMismatch
//   8. entry lies: empty name, misaligned/overflowing offsets .. kBadSectionTable
//   9. payload CRC mismatch .................................... kCrcMismatch
//  10. meta section missing or unparseable ..................... kMalformed
//  11. section byte counts disagreeing with meta's n/d ......... kShapeMismatch

#ifndef SARN_SNAPSHOT_FORMAT_H_
#define SARN_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace sarn::snapshot {

/// First 8 bytes of every binary file SARN writes.
inline constexpr char kSnapshotMagic[8] = {'S', 'A', 'R', 'N',
                                           'S', 'N', 'P', '\n'};

/// Readers reject files whose major version is above theirs; minor bumps
/// are additive (new optional sections) and stay readable.
inline constexpr uint32_t kSnapshotVersionMajor = 1;
inline constexpr uint32_t kSnapshotVersionMinor = 0;

/// Every section payload (and the section table) starts at a multiple of
/// this. 64 covers every scalar type and keeps rows cache-line aligned; the
/// mmap base is page-aligned, so file alignment is memory alignment.
inline constexpr size_t kSectionAlignment = 64;

/// Element type of a section payload (SectionEntry::dtype).
enum class SectionType : uint8_t {
  kBytes = 0,  // Opaque byte blob (the meta section, training state).
  kF32 = 1,
  kI8 = 2,
  kF64 = 3,
};

#pragma pack(push, 1)
/// Fixed 64-byte file header. header_crc (CRC-32 of bytes [0, 60)) is
/// checked before any field other than the magic is trusted.
struct SnapshotHeader {
  char magic[8];
  uint32_t version_major;
  uint32_t version_minor;
  uint64_t file_bytes;     // Exact total file size, padding included.
  uint64_t table_offset;   // Always 64 in v1.
  uint32_t section_count;
  uint32_t flags;          // Reserved, 0 in v1.
  uint64_t reserved0;
  uint64_t reserved1;
  uint32_t table_crc;      // CRC-32 of the section-table bytes.
  uint32_t header_crc;     // CRC-32 of this struct's first 60 bytes.
};
static_assert(sizeof(SnapshotHeader) == 64);

/// Fixed 64-byte section-table entry. Names are NUL-padded and must be
/// NUL-terminated (at most 39 characters).
struct SectionEntry {
  char name[40];
  uint64_t offset;  // Absolute file offset, kSectionAlignment-aligned.
  uint64_t bytes;   // Payload length (excludes alignment padding).
  uint32_t crc32;   // CRC-32 of the payload bytes.
  uint8_t dtype;    // SectionType.
  uint8_t reserved[3];
};
static_assert(sizeof(SectionEntry) == 64);
#pragma pack(pop)

/// Why a container file (snapshot, checkpoint or weights) failed to save or
/// load — the one typed error for every binary file SARN reads. Every fuzz
/// mutation mode must map to exactly one of these (never UB, never a crash).
enum class SnapshotError {
  kOk = 0,
  kIoError,          // Cannot open/stat/map/write/rename the file, or the
                     // path is not a regular file.
  kBadMagic,         // Not a SARN container file.
  kBadVersion,       // A container, but a major version this build can't read.
  kTruncated,        // Shorter than the header or the declared file_bytes.
  kBadSectionTable,  // Table/entry geometry lies: bad count, unaligned or
                     // out-of-bounds offsets, overflowing extents, bad names.
  kCrcMismatch,      // Header, table or payload bytes corrupted.
  kMalformed,        // Geometry checks passed but a required section is
                     // missing or its payload does not parse.
  kShapeMismatch,    // Section byte counts disagree with meta's n/d, or a
                     // tensor section does not fit the target architecture.
};

const char* SnapshotErrorName(SnapshotError error);

struct SnapshotStatus {
  SnapshotError error = SnapshotError::kOk;
  std::string message;

  bool ok() const { return error == SnapshotError::kOk; }
  static SnapshotStatus Ok() { return {}; }
  static SnapshotStatus Fail(SnapshotError error, std::string message) {
    return {error, std::move(message)};
  }
};

}  // namespace sarn::snapshot

#endif  // SARN_SNAPSHOT_FORMAT_H_
