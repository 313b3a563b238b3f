// The section container every SARN binary file uses (format.h, DESIGN.md
// §13): serving snapshots, training checkpoints and weights files are
// section sets of one arena, written by one writer and read by one reader.
//
// Writing: SnapshotWriter lays named sections into one arena (header,
// fixed-stride section table, aligned CRC-checked payloads) and
// WriteSnapshotFile publishes it atomically (tmp + rename).
//
// Loading: MappedSnapshot::Map mmaps the file read-only and runs validation
// steps 1-9 of format.h (magic, versions, CRCs, section geometry); every
// corruption mode is a typed SnapshotError, never UB. What the sections mean
// is the caller's business: LoadServingSnapshot (snapshot.h) checks the
// serving meta, the trainer and SarnModel read the sarn/* sections.
//
// This library links only sarn_common, so the model and trainer layers can
// use it.

#ifndef SARN_SNAPSHOT_ARENA_H_
#define SARN_SNAPSHOT_ARENA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/format.h"

namespace sarn::snapshot {

/// Assembles one arena in memory. Sections are laid out in Add() order at
/// 64-byte-aligned offsets; Finish() seals the header and table.
class SnapshotWriter {
 public:
  /// Names must be unique, non-empty and at most 39 bytes (checked).
  void Add(std::string_view name, SectionType dtype, const void* data,
           size_t bytes);
  /// Same, adopting `bytes` without a copy (e.g. a ByteWriter::Take()).
  void Add(std::string_view name, SectionType dtype, std::string bytes);

  /// The complete file image. The writer is left empty. Peak memory is the
  /// pending sections plus the image: two copies of the payload.
  std::string Finish();

 private:
  struct PendingSection {
    std::string name;
    SectionType dtype;
    std::string bytes;
  };
  std::vector<PendingSection> sections_;
};

/// Atomically writes `bytes` (a Finish()ed arena) to `path`: "<path>.tmp"
/// then rename. A failed write leaves neither `path` changed nor a .tmp.
SnapshotStatus WriteSnapshotFile(const std::string& path,
                                 const std::string& bytes);

/// A validated, read-only mapping of a container file. Move-free: always
/// held behind shared_ptr so index views can pin it. Unmaps on destruction.
class MappedSnapshot {
 public:
  struct Options {
    /// Verify every section payload's CRC at map time. Costs one sequential
    /// pass over the file; disable only for benchmarking page-fault-only
    /// loads of already-trusted files.
    bool verify_payload_crc = true;
  };

  struct Section {
    std::string_view name;
    SectionType dtype = SectionType::kBytes;
    const void* data = nullptr;
    size_t bytes = 0;
  };

  /// Maps `path` and runs validation steps 1-9. `*out` is only set on
  /// success.
  static SnapshotStatus Map(const std::string& path, const Options& options,
                            std::shared_ptr<const MappedSnapshot>* out);

  ~MappedSnapshot();
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const std::string& path() const { return path_; }
  uint32_t version_major() const { return version_major_; }
  uint32_t version_minor() const { return version_minor_; }
  size_t file_bytes() const { return size_; }
  const std::vector<Section>& sections() const { return sections_; }

  /// nullptr when absent.
  const Section* Find(std::string_view name) const;

  /// Typed view of a section (bytes must divide evenly; callers validate
  /// element counts).
  template <typename T>
  std::span<const T> SpanOf(const Section& section) const {
    return {static_cast<const T*>(section.data), section.bytes / sizeof(T)};
  }
  /// The raw payload of a section, for parsing with a ByteReader.
  std::string_view BytesOf(const Section& section) const {
    return {static_cast<const char*>(section.data), section.bytes};
  }

 private:
  MappedSnapshot() = default;

  std::string path_;
  const unsigned char* base_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  // False when the fallback heap read path was used.
  std::string heap_copy_;
  uint32_t version_major_ = 0;
  uint32_t version_minor_ = 0;
  std::vector<Section> sections_;
};

}  // namespace sarn::snapshot

#endif  // SARN_SNAPSHOT_ARENA_H_
