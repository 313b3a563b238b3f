#include "snapshot/arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/binary_io.h"
#include "common/check.h"

namespace sarn::snapshot {
namespace {

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

bool ValidName(const char (&name)[40]) {
  const void* nul = std::memchr(name, '\0', sizeof(name));
  return nul != nullptr && name[0] != '\0';
}

}  // namespace

const char* SnapshotErrorName(SnapshotError error) {
  switch (error) {
    case SnapshotError::kOk: return "ok";
    case SnapshotError::kIoError: return "io_error";
    case SnapshotError::kBadMagic: return "bad_magic";
    case SnapshotError::kBadVersion: return "bad_version";
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kBadSectionTable: return "bad_section_table";
    case SnapshotError::kCrcMismatch: return "crc_mismatch";
    case SnapshotError::kMalformed: return "malformed";
    case SnapshotError::kShapeMismatch: return "shape_mismatch";
  }
  return "unknown";
}

// --- Writing -----------------------------------------------------------------

void SnapshotWriter::Add(std::string_view name, SectionType dtype,
                         const void* data, size_t bytes) {
  Add(name, dtype, std::string(static_cast<const char*>(data), bytes));
}

void SnapshotWriter::Add(std::string_view name, SectionType dtype,
                         std::string bytes) {
  SARN_CHECK(!name.empty() && name.size() < sizeof(SectionEntry{}.name))
      << "section name '" << std::string(name) << "'";
  for (const PendingSection& section : sections_) {
    SARN_CHECK(section.name != name) << "duplicate section " << std::string(name);
  }
  sections_.push_back({std::string(name), dtype, std::move(bytes)});
}

std::string SnapshotWriter::Finish() {
  const size_t count = sections_.size();
  const size_t table_offset = sizeof(SnapshotHeader);
  const size_t payload_start =
      AlignUp(table_offset + count * sizeof(SectionEntry), kSectionAlignment);

  // Lay out the arena: aligned payload offsets, zero padding in the gaps
  // (padding is covered by file_bytes but by no section CRC).
  std::vector<SectionEntry> table(count);
  size_t cursor = payload_start;
  for (size_t i = 0; i < count; ++i) {
    SectionEntry& entry = table[i];
    std::memset(&entry, 0, sizeof(entry));
    std::memcpy(entry.name, sections_[i].name.data(), sections_[i].name.size());
    entry.offset = cursor;
    entry.bytes = sections_[i].bytes.size();
    entry.crc32 = Crc32(sections_[i].bytes.data(), sections_[i].bytes.size());
    entry.dtype = static_cast<uint8_t>(sections_[i].dtype);
    cursor = AlignUp(cursor + sections_[i].bytes.size(), kSectionAlignment);
  }
  const size_t file_bytes = cursor;

  SnapshotHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.version_major = kSnapshotVersionMajor;
  header.version_minor = kSnapshotVersionMinor;
  header.file_bytes = file_bytes;
  header.table_offset = table_offset;
  header.section_count = static_cast<uint32_t>(count);
  header.table_crc =
      Crc32(table.data(), table.size() * sizeof(SectionEntry));
  header.header_crc = Crc32(&header, offsetof(SnapshotHeader, header_crc));

  std::string arena(file_bytes, '\0');
  std::memcpy(arena.data(), &header, sizeof(header));
  std::memcpy(arena.data() + table_offset, table.data(),
              table.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(arena.data() + table[i].offset, sections_[i].bytes.data(),
                sections_[i].bytes.size());
  }
  sections_.clear();
  return arena;
}

SnapshotStatus WriteSnapshotFile(const std::string& path,
                                 const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return SnapshotStatus::Fail(SnapshotError::kIoError,
                                  "cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return SnapshotStatus::Fail(SnapshotError::kIoError,
                                  "short write to " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                "cannot rename " + tmp + " to " + path);
  }
  return SnapshotStatus::Ok();
}

// --- Loading -----------------------------------------------------------------

MappedSnapshot::~MappedSnapshot() {
  if (mapped_ && base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), size_);
  }
}

const MappedSnapshot::Section* MappedSnapshot::Find(
    std::string_view name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

SnapshotStatus MappedSnapshot::Map(const std::string& path,
                                   const Options& options,
                                   std::shared_ptr<const MappedSnapshot>* out) {
  // The object is built first so that early-return paths unmap via the
  // destructor; *out is only assigned after full validation.
  std::shared_ptr<MappedSnapshot> snap(new MappedSnapshot());
  snap->path_ = path;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                "cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                "cannot stat " + path);
  }
  // A directory (or a pipe, or a device) opens read-only but is no file to
  // map; say so rather than failing later on a short read.
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return SnapshotStatus::Fail(SnapshotError::kIoError,
                                path + " is not a regular file");
  }
  snap->size_ = static_cast<size_t>(st.st_size);

  // Validation step 1: a container is at least one header long. Checked
  // before mmap (mapping zero bytes is itself an error).
  if (snap->size_ < sizeof(SnapshotHeader)) {
    ::close(fd);
    return SnapshotStatus::Fail(
        SnapshotError::kTruncated,
        path + ": " + std::to_string(snap->size_) + " bytes, shorter than the "
        + std::to_string(sizeof(SnapshotHeader)) + "-byte header");
  }

  void* mapping = ::mmap(nullptr, snap->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (mapping != MAP_FAILED) {
    snap->base_ = static_cast<const unsigned char*>(mapping);
    snap->mapped_ = true;
    ::close(fd);
  } else {
    // Filesystems without mmap support: fall back to one heap read. The
    // format validates identically; only mapped_bytes accounting differs.
    ::close(fd);
    std::ifstream in(path, std::ios::binary);
    snap->heap_copy_.resize(snap->size_);
    in.read(snap->heap_copy_.data(),
            static_cast<std::streamsize>(snap->size_));
    if (!in.good() ||
        static_cast<size_t>(in.gcount()) != snap->size_) {
      return SnapshotStatus::Fail(SnapshotError::kIoError,
                                  "mmap failed and heap read of " + path +
                                      " came up short");
    }
    snap->base_ = reinterpret_cast<const unsigned char*>(
        snap->heap_copy_.data());
  }

  // Step 2: magic.
  SnapshotHeader header;
  std::memcpy(&header, snap->base_, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return SnapshotStatus::Fail(SnapshotError::kBadMagic,
                                path + " is not a SARN container file");
  }
  // Step 3: header integrity before trusting any other header field.
  const uint32_t header_crc =
      Crc32(snap->base_, offsetof(SnapshotHeader, header_crc));
  if (header_crc != header.header_crc) {
    return SnapshotStatus::Fail(SnapshotError::kCrcMismatch,
                                path + ": header CRC mismatch");
  }
  // Step 4: version gate.
  if (header.version_major > kSnapshotVersionMajor) {
    return SnapshotStatus::Fail(
        SnapshotError::kBadVersion,
        path + ": snapshot version " + std::to_string(header.version_major) +
            "." + std::to_string(header.version_minor) +
            " is newer than this build reads (" +
            std::to_string(kSnapshotVersionMajor) + ".x); rebuild or upgrade");
  }
  snap->version_major_ = header.version_major;
  snap->version_minor_ = header.version_minor;
  // Step 5: exact size. A well-formed header on a truncated (or padded)
  // file is still a torn write.
  if (header.file_bytes != snap->size_) {
    return SnapshotStatus::Fail(
        SnapshotError::kTruncated,
        path + ": header declares " + std::to_string(header.file_bytes) +
            " bytes but the file has " + std::to_string(snap->size_));
  }
  // Step 6: section-table geometry.
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.table_offset < sizeof(SnapshotHeader) ||
      header.table_offset % kSectionAlignment != 0 ||
      header.table_offset > snap->size_ ||
      table_bytes > snap->size_ - header.table_offset) {
    return SnapshotStatus::Fail(
        SnapshotError::kBadSectionTable,
        path + ": section table out of bounds (offset " +
            std::to_string(header.table_offset) + ", " +
            std::to_string(header.section_count) + " entries)");
  }
  // Step 7: table integrity before trusting any entry.
  const unsigned char* table_base = snap->base_ + header.table_offset;
  if (Crc32(table_base, table_bytes) != header.table_crc) {
    return SnapshotStatus::Fail(SnapshotError::kCrcMismatch,
                                path + ": section table CRC mismatch");
  }
  // Step 8: per-entry geometry.
  const uint64_t payload_floor = header.table_offset + table_bytes;
  snap->sections_.reserve(header.section_count);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, table_base + i * sizeof(SectionEntry), sizeof(entry));
    if (!ValidName(entry.name)) {
      return SnapshotStatus::Fail(
          SnapshotError::kBadSectionTable,
          path + ": section " + std::to_string(i) + " has a bad name");
    }
    const std::string_view name(
        reinterpret_cast<const char*>(table_base + i * sizeof(SectionEntry)));
    if (entry.offset % kSectionAlignment != 0 ||
        entry.offset < payload_floor || entry.offset > snap->size_ ||
        entry.bytes > snap->size_ - entry.offset) {
      return SnapshotStatus::Fail(
          SnapshotError::kBadSectionTable,
          path + ": section '" + std::string(name) +
              "' extent lies outside the file or is misaligned");
    }
    if (entry.dtype > static_cast<uint8_t>(SectionType::kF64)) {
      return SnapshotStatus::Fail(
          SnapshotError::kBadSectionTable,
          path + ": section '" + std::string(name) + "' has unknown dtype " +
              std::to_string(entry.dtype));
    }
    if (snap->Find(name) != nullptr) {
      return SnapshotStatus::Fail(
          SnapshotError::kBadSectionTable,
          path + ": duplicate section '" + std::string(name) + "'");
    }
    Section section;
    section.name = name;
    section.dtype = static_cast<SectionType>(entry.dtype);
    section.data = snap->base_ + entry.offset;
    section.bytes = entry.bytes;
    snap->sections_.push_back(section);

    // Step 9: payload integrity.
    if (options.verify_payload_crc &&
        Crc32(section.data, section.bytes) != entry.crc32) {
      return SnapshotStatus::Fail(
          SnapshotError::kCrcMismatch,
          path + ": payload CRC mismatch in section '" + std::string(name) +
              "'");
    }
  }

  *out = std::move(snap);
  return SnapshotStatus::Ok();
}

}  // namespace sarn::snapshot
