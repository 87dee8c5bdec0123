// On-disk snapshot format primitives (see DESIGN.md "Persistence").
//
// A snapshot is a single file:
//
//   [0, 8)    magic "RTXSNAP1"
//   [8, 12)   u32 format version
//   [12, 16)  u32 section count
//   [16, 24)  u64 XXH64 of the section table bytes
//   [24, ...) section table: one 32-byte entry per section
//             { u32 id, u32 reserved, u64 offset, u64 length, u64 xxh64 }
//   ...       section payloads (byte-addressed; no alignment padding)
//
// Every integer is little-endian. Each section payload is covered by
// its own XXH64 and validated eagerly at open, before any payload byte
// is interpreted; the table itself is covered by the header hash. Any
// mismatch surfaces as Status::Corruption naming the failing section.
#ifndef RDFTX_STORAGE_SNAPSHOT_FORMAT_H_
#define RDFTX_STORAGE_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace rdftx::storage {

inline constexpr uint8_t kMagic[8] = {'R', 'T', 'X', 'S', 'N', 'A', 'P', '1'};
/// Version 2 dropped the per-leaf zone maps that version 1 carried.
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kHeaderBytes = 24;
inline constexpr size_t kTableEntryBytes = 32;
/// Seed for every XXH64 in the file, so a snapshot hash never collides
/// with a plain unseeded XXH64 of the same bytes.
inline constexpr uint64_t kChecksumSeed = 0x52444654582D5458ull;

/// Section identifiers. The four index sections are kIndexBase + the
/// IndexOrder value (SPO, SOP, POS, OPS).
enum SectionId : uint32_t {
  kSectionDictionary = 1,
  kSectionGraphMeta = 2,
  kSectionIndexBase = 3,  // 3..6 = SPO, SOP, POS, OPS
  /// WAL position this snapshot covers (u64 last applied LSN). Written
  /// by checkpoints; absent from plain SaveSnapshot files, and ignored
  /// by format-version-1 readers that predate it (unknown sections are
  /// skipped), so adding it is backward compatible.
  kSectionWalState = 7,
};

/// Human-readable section name for error messages.
inline std::string SectionName(uint32_t id) {
  switch (id) {
    case kSectionDictionary:
      return "dictionary";
    case kSectionGraphMeta:
      return "graph-meta";
    case kSectionIndexBase + 0:
      return "index-spo";
    case kSectionIndexBase + 1:
      return "index-sop";
    case kSectionIndexBase + 2:
      return "index-pos";
    case kSectionIndexBase + 3:
      return "index-ops";
    case kSectionWalState:
      return "wal-state";
    default:
      return "section#" + std::to_string(id);
  }
}

/// One parsed section-table row.
struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

/// Append-only little-endian encoder for section payloads.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Bytes(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over one section payload.
/// Every read past the end returns Corruption naming the section, so a
/// truncated or length-corrupted section can never walk off the buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, std::string section)
      : data_(data), size_(size), section_(std::move(section)) {}

  Status U8(uint8_t* v) {
    if (size_ - pos_ < 1) return Truncated();
    *v = data_[pos_++];
    return Status::OK();
  }
  Status U32(uint32_t* v) {
    if (size_ - pos_ < 4) return Truncated();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return Status::OK();
  }
  Status U64(uint64_t* v) {
    if (size_ - pos_ < 8) return Truncated();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return Status::OK();
  }
  /// Zero-copy view of the next `n` bytes.
  Status Bytes(const uint8_t** p, size_t n) {
    if (size_ - pos_ < n) return Truncated();
    *p = data_ + pos_;
    pos_ += n;
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  const std::string& section() const { return section_; }

  /// A fully parsed section must consume exactly its payload.
  Status ExpectEnd() const {
    if (pos_ != size_) {
      return Status::Corruption("section " + section_ + " has " +
                                std::to_string(size_ - pos_) +
                                " trailing bytes");
    }
    return Status::OK();
  }

  /// Corruption error carrying the section name, for structural checks
  /// done by the caller (bad counts, dangling ids, ...).
  Status Corrupt(const std::string& what) const {
    return Status::Corruption("section " + section_ + ": " + what);
  }

 private:
  Status Truncated() const {
    return Status::Corruption("section " + section_ +
                              " truncated at byte " + std::to_string(pos_));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string section_;
};

}  // namespace rdftx::storage

#endif  // RDFTX_STORAGE_SNAPSHOT_FORMAT_H_
