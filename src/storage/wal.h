// Write-ahead log of temporal triple deltas (see DESIGN.md §11).
//
// A WAL segment is an append-only file:
//
//   [0, 8)    magic "RTXWAL01"
//   [8, 12)   u32 format version
//   [12, 16)  u32 reserved (zero)
//   [16, ...) records, back to back
//
// Each record is framed
//
//   u32 payload length | u64 XXH64(payload, kChecksumSeed) | payload
//
// and the payload is
//
//   u64 lsn | u8 type | type-specific fields
//
//   kTerm    (1): u64 term id | u32 byte length | term bytes
//   kAssert  (2): u32 chronon | u64 s | u64 p | u64 o
//   kRetract (3): u32 chronon | u64 s | u64 p | u64 o
//
// All integers little-endian, same ByteWriter/ByteReader primitives and
// checksum seed as the RTXSNAP1 snapshot format. LSNs within a segment
// are consecutive (+1 per record); the first record of a segment may
// start anywhere in the global sequence (segments rotate at
// checkpoints).
//
// Replay is strictly prefix-consistent: records are applied in order
// until the first frame that is incomplete, fails its checksum, breaks
// LSN continuity, or does not decode. Everything from that offset on is
// the *torn tail* — the residue of a write cut short by a crash — and
// is reported, never applied. Replay itself never mutates the file;
// truncating the tail is the caller's decision (legitimate for the
// newest segment, a corruption error for older ones).
//
// WalWriter::Open is the one way to start or resume a segment: it
// writes (and fsyncs) the header into an empty file, resumes a file
// that already has one, and rejects anything in between.
#ifndef RDFTX_STORAGE_WAL_H_
#define RDFTX_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rdf/triple.h"
#include "util/date.h"
#include "util/file_io.h"
#include "util/status.h"

namespace rdftx::storage {

inline constexpr uint8_t kWalMagic[8] = {'R', 'T', 'X', 'W', 'A', 'L',
                                         '0', '1'};
inline constexpr uint32_t kWalFormatVersion = 1;
inline constexpr size_t kWalHeaderBytes = 16;
inline constexpr size_t kWalFrameBytes = 12;  // u32 length + u64 checksum
/// Upper bound on one record's payload; anything larger is treated as a
/// torn/corrupt frame rather than an allocation request. Generous: the
/// largest legitimate record is a term string.
inline constexpr uint32_t kWalMaxPayloadBytes = 1u << 20;

enum class WalRecordType : uint8_t {
  kTerm = 1,     // dictionary intern: id + bytes
  kAssert = 2,   // triple becomes valid at `time`
  kRetract = 3,  // triple stops being valid at `time`
};

/// One decoded log record. Which fields are meaningful depends on
/// `type`: kTerm uses {term_id, term}; kAssert/kRetract use
/// {triple, time}.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kAssert;
  Triple triple;
  Chronon time = 0;
  uint64_t term_id = 0;
  std::string term;

  static WalRecord Term(uint64_t lsn, uint64_t id, std::string text) {
    WalRecord r;
    r.lsn = lsn;
    r.type = WalRecordType::kTerm;
    r.term_id = id;
    r.term = std::move(text);
    return r;
  }
  static WalRecord Delta(uint64_t lsn, bool is_assert, const Triple& t,
                         Chronon time) {
    WalRecord r;
    r.lsn = lsn;
    r.type = is_assert ? WalRecordType::kAssert : WalRecordType::kRetract;
    r.triple = t;
    r.time = time;
    return r;
  }
};

/// Appends the 16-byte segment header to `out`.
void EncodeWalHeader(std::vector<uint8_t>* out);

/// Appends one framed record (frame + checksummed payload) to `out`.
void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out);

/// Outcome of replaying one segment buffer.
struct WalReplayResult {
  /// LSN of the last applied record; 0 when none were applied.
  uint64_t last_lsn = 0;
  /// Number of records applied.
  uint64_t records = 0;
  /// Byte offset of the end of the last valid record (or of the header
  /// when no record is valid). Bytes at [valid_bytes, size) are the
  /// torn tail; truncating the file to valid_bytes removes it.
  uint64_t valid_bytes = 0;
  /// True when [valid_bytes, size) is non-empty — the buffer ends in an
  /// incomplete, checksum-failing, or otherwise undecodable frame.
  bool torn_tail = false;
};

/// Replays the segment in `data`, invoking `apply` for each valid
/// record in order. Stops at the first invalid frame and reports it via
/// `result` (see WalReplayResult) — a torn tail is NOT an error status.
/// Errors: a header that is present but wrong (bad magic/version) is
/// Corruption; an error returned by `apply` aborts the replay and is
/// returned as-is (result then covers the records applied before it).
/// An empty or header-truncated buffer replays to zero records with
/// torn_tail=true and valid_bytes=0 (the residue of a crash during
/// segment creation).
Status ReplayWal(const uint8_t* data, size_t size,
                 const std::function<Status(const WalRecord&)>& apply,
                 WalReplayResult* result);

/// Convenience: maps the file at `path` and replays it.
Status ReplayWalFile(const std::string& path,
                     const std::function<Status(const WalRecord&)>& apply,
                     WalReplayResult* result);

/// Append handle over one WAL segment. Not thread-safe; the owner
/// (LiveStore) serializes access under its writer mutex.
class WalWriter {
 public:
  /// Opens the segment at `path` for appending, creating it if absent.
  /// An empty file gets the header, fsynced together with its directory
  /// entry, so the segment exists after a crash once Open returns OK. A
  /// file that already holds a header is kept as it is and not fsynced:
  /// the caller is expected to have replayed it, truncated any torn tail
  /// and fsynced what it kept. A file
  /// that is non-empty but shorter than a header is Corruption.
  static Result<WalWriter> Open(const std::string& path);

  WalWriter() = default;

  /// Appends one framed record. Buffered in the OS only; not durable
  /// until Sync().
  Status Append(const WalRecord& record);

  /// fsyncs the segment; after OK every appended record is durable.
  Status Sync();

  uint64_t size() const { return file_.size(); }
  const std::string& path() const { return file_.path(); }

 private:
  util::AppendFile file_;
  std::vector<uint8_t> scratch_;
};

/// Segment file name for sequence number `seq`: "wal-00000042.log".
std::string WalSegmentFileName(uint64_t seq);

/// Parses a segment file name produced by WalSegmentFileName; returns
/// false for any other name.
bool ParseWalSegmentFileName(const std::string& name, uint64_t* seq);

}  // namespace rdftx::storage

#endif  // RDFTX_STORAGE_WAL_H_
