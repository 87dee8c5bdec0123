#include "storage/wal.h"

#include <cstring>
#include <utility>

#include "storage/snapshot_format.h"
#include "util/checksum.h"

namespace rdftx::storage {
namespace {

void EncodePayload(const WalRecord& record, ByteWriter* w) {
  w->U64(record.lsn);
  w->U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kTerm:
      w->U64(record.term_id);
      w->U32(static_cast<uint32_t>(record.term.size()));
      w->Bytes(reinterpret_cast<const uint8_t*>(record.term.data()),
               record.term.size());
      break;
    case WalRecordType::kAssert:
    case WalRecordType::kRetract:
      w->U32(record.time);
      w->U64(record.triple.s);
      w->U64(record.triple.p);
      w->U64(record.triple.o);
      break;
  }
}

/// Decodes one payload into `out`. Any failure means the frame cannot
/// be part of the valid prefix; the caller turns it into a torn tail.
Status DecodePayload(const uint8_t* data, size_t size, WalRecord* out) {
  ByteReader r(data, size, "wal-record");
  RDFTX_RETURN_IF_ERROR(r.U64(&out->lsn));
  uint8_t type = 0;
  RDFTX_RETURN_IF_ERROR(r.U8(&type));
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kTerm): {
      out->type = WalRecordType::kTerm;
      RDFTX_RETURN_IF_ERROR(r.U64(&out->term_id));
      uint32_t len = 0;
      RDFTX_RETURN_IF_ERROR(r.U32(&len));
      const uint8_t* bytes = nullptr;
      RDFTX_RETURN_IF_ERROR(r.Bytes(&bytes, len));
      out->term.assign(reinterpret_cast<const char*>(bytes), len);
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kAssert):
    case static_cast<uint8_t>(WalRecordType::kRetract): {
      out->type = static_cast<WalRecordType>(type);
      RDFTX_RETURN_IF_ERROR(r.U32(&out->time));
      RDFTX_RETURN_IF_ERROR(r.U64(&out->triple.s));
      RDFTX_RETURN_IF_ERROR(r.U64(&out->triple.p));
      RDFTX_RETURN_IF_ERROR(r.U64(&out->triple.o));
      break;
    }
    default:
      return Status::Corruption("unknown wal record type " +
                                std::to_string(type));
  }
  return r.ExpectEnd();
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void EncodeWalHeader(std::vector<uint8_t>* out) {
  ByteWriter w;
  w.Bytes(kWalMagic, sizeof(kWalMagic));
  w.U32(kWalFormatVersion);
  w.U32(0);  // reserved
  auto bytes = w.Take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

void EncodeWalRecord(const WalRecord& record, std::vector<uint8_t>* out) {
  ByteWriter payload;
  EncodePayload(record, &payload);
  const auto& body = payload.buffer();
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(body.size()));
  frame.U64(util::XxHash64(body.data(), body.size(), kChecksumSeed));
  frame.Bytes(body.data(), body.size());
  auto bytes = frame.Take();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

Status ReplayWal(const uint8_t* data, size_t size,
                 const std::function<Status(const WalRecord&)>& apply,
                 WalReplayResult* result) {
  *result = WalReplayResult{};
  if (size < kWalHeaderBytes) {
    // A crash during segment creation can leave a short (even empty)
    // file: recoverable residue, not corruption. torn_tail keeps its
    // invariant — set exactly when bytes past valid_bytes remain.
    result->torn_tail = size > 0;
    return Status::OK();
  }
  if (std::memcmp(data, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption("bad wal magic");
  }
  const uint32_t version = ReadU32(data + 8);
  if (version != kWalFormatVersion) {
    return Status::Corruption("unsupported wal version " +
                              std::to_string(version));
  }
  size_t pos = kWalHeaderBytes;
  result->valid_bytes = pos;
  while (pos < size) {
    if (size - pos < kWalFrameBytes) break;  // torn frame header
    const uint32_t len = ReadU32(data + pos);
    const uint64_t want_hash = ReadU64(data + pos + 4);
    if (len > kWalMaxPayloadBytes) break;            // implausible length
    if (size - pos - kWalFrameBytes < len) break;    // torn payload
    const uint8_t* payload = data + pos + kWalFrameBytes;
    if (util::XxHash64(payload, len, kChecksumSeed) != want_hash) break;
    WalRecord record;
    if (!DecodePayload(payload, len, &record).ok()) break;
    // LSNs are consecutive within a segment; a break in the sequence
    // means these bytes were never a committed suffix of this log.
    if (result->records > 0 && record.lsn != result->last_lsn + 1) break;
    RDFTX_RETURN_IF_ERROR(apply(record));
    result->last_lsn = record.lsn;
    ++result->records;
    pos += kWalFrameBytes + len;
    result->valid_bytes = pos;
  }
  result->torn_tail = result->valid_bytes < size;
  return Status::OK();
}

Status ReplayWalFile(const std::string& path,
                     const std::function<Status(const WalRecord&)>& apply,
                     WalReplayResult* result) {
  auto file = util::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  return ReplayWal(file->data(), file->size(), apply, result);
}

Result<WalWriter> WalWriter::Open(const std::string& path) {
  WalWriter out;
  auto file = util::AppendFile::Open(path);
  if (!file.ok()) return file.status();
  out.file_ = std::move(*file);
  if (out.file_.size() == 0) {
    std::vector<uint8_t> header;
    EncodeWalHeader(&header);
    RDFTX_RETURN_IF_ERROR(out.file_.Append(header.data(), header.size()));
    RDFTX_RETURN_IF_ERROR(out.file_.Sync());
  } else if (out.file_.size() < kWalHeaderBytes) {
    return Status::Corruption("wal segment shorter than header: " + path);
  }
  return out;
}

Status WalWriter::Append(const WalRecord& record) {
  scratch_.clear();
  EncodeWalRecord(record, &scratch_);
  return file_.Append(scratch_.data(), scratch_.size());
}

Status WalWriter::Sync() { return file_.Sync(); }

std::string WalSegmentFileName(uint64_t seq) {
  std::string digits = std::to_string(seq);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return "wal-" + digits + ".log";
}

bool ParseWalSegmentFileName(const std::string& name, uint64_t* seq) {
  // "wal-" + at least 8 digits + ".log"
  if (name.size() < 16) return false;
  if (name.compare(0, 4, "wal-") != 0) return false;
  if (name.compare(name.size() - 4, 4, ".log") != 0) return false;
  uint64_t value = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

}  // namespace rdftx::storage
