// WAL format tests: record encode/replay round-trips, torn-tail
// detection on every prefix truncation, corruption (bit-flip) handling,
// LSN continuity, header validation, WalWriter::Open on empty, resumed
// and short segments, and the segment file naming.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace rdftx {
namespace {

using storage::EncodeWalHeader;
using storage::EncodeWalRecord;
using storage::ReplayWal;
using storage::WalRecord;
using storage::WalRecordType;
using storage::WalReplayResult;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A deterministic little log: a couple of term records and a run of
/// assert/retract deltas with consecutive LSNs starting at `first_lsn`.
std::vector<WalRecord> SampleRecords(uint64_t first_lsn, size_t deltas) {
  std::vector<WalRecord> recs;
  uint64_t lsn = first_lsn;
  recs.push_back(WalRecord::Term(lsn++, 1, "subject"));
  recs.push_back(WalRecord::Term(lsn++, 2, "predicate"));
  recs.push_back(WalRecord::Term(lsn++, 3, ""));  // empty term is legal
  for (size_t i = 0; i < deltas; ++i) {
    const Triple t{1 + i % 3, 2, 3};
    recs.push_back(WalRecord::Delta(lsn++, i % 2 == 0, t,
                                    static_cast<Chronon>(10 + i)));
  }
  return recs;
}

std::vector<uint8_t> EncodeLog(const std::vector<WalRecord>& recs) {
  std::vector<uint8_t> bytes;
  EncodeWalHeader(&bytes);
  for (const WalRecord& r : recs) EncodeWalRecord(r, &bytes);
  return bytes;
}

Status CollectReplay(const std::vector<uint8_t>& bytes,
                     std::vector<WalRecord>* out, WalReplayResult* result) {
  return ReplayWal(bytes.data(), bytes.size(),
                   [&](const WalRecord& r) {
                     out->push_back(r);
                     return Status::OK();
                   },
                   result);
}

void ExpectRecordsEqual(const WalRecord& want, const WalRecord& got) {
  EXPECT_EQ(want.lsn, got.lsn);
  EXPECT_EQ(want.type, got.type);
  EXPECT_EQ(want.triple, got.triple);
  EXPECT_EQ(want.time, got.time);
  EXPECT_EQ(want.term_id, got.term_id);
  EXPECT_EQ(want.term, got.term);
}

TEST(WalFormatTest, RoundTripsRecords) {
  const auto recs = SampleRecords(7, 20);
  const auto bytes = EncodeLog(recs);

  std::vector<WalRecord> replayed;
  WalReplayResult result;
  ASSERT_TRUE(CollectReplay(bytes, &replayed, &result).ok());
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  EXPECT_EQ(result.records, recs.size());
  EXPECT_EQ(result.last_lsn, recs.back().lsn);
  ASSERT_EQ(replayed.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    ExpectRecordsEqual(recs[i], replayed[i]);
  }
}

TEST(WalFormatTest, EmptyLogIsJustAHeader) {
  std::vector<uint8_t> bytes;
  EncodeWalHeader(&bytes);
  std::vector<WalRecord> replayed;
  WalReplayResult result;
  ASSERT_TRUE(CollectReplay(bytes, &replayed, &result).ok());
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.valid_bytes, bytes.size());
}

// The core torn-tail property: for EVERY prefix length of a valid log,
// replay must succeed and reproduce exactly the records whose frames
// fit completely in the prefix — never a partial record, never a crash.
TEST(WalFormatTest, EveryPrefixReplaysToAConsistentPrefix) {
  const auto recs = SampleRecords(1, 12);
  const auto bytes = EncodeLog(recs);

  // Frame boundaries: offsets at which a record ends.
  std::vector<size_t> boundaries;
  {
    std::vector<uint8_t> acc;
    EncodeWalHeader(&acc);
    boundaries.push_back(acc.size());
    for (const WalRecord& r : recs) {
      EncodeWalRecord(r, &acc);
      boundaries.push_back(acc.size());
    }
  }

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    std::vector<WalRecord> replayed;
    WalReplayResult result;
    ASSERT_TRUE(CollectReplay(prefix, &replayed, &result).ok())
        << "prefix of " << cut << " bytes";
    // Records fully contained in the prefix.
    size_t want = 0;
    while (want + 1 < boundaries.size() && boundaries[want + 1] <= cut) {
      ++want;
    }
    if (cut < boundaries.front()) {
      // Header itself truncated: zero records, torn unless empty.
      EXPECT_EQ(replayed.size(), 0u) << "cut=" << cut;
      EXPECT_EQ(result.torn_tail, cut > 0) << "cut=" << cut;
      continue;
    }
    EXPECT_EQ(replayed.size(), want) << "cut=" << cut;
    EXPECT_EQ(result.valid_bytes, boundaries[want]) << "cut=" << cut;
    EXPECT_EQ(result.torn_tail, cut != boundaries[want]) << "cut=" << cut;
    if (want > 0) {
      EXPECT_EQ(result.last_lsn, recs[want - 1].lsn);
    }
  }
}

// Flipping any single byte of the log must never crash replay, and a
// flip inside a record's frame or payload must cut the replayed history
// at or before that record (checksums catch payload damage; length /
// LSN validation catches frame damage).
TEST(WalFormatTest, SingleByteFlipsNeverCrashAndNeverCorruptEarlierRecords) {
  const auto recs = SampleRecords(1, 6);
  const auto bytes = EncodeLog(recs);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] ^= 0x5A;
    std::vector<WalRecord> replayed;
    WalReplayResult result;
    const Status st = CollectReplay(mutated, &replayed, &result);
    if (i < 12) {
      // Magic/version damage is Corruption — never OK-with-records.
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << "flip at " << i;
      continue;
    }
    if (i < storage::kWalHeaderBytes) {
      // The reserved header bytes are not interpreted.
      ASSERT_TRUE(st.ok()) << "flip at " << i;
      EXPECT_EQ(result.records, recs.size()) << "flip at " << i;
      continue;
    }
    ASSERT_TRUE(st.ok()) << "flip at " << i << ": " << st.ToString();
    // Every record replayed before the stop must be byte-identical to
    // an original record (the flip cannot alter record content without
    // failing its checksum).
    ASSERT_LE(replayed.size(), recs.size()) << "flip at " << i;
    for (size_t k = 0; k < replayed.size(); ++k) {
      ExpectRecordsEqual(recs[k], replayed[k]);
    }
  }
}

TEST(WalFormatTest, LsnGapCutsReplay) {
  std::vector<WalRecord> recs = SampleRecords(1, 4);
  recs[5].lsn = 99;  // break continuity mid-log
  const auto bytes = EncodeLog(recs);
  std::vector<WalRecord> replayed;
  WalReplayResult result;
  ASSERT_TRUE(CollectReplay(bytes, &replayed, &result).ok());
  EXPECT_EQ(replayed.size(), 5u);
  EXPECT_TRUE(result.torn_tail);
}

TEST(WalFormatTest, BadMagicAndVersionAreCorruption) {
  auto bytes = EncodeLog(SampleRecords(1, 1));
  {
    auto bad = bytes;
    bad[0] = 'X';
    WalReplayResult result;
    std::vector<WalRecord> replayed;
    EXPECT_EQ(CollectReplay(bad, &replayed, &result).code(),
              StatusCode::kCorruption);
  }
  {
    auto bad = bytes;
    bad[8] = 0xFF;  // version
    WalReplayResult result;
    std::vector<WalRecord> replayed;
    EXPECT_EQ(CollectReplay(bad, &replayed, &result).code(),
              StatusCode::kCorruption);
  }
}

TEST(WalFormatTest, ApplyErrorAbortsReplay) {
  const auto bytes = EncodeLog(SampleRecords(1, 5));
  WalReplayResult result;
  size_t seen = 0;
  const Status st = ReplayWal(
      bytes.data(), bytes.size(),
      [&](const WalRecord&) {
        if (++seen == 3) return Status::InvalidArgument("boom");
        return Status::OK();
      },
      &result);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(result.records, 2u);
}

TEST(WalWriterTest, OpenWritesHeaderIntoEmptyFile) {
  std::vector<uint8_t> header;
  EncodeWalHeader(&header);
  const std::string path = TempPath("rdftx_wal_writer_open_empty.log");
  for (const bool pre_create : {false, true}) {
    std::filesystem::remove(path);
    if (pre_create) std::ofstream(path, std::ios::binary).close();
    {
      auto writer = storage::WalWriter::Open(path);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      EXPECT_EQ(writer->size(), storage::kWalHeaderBytes);
    }
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(util::ReadFile(path, &bytes).ok());
    EXPECT_EQ(bytes, header) << "pre_create=" << pre_create;
  }
  std::filesystem::remove(path);
}

TEST(WalWriterTest, WritesReplayableSegments) {
  const std::string path = TempPath("rdftx_wal_writer_test.log");
  std::filesystem::remove(path);
  const auto recs = SampleRecords(11, 8);
  uint64_t size_before_reopen = 0;
  {
    auto writer = storage::WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& r : recs) {
      ASSERT_TRUE(writer->Append(r).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
    size_before_reopen = writer->size();
  }
  // Reopening keeps the records (no second header) and appends after
  // them.
  {
    auto writer = storage::WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer->size(), size_before_reopen);
    ASSERT_TRUE(
        writer->Append(WalRecord::Delta(recs.back().lsn + 1, true,
                                        Triple{9, 9, 9}, 500))
            .ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  std::vector<WalRecord> replayed;
  WalReplayResult result;
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(util::ReadFile(path, &bytes).ok());
  ASSERT_TRUE(CollectReplay(bytes, &replayed, &result).ok());
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(replayed.size(), recs.size() + 1);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(replayed[i].lsn, recs[i].lsn);
    EXPECT_EQ(replayed[i].type, recs[i].type);
    EXPECT_EQ(replayed[i].term, recs[i].term);
    EXPECT_EQ(replayed[i].triple, recs[i].triple);
  }
  EXPECT_EQ(replayed.back().triple, (Triple{9, 9, 9}));
  EXPECT_EQ(result.last_lsn, recs.back().lsn + 1);
  std::filesystem::remove(path);
}

TEST(WalWriterTest, OpenRejectsFileShorterThanHeader) {
  std::vector<uint8_t> header;
  EncodeWalHeader(&header);
  const std::string path = TempPath("rdftx_wal_writer_open_short.log");
  for (size_t len = 1; len < storage::kWalHeaderBytes; ++len) {
    ASSERT_TRUE(util::WriteFileAtomic(path, header.data(), len).ok());
    auto writer = storage::WalWriter::Open(path);
    ASSERT_FALSE(writer.ok()) << "len=" << len;
    EXPECT_EQ(writer.status().code(), StatusCode::kCorruption);
    // The short file is left as it was.
    EXPECT_EQ(std::filesystem::file_size(path), len);
  }
  std::filesystem::remove(path);
}

TEST(WalSegmentNameTest, RoundTripsAndRejectsJunk) {
  for (uint64_t seq : {uint64_t{1}, uint64_t{42}, uint64_t{99999999},
                       uint64_t{123456789}}) {
    const std::string name = storage::WalSegmentFileName(seq);
    uint64_t parsed = 0;
    EXPECT_TRUE(storage::ParseWalSegmentFileName(name, &parsed)) << name;
    EXPECT_EQ(parsed, seq);
  }
  uint64_t seq = 0;
  EXPECT_FALSE(storage::ParseWalSegmentFileName("wal-0000001.log", &seq));
  EXPECT_FALSE(storage::ParseWalSegmentFileName("wal-0000000x.log", &seq));
  EXPECT_FALSE(storage::ParseWalSegmentFileName("snapshot.rtxsnap", &seq));
  EXPECT_FALSE(storage::ParseWalSegmentFileName("wal-00000001.LOG", &seq));
}

}  // namespace
}  // namespace rdftx
