#include "mvbt/leaf_block.h"

#include <cassert>

#include "util/varint.h"

namespace rdftx::mvbt {
namespace {

// Normal header (2 bytes):
//   bit 15    : H flag = 0
//   bits 14-13: te rule (0 short-interval length, 1 delta vs base, 2 live)
//   bits 12-10: byte-width code of v1 delta (code 7 => 8 bytes)
//   bits  9-7 : width code of v2 delta
//   bits  6-4 : width code of v3 delta
//   bit   3   : v1 delta source (0 neighbour, 1 block base)
//   bit   2   : v2 delta source
//   bit   1   : v3 delta source
//
// Compact header (1 byte), usable when the entry shares v1 with its
// neighbour and is live (te = now):
//   bit 7     : H flag = 1
//   bits 6-4  : width code of v2 delta (vs neighbour)
//   bits 3-1  : width code of v3 delta (vs neighbour)
//
// For entry 0 the neighbour and base references are all-zero, i.e. the
// first entry is stored with absolute values.
constexpr unsigned kTeShort = 0;
constexpr unsigned kTeDelta = 1;
constexpr unsigned kTeLive = 2;

unsigned WidthCode(uint64_t v) {
  unsigned w = ByteWidth(v);
  return w >= 7 ? 7u : w;
}

unsigned CodeBytes(unsigned code) { return code == 7 ? 8u : code; }

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    ++n;
    v >>= 7;
  }
  return n;
}

struct KeyDelta {
  uint64_t zz = 0;     // zigzag-encoded delta
  unsigned code = 0;   // width code
  bool from_base = false;
};

KeyDelta PickDelta(uint64_t value, uint64_t neighbor, uint64_t base) {
  uint64_t zn = ZigZagEncode(static_cast<int64_t>(value - neighbor));
  uint64_t zb = ZigZagEncode(static_cast<int64_t>(value - base));
  KeyDelta d;
  if (ByteWidth(zn) <= ByteWidth(zb)) {
    d.zz = zn;
    d.from_base = false;
  } else {
    d.zz = zb;
    d.from_base = true;
  }
  d.code = WidthCode(d.zz);
  return d;
}

// Encodes one entry against explicit references and appends its bytes to
// `out`. The encoding depends only on (e, prev, base, ref_te, first) —
// the property CloseAt's byte splice relies on: re-encoding entry i
// with a new end version leaves every later entry's bytes unchanged,
// because their key/start deltas reference entry i's key and start (not
// its end) and their te deltas reference entry 0's ref_te.
void EncodeEntryBytes(const Entry& e, const Entry& prev, const Entry& base,
                      Chronon ref_te, bool first, std::vector<uint8_t>* out,
                      CompressionStats* stats) {
  const bool compact_ok = !first && e.key.a == prev.key.a && e.live();
  if (compact_ok) {
    uint64_t z2 = ZigZagEncode(static_cast<int64_t>(e.key.b - prev.key.b));
    uint64_t z3 = ZigZagEncode(static_cast<int64_t>(e.key.c - prev.key.c));
    unsigned c2 = WidthCode(z2), c3 = WidthCode(z3);
    uint8_t header = 0x80 | static_cast<uint8_t>(c2 << 4) |
                     static_cast<uint8_t>(c3 << 1);
    out->push_back(header);
    PutFixed(out, z2, CodeBytes(c2));
    PutFixed(out, z3, CodeBytes(c3));
    PutVarint(out, e.start - prev.start);
    if (stats != nullptr) {
      ++stats->compact_headers;
      ++stats->te_live;
    }
    return;
  }
  KeyDelta d1 = PickDelta(e.key.a, prev.key.a, base.key.a);
  KeyDelta d2 = PickDelta(e.key.b, prev.key.b, base.key.b);
  KeyDelta d3 = PickDelta(e.key.c, prev.key.c, base.key.c);
  unsigned te_flag;
  uint64_t te_payload = 0;
  if (e.live()) {
    te_flag = kTeLive;
  } else {
    uint64_t len = e.end - e.start;
    uint64_t zd = ZigZagEncode(static_cast<int64_t>(e.end) -
                               static_cast<int64_t>(ref_te));
    if (VarintLen(len) <= VarintLen(zd)) {
      te_flag = kTeShort;
      te_payload = len;
    } else {
      te_flag = kTeDelta;
      te_payload = zd;
    }
  }
  uint16_t header = 0;
  header |= static_cast<uint16_t>(te_flag) << 13;
  header |= static_cast<uint16_t>(d1.code) << 10;
  header |= static_cast<uint16_t>(d2.code) << 7;
  header |= static_cast<uint16_t>(d3.code) << 4;
  if (d1.from_base) header |= 1u << 3;
  if (d2.from_base) header |= 1u << 2;
  if (d3.from_base) header |= 1u << 1;
  // High byte first: its top bit is the H flag (0 = normal), so the
  // decoder can discriminate normal from compact headers on byte one.
  out->push_back(static_cast<uint8_t>(header >> 8));
  out->push_back(static_cast<uint8_t>(header & 0xFF));
  PutFixed(out, d1.zz, CodeBytes(d1.code));
  PutFixed(out, d2.zz, CodeBytes(d2.code));
  PutFixed(out, d3.zz, CodeBytes(d3.code));
  PutVarint(out, e.start - prev.start);
  if (te_flag != kTeLive) PutVarint(out, te_payload);
  if (stats != nullptr) {
    ++stats->normal_headers;
    if (te_flag == kTeLive) {
      ++stats->te_live;
    } else if (te_flag == kTeShort) {
      ++stats->te_short;
    } else {
      ++stats->te_delta;
    }
  }
}

}  // namespace

void LeafBlock::Append(const Entry& e) {
  if (!compressed_) {
    assert(plain_.empty() || e.start >= plain_.back().start);
    plain_.push_back(e);
    ++count_;
    return;
  }
  assert(!checkpoint_.valid || e.start >= checkpoint_.last.start);
  AppendEncoded(e, nullptr);
  ++count_;
}

// Reference end-version for the te-delta rule: the block base entry's end,
// or its start when the base entry is live; zero for entry 0.
Chronon LeafBlock::RefTe() const {
  if (!checkpoint_.valid) return 0;  // encoding entry 0
  return base_.end == kChrononNow ? base_.start : base_.end;
}

void LeafBlock::AppendEncoded(const Entry& e, CompressionStats* stats) {
  // Entry 0: references are all-zero (absolute encoding); it also becomes
  // the block base for subsequent entries.
  const bool first = !checkpoint_.valid;
  const Entry prev = first ? Entry{Key3{}, 0, 0} : checkpoint_.last;
  const Entry base = first ? Entry{Key3{}, 0, 0} : base_;
  EncodeEntryBytes(e, prev, base, RefTe(), first, &bytes_, stats);
  if (first) base_ = e;
  checkpoint_.last = e;
  checkpoint_.valid = true;
}

void LeafBlock::ReencodeAll(const std::vector<Entry>& entries) {
  bytes_.clear();
  checkpoint_ = Checkpoint{};
  for (const Entry& e : entries) AppendEncoded(e, nullptr);
}

void LeafBlock::DecodeInto(std::vector<Entry>* out) const {
  out->clear();
  out->reserve(count_);
  Cursor cur(*this);
  Entry e;
  while (cur.Next(&e)) out->push_back(e);
  assert(cur.byte_pos() == bytes_.size());
}

void LeafBlock::CloseAt(const Slot& slot, Chronon te) {
  const size_t i = slot.index;
  assert(i < count_);
  if (!compressed_) {
    assert(plain_[i].live());
    plain_[i].end = te;
    return;
  }
  if (i == 0) {
    // Entry 0 is the block base: its end version is the te-delta reference
    // of every later entry, so closing it re-encodes the whole block.
    std::vector<Entry> entries;
    DecodeInto(&entries);
    entries[0].end = te;
    ReencodeAll(entries);
    return;
  }
  assert(slot.entry.live());
  // Splice: only entry i's bytes change (see EncodeEntryBytes), so the
  // suffix after it is reused verbatim.
  Entry closed = slot.entry;
  closed.end = te;
  std::vector<uint8_t> enc;
  EncodeEntryBytes(closed, slot.prev, base_, RefTe(), /*first=*/false, &enc,
                   nullptr);
  std::vector<uint8_t> nb;
  nb.reserve(bytes_.size() - (slot.end - slot.begin) + enc.size());
  nb.insert(nb.end(), bytes_.begin(),
            bytes_.begin() + static_cast<ptrdiff_t>(slot.begin));
  nb.insert(nb.end(), enc.begin(), enc.end());
  nb.insert(nb.end(), bytes_.begin() + static_cast<ptrdiff_t>(slot.end),
            bytes_.end());
  bytes_ = std::move(nb);
  if (i == count_ - 1) checkpoint_.last = closed;
}

void LeafBlock::CapLiveEntries(Chronon t, std::vector<Key3>* extracted) {
  if (!compressed_) {
    for (Entry& e : plain_) {
      if (e.live()) {
        extracted->push_back(e.key);
        e.end = t;
      }
    }
    plain_.shrink_to_fit();  // capped blocks belong to dying nodes
    return;
  }
  std::vector<Entry> entries;
  DecodeInto(&entries);
  bool changed = false;
  for (Entry& e : entries) {
    if (e.live()) {
      extracted->push_back(e.key);
      e.end = t;
      changed = true;
    }
  }
  if (!changed) return;
  ReencodeAll(entries);
}

void LeafBlock::PurgeEmptyEntries() {
  std::vector<Entry> entries = Decode();
  std::erase_if(entries, [](const Entry& e) { return e.start == e.end; });
  count_ = entries.size();
  if (!compressed_) {
    plain_ = std::move(entries);
    return;
  }
  ReencodeAll(entries);
}

std::vector<Entry> LeafBlock::Decode() const {
  if (!compressed_) return plain_;
  std::vector<Entry> entries;
  DecodeInto(&entries);
  return entries;
}

void LeafBlock::DecodeColumnar(ColumnarEntries* out) const {
  out->Reserve(out->size() + count_);
  VisitWith([out](const Entry& e) {
    out->PushBack(e);
    return true;
  });
}

Status LeafBlock::CheckStream(const uint8_t* bytes, size_t size, size_t count,
                              std::vector<Entry>* out) {
  size_t pos = 0;
  Entry prev{Key3{}, 0, 0};
  Entry base{Key3{}, 0, 0};
  Chronon ref_te = 0;
  // Bounded LEB128 decode; false on truncation or an unterminated
  // 64-bit run (which the unchecked Cursor would mis-decode).
  auto get_varint = [&](uint64_t* v) -> bool {
    *v = 0;
    unsigned shift = 0;
    while (shift < 64) {
      if (pos >= size) return false;
      const uint8_t b = bytes[pos];
      ++pos;
      *v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  };
  for (size_t i = 0; i < count; ++i) {
    if (pos >= size) {
      return Status::Corruption("leaf stream truncated at entry " +
                                std::to_string(i));
    }
    Entry e;
    const uint8_t first_byte = bytes[pos];
    if (first_byte & 0x80) {
      ++pos;
      const unsigned c2 = (first_byte >> 4) & 0x7;
      const unsigned c3 = (first_byte >> 1) & 0x7;
      if (size - pos < CodeBytes(c2) + CodeBytes(c3)) {
        return Status::Corruption("leaf stream truncated in compact key");
      }
      const uint64_t z2 = GetFixed(bytes + pos, CodeBytes(c2));
      pos += CodeBytes(c2);
      const uint64_t z3 = GetFixed(bytes + pos, CodeBytes(c3));
      pos += CodeBytes(c3);
      e.key.a = prev.key.a;
      e.key.b = prev.key.b + static_cast<uint64_t>(ZigZagDecode(z2));
      e.key.c = prev.key.c + static_cast<uint64_t>(ZigZagDecode(z3));
      uint64_t ds = 0;
      if (!get_varint(&ds)) {
        return Status::Corruption("leaf stream truncated in compact ts");
      }
      // Bound the delta before adding: an unbounded varint could wrap
      // the 64-bit sum back into the valid domain and smuggle a bogus
      // start past the range check below (found by fuzzing in PR 2's
      // bug class; rdftx-analyzer's decode-overflow check enforces the
      // guard-before-arithmetic order).
      if (ds > kChrononMax) {
        return Status::Corruption("leaf entry start delta out of range");
      }
      const uint64_t start = static_cast<uint64_t>(prev.start) + ds;
      if (start > kChrononMax) {
        return Status::Corruption("leaf entry start outside temporal domain");
      }
      e.start = static_cast<Chronon>(start);
      e.end = kChrononNow;
    } else {
      if (size - pos < 2) {
        return Status::Corruption("leaf stream truncated in header");
      }
      const uint16_t header = (static_cast<uint16_t>(bytes[pos]) << 8) |
                              static_cast<uint16_t>(bytes[pos + 1]);
      pos += 2;
      const unsigned te_flag = (header >> 13) & 0x3;
      if (te_flag > kTeLive) {
        return Status::Corruption("leaf entry has invalid te rule");
      }
      const unsigned c1 = (header >> 10) & 0x7;
      const unsigned c2 = (header >> 7) & 0x7;
      const unsigned c3 = (header >> 4) & 0x7;
      if (size - pos < CodeBytes(c1) + CodeBytes(c2) + CodeBytes(c3)) {
        return Status::Corruption("leaf stream truncated in key deltas");
      }
      const uint64_t z1 = GetFixed(bytes + pos, CodeBytes(c1));
      pos += CodeBytes(c1);
      const uint64_t z2 = GetFixed(bytes + pos, CodeBytes(c2));
      pos += CodeBytes(c2);
      const uint64_t z3 = GetFixed(bytes + pos, CodeBytes(c3));
      pos += CodeBytes(c3);
      e.key.a = ((header & (1u << 3)) ? base.key.a : prev.key.a) +
                static_cast<uint64_t>(ZigZagDecode(z1));
      e.key.b = ((header & (1u << 2)) ? base.key.b : prev.key.b) +
                static_cast<uint64_t>(ZigZagDecode(z2));
      e.key.c = ((header & (1u << 1)) ? base.key.c : prev.key.c) +
                static_cast<uint64_t>(ZigZagDecode(z3));
      uint64_t ds = 0;
      if (!get_varint(&ds)) {
        return Status::Corruption("leaf stream truncated in ts");
      }
      // Guard before the add, as in the compact path above: the sum
      // must not be able to wrap past the bounds check.
      if (ds > kChrononMax) {
        return Status::Corruption("leaf entry start delta out of range");
      }
      const uint64_t start = static_cast<uint64_t>(prev.start) + ds;
      if (start > kChrononMax) {
        return Status::Corruption("leaf entry start outside temporal domain");
      }
      e.start = static_cast<Chronon>(start);
      if (te_flag == kTeLive) {
        e.end = kChrononNow;
      } else if (te_flag == kTeShort) {
        uint64_t len = 0;
        if (!get_varint(&len)) {
          return Status::Corruption("leaf stream truncated in te length");
        }
        // `start + len` with an unbounded length wraps mod 2^64 and can
        // land back inside [0, kChrononNow] — reject oversized lengths
        // before the arithmetic, not after.
        if (len > kChrononNow) {
          return Status::Corruption("leaf entry te length out of range");
        }
        const uint64_t end = start + len;
        if (end > kChrononNow) {
          return Status::Corruption("leaf entry end outside temporal domain");
        }
        e.end = static_cast<Chronon>(end);
      } else {
        uint64_t zd = 0;
        if (!get_varint(&zd)) {
          return Status::Corruption("leaf stream truncated in te delta");
        }
        // The zigzag delta is a full-range int64; adding it to ref_te
        // unchecked is signed-overflow UB. Bound it to the temporal
        // domain first (any wider delta is corrupt anyway).
        const int64_t d = ZigZagDecode(zd);
        if (d < -static_cast<int64_t>(kChrononNow) ||
            d > static_cast<int64_t>(kChrononNow)) {
          return Status::Corruption("leaf entry te delta out of range");
        }
        const int64_t end = static_cast<int64_t>(ref_te) + d;
        if (end < 0 || end > static_cast<int64_t>(kChrononNow)) {
          return Status::Corruption("leaf entry end outside temporal domain");
        }
        if (end < static_cast<int64_t>(start)) {
          return Status::Corruption("leaf entry interval inverted");
        }
        e.end = static_cast<Chronon>(end);
      }
    }
    if (i == 0) {
      base = e;
      ref_te = base.end == kChrononNow ? base.start : base.end;
    }
    prev = e;
    if (out != nullptr) out->push_back(e);
  }
  if (pos != size) {
    return Status::Corruption("leaf stream has trailing bytes");
  }
  return Status::OK();
}

Result<LeafBlock> LeafBlock::FromCompressedBytes(std::vector<uint8_t> bytes,
                                                 size_t count) {
  // Every encoded entry consumes at least one byte, so a count larger
  // than the stream is corrupt; checking first keeps the reserve below
  // from turning a hostile count into a giant allocation.
  if (count > bytes.size()) {
    return Status::Corruption("leaf entry count exceeds stream size");
  }
  std::vector<Entry> entries;
  entries.reserve(count);
  Status st = CheckStream(bytes.data(), bytes.size(), count, &entries);
  if (!st.ok()) return st;
  LeafBlock b;
  b.compressed_ = true;
  b.count_ = count;
  b.bytes_ = std::move(bytes);
  if (!entries.empty()) {
    b.base_ = entries.front();
    b.checkpoint_.last = entries.back();
    b.checkpoint_.valid = true;
  }
  return b;
}

Result<LeafBlock> LeafBlock::FromEntries(std::vector<Entry> entries) {
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].start > kChrononMax) {
      return Status::Corruption("plain entry start outside temporal domain");
    }
    if (i > 0 && entries[i].start < entries[i - 1].start) {
      return Status::Corruption("plain entries not start-ordered");
    }
  }
  LeafBlock b;
  b.count_ = entries.size();
  b.checkpoint_.valid = !entries.empty();
  if (b.checkpoint_.valid) b.checkpoint_.last = entries.back();
  b.plain_ = std::move(entries);
  return b;
}

void LeafBlock::Compress(CompressionStats* stats) {
  if (compressed_) return;
  std::vector<Entry> entries = std::move(plain_);
  plain_.clear();
  plain_.shrink_to_fit();
  compressed_ = true;
  bytes_.clear();
  checkpoint_ = Checkpoint{};
  for (const Entry& e : entries) AppendEncoded(e, stats);
  bytes_.shrink_to_fit();
}

void LeafBlock::Decompress() {
  if (!compressed_) return;
  std::vector<Entry> entries;
  DecodeInto(&entries);
  compressed_ = false;
  plain_ = std::move(entries);
  bytes_.clear();
  bytes_.shrink_to_fit();
  checkpoint_.valid = !plain_.empty();
  if (checkpoint_.valid) checkpoint_.last = plain_.back();
}

size_t LeafBlock::MemoryUsage() const {
  if (compressed_) {
    return bytes_.capacity() + sizeof(base_) + sizeof(checkpoint_);
  }
  return plain_.capacity() * sizeof(Entry);
}

}  // namespace rdftx::mvbt
