// Leaf entry storage for the MVBT, in two interchangeable representations:
//
//  * Plain: a vector of fixed-size entries (the "standard MVBT" of §7.2).
//  * Compressed: the paper's delta encoding (§4.2.1) — per-entry headers
//    (2-byte normal / 1-byte compact), key-block deltas computed against
//    either the neighbouring entry or the block base values, and a 2-bit
//    te rule (short-interval length / delta vs block base / live).
//
// Entries are appended in nondecreasing start-version order, which the
// MVBT guarantees (transaction-time updates). A checkpoint — the byte
// offset and decoded values of the last entry — lets appends run without
// rescanning the block (§4.2.2). The block never searches by key: the
// MVBT's live-leaf directory picks the candidate slots of a live key, and
// a SlotWalk decodes forward through them once. Closing the slot the walk
// confirmed (deletion) splices its re-encoded bytes in place with no
// further decoding; only a close of the block base (entry 0) re-encodes
// the whole block, because the base's end version is the te-delta
// reference of every later entry.
//
// Visitation is devirtualized: VisitWith() is a template that decodes
// the compressed stream entry-by-entry through an inline Cursor, so scan
// callers pay no per-entry std::function dispatch and early exits stop
// decoding immediately instead of materializing the block first.
#ifndef RDFTX_MVBT_LEAF_BLOCK_H_
#define RDFTX_MVBT_LEAF_BLOCK_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "mvbt/key.h"
#include "temporal/interval.h"
#include "util/date.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/varint.h"

namespace rdftx::mvbt {

/// One temporal record: key valid over [start, end).
struct Entry {
  Key3 key;
  Chronon start = 0;
  Chronon end = kChrononNow;

  bool live() const { return end == kChrononNow; }
  // start <= end is an Entry invariant: the encoder only emits closed
  // entries with end >= start, and CheckStream rejects inverted ones.
  // rdftx-analyzer: allow(interval-soundness)
  Interval interval() const { return Interval(start, end); }
  bool operator==(const Entry&) const = default;
};

/// Column-major image of a block's entries: one array per Key3
/// component plus parallel start/end version arrays, all index-aligned.
/// This is what the vectorized scan filters with util/simd.h masks and
/// what the decoded-leaf cache stores, so repeated scans of a hot leaf
/// stream straight out of columns with no per-entry reconstruction.
struct ColumnarEntries {
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  std::vector<uint64_t> c;
  std::vector<Chronon> start;
  std::vector<Chronon> end;

  size_t size() const { return a.size(); }
  bool empty() const { return a.empty(); }

  void Clear() {
    a.clear();
    b.clear();
    c.clear();
    start.clear();
    end.clear();
  }

  void Reserve(size_t n) {
    a.reserve(n);
    b.reserve(n);
    c.reserve(n);
    start.reserve(n);
    end.reserve(n);
  }

  void PushBack(const Entry& e) {
    a.push_back(e.key.a);
    b.push_back(e.key.b);
    c.push_back(e.key.c);
    start.push_back(e.start);
    end.push_back(e.end);
  }

  /// Row i reassembled; for boundary code, not the filter hot path.
  Entry At(size_t i) const {
    return Entry{Key3{a[i], b[i], c[i]}, start[i], end[i]};
  }

  /// True heap footprint (capacity, not size — vectors over-allocate),
  /// the quantity the decoded-leaf LRU charges per cached leaf.
  size_t MemoryBytes() const {
    return (a.capacity() + b.capacity() + c.capacity()) * sizeof(uint64_t) +
           (start.capacity() + end.capacity()) * sizeof(Chronon);
  }
};

/// Statistics about a compressed block's encoding decisions, used by the
/// compression ablation bench.
struct CompressionStats {
  uint64_t compact_headers = 0;
  uint64_t normal_headers = 0;
  uint64_t te_short = 0;
  uint64_t te_delta = 0;
  uint64_t te_live = 0;
};

/// Entry storage of a single MVBT leaf.
class LeafBlock {
 public:
  LeafBlock() = default;

  bool compressed() const { return compressed_; }
  size_t count() const { return count_; }

  /// Appends an entry; `e.start` must be >= the last appended start.
  void Append(const Entry& e);

  class SlotWalk;

  /// A slot reached by a SlotWalk: its index and entry, plus what a close
  /// needs to splice it — the byte range of its encoding and the entry
  /// before it (its delta reference). Valid until the block changes.
  struct Slot {
    size_t index = 0;
    Entry entry;
    Entry prev{Key3{}, 0, 0};
    size_t begin = 0;
    size_t end = 0;
  };

  /// Sets the end version of the live entry at `slot` to `te`. `slot`
  /// must come from a SlotWalk over this block with no change since. On
  /// compressed blocks slot's re-encoded bytes are spliced into the
  /// stream; closing slot 0 re-encodes the whole block.
  void CloseAt(const Slot& slot, Chronon te);

  /// Version-split support: caps every live entry at `t` in this block and
  /// appends the capped entries' keys to `extracted`. Single pass.
  void CapLiveEntries(Chronon t, std::vector<Key3>* extracted);

  /// Drops entries with empty intervals (start == end); used by the
  /// same-version in-place reorganization.
  void PurgeEmptyEntries();

  /// Streaming decoder over the compressed byte stream. Decodes one
  /// entry per Next() with no allocation, so early exits never pay for
  /// the rest of the block. Only meaningful while the block is not
  /// mutated (blocks are externally synchronized; dead leaves are
  /// immutable).
  class Cursor {
   public:
    explicit Cursor(const LeafBlock& block)
        : bytes_(block.bytes_.data()), count_(block.count_) {}

    /// Decodes the next entry; false when the block is exhausted.
    // TRUSTED_DECODE: every byte stream a Cursor walks was validated by
    // CheckStream at build/restore time (bounded deltas, in-domain
    // chronons), so the unchecked delta arithmetic here cannot receive
    // hostile values; re-guarding it would tax the scan hot path.
    bool Next(Entry* e) TRUSTED_DECODE {
      if (i_ >= count_) return false;
      const uint8_t first_byte = bytes_[pos_];
      if (first_byte & 0x80) {
        // Compact header: shares the first key component with its
        // neighbour and is live.
        ++pos_;
        const unsigned c2 = (first_byte >> 4) & 0x7;
        const unsigned c3 = (first_byte >> 1) & 0x7;
        const uint64_t z2 = GetFixed(bytes_ + pos_, CodeBytes(c2));
        pos_ += CodeBytes(c2);
        const uint64_t z3 = GetFixed(bytes_ + pos_, CodeBytes(c3));
        pos_ += CodeBytes(c3);
        e->key.a = prev_.key.a;
        e->key.b = prev_.key.b + static_cast<uint64_t>(ZigZagDecode(z2));
        e->key.c = prev_.key.c + static_cast<uint64_t>(ZigZagDecode(z3));
        e->start = prev_.start + static_cast<Chronon>(GetVarint(bytes_, &pos_));
        e->end = kChrononNow;
      } else {
        const uint16_t header = (static_cast<uint16_t>(bytes_[pos_]) << 8) |
                                static_cast<uint16_t>(bytes_[pos_ + 1]);
        pos_ += 2;
        const unsigned te_flag = (header >> 13) & 0x3;
        const unsigned c1 = (header >> 10) & 0x7;
        const unsigned c2 = (header >> 7) & 0x7;
        const unsigned c3 = (header >> 4) & 0x7;
        const uint64_t z1 = GetFixed(bytes_ + pos_, CodeBytes(c1));
        pos_ += CodeBytes(c1);
        const uint64_t z2 = GetFixed(bytes_ + pos_, CodeBytes(c2));
        pos_ += CodeBytes(c2);
        const uint64_t z3 = GetFixed(bytes_ + pos_, CodeBytes(c3));
        pos_ += CodeBytes(c3);
        e->key.a = ((header & (1u << 3)) ? base_.key.a : prev_.key.a) +
                   static_cast<uint64_t>(ZigZagDecode(z1));
        e->key.b = ((header & (1u << 2)) ? base_.key.b : prev_.key.b) +
                   static_cast<uint64_t>(ZigZagDecode(z2));
        e->key.c = ((header & (1u << 1)) ? base_.key.c : prev_.key.c) +
                   static_cast<uint64_t>(ZigZagDecode(z3));
        e->start = prev_.start + static_cast<Chronon>(GetVarint(bytes_, &pos_));
        if (te_flag == kTeLiveFlag) {
          e->end = kChrononNow;
        } else if (te_flag == kTeShortFlag) {
          e->end = e->start + static_cast<Chronon>(GetVarint(bytes_, &pos_));
        } else {
          const int64_t d = ZigZagDecode(GetVarint(bytes_, &pos_));
          e->end = static_cast<Chronon>(static_cast<int64_t>(ref_te_) + d);
        }
      }
      if (i_ == 0) {
        base_ = *e;
        ref_te_ = base_.end == kChrononNow ? base_.start : base_.end;
      }
      prev_ = *e;
      ++i_;
      return true;
    }

    /// Byte offset of the next undecoded entry.
    size_t byte_pos() const { return pos_; }
    /// Entries decoded so far.
    size_t decoded() const { return i_; }

   private:
    const uint8_t* bytes_;
    size_t count_;
    size_t pos_ = 0;
    size_t i_ = 0;
    Entry prev_{Key3{}, 0, 0};
    Entry base_{Key3{}, 0, 0};
    Chronon ref_te_ = 0;
  };

  /// Forward walk to ascending slots: a compressed block decodes each
  /// slot at most once over all Seek() calls, so confirming several
  /// candidate slots and then closing one costs a single pass.
  class SlotWalk {
   public:
    explicit SlotWalk(const LeafBlock& block) : block_(block), cur_(block) {}

    /// Slot `i`; `i < count()` and greater than any slot sought before.
    const Slot& Seek(size_t i) {
      assert(i < block_.count_);
      slot_.index = i;
      if (!block_.compressed_) {
        slot_.entry = block_.plain_[i];
        return slot_;
      }
      while (cur_.decoded() < i) cur_.Next(&slot_.entry);
      if (i > 0) slot_.prev = slot_.entry;
      slot_.begin = cur_.byte_pos();
      cur_.Next(&slot_.entry);
      slot_.end = cur_.byte_pos();
      return slot_;
    }

   private:
    const LeafBlock& block_;
    Cursor cur_;
    Slot slot_;
  };

  /// Visits every entry in append order with a devirtualized callable;
  /// return false to stop. Compressed blocks decode through a streaming
  /// Cursor — no scratch buffer, and stopping early stops the decode.
  /// Safe to call concurrently from many threads on an immutable block.
  template <typename Fn>
  void VisitWith(Fn&& fn) const {
    if (!compressed_) {
      for (const Entry& e : plain_) {
        if (!fn(e)) return;
      }
      return;
    }
    Cursor cur(*this);
    Entry e;
    while (cur.Next(&e)) {
      if (!fn(e)) return;
    }
  }

  /// Copies all entries out in append order.
  std::vector<Entry> Decode() const;

  /// Appends all entries to `out` in append order, column-major. One
  /// streaming pass for compressed blocks, a transpose for plain ones.
  void DecodeColumnar(ColumnarEntries* out) const;

  // --- snapshot persistence hooks (storage/snapshot.cc) ---

  /// Raw delta-encoded byte stream of a compressed block. Snapshots
  /// store these bytes verbatim, so saving never re-encodes a leaf.
  /// Only meaningful while compressed().
  const std::vector<uint8_t>& compressed_bytes() const { return bytes_; }

  /// Entry vector of a plain block. Only meaningful while !compressed().
  const std::vector<Entry>& plain_entries() const { return plain_; }

  /// Reconstructs a compressed block from snapshot bytes. The stream is
  /// decoded with full bounds checking before acceptance: exactly
  /// `count` entries must consume exactly `bytes.size()` bytes, start
  /// versions must be nondecreasing, and every decoded chronon must lie
  /// in the temporal domain. Returns Corruption otherwise — a hostile or
  /// damaged stream can never reach the unchecked fast-path Cursor.
  static Result<LeafBlock> FromCompressedBytes(std::vector<uint8_t> bytes,
                                               size_t count);

  /// Reconstructs a plain block from snapshot entries (validating the
  /// nondecreasing-start append invariant).
  static Result<LeafBlock> FromEntries(std::vector<Entry> entries);

  /// Bounds-checked decode of a delta stream: the validation core of
  /// FromCompressedBytes, exposed for fuzzing. Appends decoded entries
  /// to `out` when non-null.
  static Status CheckStream(const uint8_t* bytes, size_t size, size_t count,
                            std::vector<Entry>* out = nullptr);

  /// Converts to the delta-compressed representation. Idempotent.
  void Compress(CompressionStats* stats = nullptr);

  /// Converts back to the plain representation. Idempotent.
  void Decompress();

  /// Bytes used by entry storage (the quantity Fig 8 compares).
  size_t MemoryUsage() const;

 private:
  // te-rule flags of the normal header (bits 14-13), shared between the
  // encoder (leaf_block.cc) and the inline Cursor decoder.
  static constexpr unsigned kTeShortFlag = 0;
  static constexpr unsigned kTeDeltaFlag = 1;
  static constexpr unsigned kTeLiveFlag = 2;

  static unsigned CodeBytes(unsigned code) { return code == 7 ? 8u : code; }

  struct Checkpoint {
    Entry last;       // previously appended entry (delta base)
    bool valid = false;
  };

  void DecodeInto(std::vector<Entry>* out) const;
  void AppendEncoded(const Entry& e, CompressionStats* stats);
  void ReencodeAll(const std::vector<Entry>& entries);
  Chronon RefTe() const;

  bool compressed_ = false;
  size_t count_ = 0;

  // Plain representation.
  std::vector<Entry> plain_;

  // Compressed representation.
  std::vector<uint8_t> bytes_;
  Entry base_;              // block base values = first entry
  Checkpoint checkpoint_;   // last appended entry (append fast path)
};

}  // namespace rdftx::mvbt

#endif  // RDFTX_MVBT_LEAF_BLOCK_H_
