// LeafBlock fuzzer: drives one block through appends, closes, caps,
// purges, and representation flips while mirroring every operation into
// a plain std::vector<Entry> shadow model. After each step the block
// must decode to exactly the shadow — this hammers the delta encoder's
// header/te-rule selection (paper §4.2.1), including extreme key values
// whose deltas don't fit the compact paths.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "fuzz_util.h"
#include "mvbt/key.h"
#include "mvbt/leaf_block.h"

namespace {

using rdftx::Chronon;
using rdftx::mvbt::Entry;
using rdftx::mvbt::Key3;
using rdftx::mvbt::LeafBlock;

void CheckMatchesShadow(const LeafBlock& block,
                        const std::vector<Entry>& shadow) {
  RDFTX_FUZZ_CHECK(block.count() == shadow.size(),
                   "count %zu vs shadow %zu", block.count(), shadow.size());
  const std::vector<Entry> decoded = block.Decode();
  RDFTX_FUZZ_CHECK(decoded.size() == shadow.size(),
                   "decoded %zu entries, shadow has %zu", decoded.size(),
                   shadow.size());
  for (size_t i = 0; i < shadow.size(); ++i) {
    RDFTX_FUZZ_CHECK(decoded[i] == shadow[i],
                     "entry %zu mismatch: (%s,[%u,%u)) vs (%s,[%u,%u))", i,
                     decoded[i].key.ToString().c_str(), decoded[i].start,
                     decoded[i].end, shadow[i].key.ToString().c_str(),
                     shadow[i].start, shadow[i].end);
  }
}

// Key components mixing small values with extremes near UINT64_MAX, so
// deltas overflow the compact encodings in both directions.
uint64_t PickComponent(rdftx::fuzz::FuzzInput& in) {
  switch (in.U8() % 4) {
    case 0:
      return in.U8() % 8;
    case 1:
      return in.U8();
    case 2:
      return UINT64_MAX - in.U8() % 8;
    default:
      return in.U64();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  rdftx::fuzz::FuzzInput in(data, size);
  LeafBlock block;
  std::vector<Entry> shadow;
  Chronon t = static_cast<Chronon>(in.U8());

  size_t ops = 0;
  while (!in.empty() && ops < 512) {
    ++ops;
    switch (in.U8() % 8) {
      case 0:
      case 1:
      case 2: {  // append (nondecreasing start, mostly live)
        t += in.U8() % 4;
        Entry e;
        e.key = Key3{PickComponent(in), PickComponent(in), PickComponent(in)};
        e.start = t;
        // Occasionally append an already-closed entry (version split
        // copies do this), with end >= start and sometimes end == start.
        if (in.U8() % 4 == 0) e.end = t + in.U8() % 3;
        // Block precondition (guaranteed by the MVBT): at most one live
        // entry per key. A duplicate of a live key is appended closed.
        for (const Entry& s : shadow) {
          if (s.live() && s.key == e.key && e.live()) e.end = t + in.U8() % 3;
        }
        block.Append(e);
        shadow.push_back(e);
        break;
      }
      case 3: {  // close a live slot picked from the shadow
        std::vector<size_t> live;
        for (size_t i = 0; i < shadow.size(); ++i) {
          if (shadow[i].live()) live.push_back(i);
        }
        if (live.empty()) break;
        const size_t slot = live[in.Pick(live.size())];
        const Chronon te = t + in.U8() % 3;
        LeafBlock::SlotWalk walk(block);
        block.CloseAt(walk.Seek(slot), te);
        shadow[slot].end = te;
        t = te;
        break;
      }
      case 4: {  // cap all live entries (version-split copy path)
        std::vector<Key3> extracted;
        block.CapLiveEntries(t, &extracted);
        std::vector<Key3> want;
        for (Entry& e : shadow) {
          if (e.live()) {
            e.end = t;
            want.push_back(e.key);
          }
        }
        std::sort(extracted.begin(), extracted.end());
        std::sort(want.begin(), want.end());
        RDFTX_FUZZ_CHECK(extracted == want,
                         "CapLiveEntries extracted %zu keys, shadow %zu",
                         extracted.size(), want.size());
        break;
      }
      case 5: {  // purge zero-length entries (same-version reorg path)
        block.PurgeEmptyEntries();
        std::erase_if(shadow, [](const Entry& e) { return e.start == e.end; });
        break;
      }
      case 6: {  // SlotWalk cross-check on two ascending arbitrary slots
        if (shadow.empty()) break;
        size_t first = in.Pick(shadow.size());
        size_t second = in.Pick(shadow.size());
        if (second < first) std::swap(first, second);
        LeafBlock::SlotWalk walk(block);
        RDFTX_FUZZ_CHECK(walk.Seek(first).entry == shadow[first],
                         "SlotWalk slot %zu differs from the shadow", first);
        if (second > first) {
          RDFTX_FUZZ_CHECK(walk.Seek(second).entry == shadow[second],
                           "SlotWalk slot %zu differs from the shadow",
                           second);
        }
        break;
      }
      case 7: {  // flip representation
        if (in.Bool()) {
          block.Compress();
          RDFTX_FUZZ_CHECK(block.compressed() || block.count() == 0,
                           "Compress left a nonempty block plain");
        } else {
          block.Decompress();
          RDFTX_FUZZ_CHECK(!block.compressed(), "Decompress left compressed");
        }
        break;
      }
    }
    CheckMatchesShadow(block, shadow);
  }
  // Final round-trip through both representations.
  block.Compress();
  CheckMatchesShadow(block, shadow);
  block.Decompress();
  CheckMatchesShadow(block, shadow);
  return 0;
}
