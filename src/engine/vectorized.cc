#include "engine/vectorized.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "engine/operators.h"
#include "mvbt/mvbt.h"
#include "rdf/epoch.h"
#include "rdf/temporal_graph.h"
#include "util/simd.h"

namespace rdftx::engine {
namespace {

/// Copies row `i` of `src` onto the end of `out`.
void CopyRow(const BlockRun& src, size_t i, const std::vector<VarInfo>& vars,
             BlockPool* pool, BlockRun* out) {
  const BindingBlock& sb = src.block_of(i);
  const size_t sr = BlockRun::offset_of(i);
  auto [blk, r] = out->Append(pool, vars.size());
  for (size_t v = 0; v < vars.size(); ++v) {
    const int vi = static_cast<int>(v);
    if (vars[v].is_time) {
      if (sb.TimeIsSingleRun(vi, sr)) {
        blk->SetTimeRun(vi, r, sb.start_col(vi)[sr], sb.end_col(vi)[sr]);
      } else {
        blk->SetTime(vi, r, sb.TimeExtra(vi, sr));
      }
    } else {
      blk->term_col(vi)[r] = sb.term_col(vi)[sr];
    }
  }
}

/// Merges pairs of rows into an output run with the MergeRows semantics
/// of the tuple operators. Holds the per-join scratch (slot lists, the
/// merged-time staging buffer) so the per-row call allocates only when a
/// row actually carries a multi-run element.
class RowMerger {
 public:
  RowMerger(const std::vector<VarInfo>& vars, BlockPool* pool)
      : vars_(vars), pool_(pool) {
    for (size_t v = 0; v < vars.size(); ++v) {
      (vars[v].is_time ? time_slots_ : key_slots_)
          .push_back(static_cast<int>(v));
    }
  }

  /// Appends the merge of rows a[i] and b[j] to `out`; false (nothing
  /// appended) when a temporal slot bound on both sides intersects
  /// empty.
  bool Merge(const BlockRun& a, size_t i, const BlockRun& b, size_t j,
             BlockRun* out) {
    const BindingBlock& ba = a.block_of(i);
    const size_t ra = BlockRun::offset_of(i);
    const BindingBlock& bb = b.block_of(j);
    const size_t rb = BlockRun::offset_of(j);

    // Stage the temporal merges first: a row is dropped before any of
    // it is written.
    merged_.clear();
    for (int v : time_slots_) {
      const bool a_empty = ba.TimeEmpty(v, ra);
      const bool b_empty = bb.TimeEmpty(v, rb);
      if (a_empty && b_empty) continue;  // stays unbound
      MergedTime m;
      m.v = v;
      if (!a_empty && !b_empty) {
        if (ba.TimeIsSingleRun(v, ra) && bb.TimeIsSingleRun(v, rb)) {
          m.s = std::max(ba.start_col(v)[ra], bb.start_col(v)[rb]);
          m.e = std::min(ba.end_col(v)[ra], bb.end_col(v)[rb]);
          if (m.s >= m.e) return false;
        } else {
          m.set = ba.TimeAt(v, ra).Intersect(bb.TimeAt(v, rb));
          if (m.set.empty()) return false;
          m.use_set = true;
        }
      } else {
        const BindingBlock& src = a_empty ? bb : ba;
        const size_t r = a_empty ? rb : ra;
        if (src.TimeIsSingleRun(v, r)) {
          m.s = src.start_col(v)[r];
          m.e = src.end_col(v)[r];
        } else {
          m.set = src.TimeExtra(v, r);
          m.use_set = true;
        }
      }
      merged_.push_back(std::move(m));
    }

    auto [blk, r] = out->Append(pool_, vars_.size());
    for (int v : key_slots_) {
      const TermId t = ba.term_col(v)[ra];
      blk->term_col(v)[r] = t != kInvalidTerm ? t : bb.term_col(v)[rb];
    }
    for (const MergedTime& m : merged_) {
      if (m.use_set) {
        blk->SetTime(m.v, r, m.set);
      } else {
        blk->SetTimeRun(m.v, r, m.s, m.e);
      }
    }
    return true;
  }

 private:
  struct MergedTime {
    int v = -1;
    bool use_set = false;
    Chronon s = 0;
    Chronon e = 0;
    TemporalSet set;
  };

  const std::vector<VarInfo>& vars_;
  BlockPool* pool_;
  std::vector<int> time_slots_;
  std::vector<int> key_slots_;
  std::vector<MergedTime> merged_;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
}

uint64_t RunRowHash(const BlockRun& run, size_t i,
                    const std::vector<int>& slots) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int slot : slots) h = Mix(h, run.term(i, slot));
  return h;
}

bool RunKeysMatch(const BlockRun& a, size_t i, const BlockRun& b, size_t j,
                  const std::vector<int>& slots) {
  for (int slot : slots) {
    if (a.term(i, slot) != b.term(j, slot)) return false;
  }
  return true;
}

/// True when time slot `v` of a[i] and b[j] intersect, or either side
/// leaves it unbound.
bool TimesCompatible(const BlockRun& a, size_t i, const BlockRun& b,
                     size_t j, int v) {
  const BindingBlock& ba = a.block_of(i);
  const size_t ra = BlockRun::offset_of(i);
  const BindingBlock& bb = b.block_of(j);
  const size_t rb = BlockRun::offset_of(j);
  if (ba.TimeEmpty(v, ra) || bb.TimeEmpty(v, rb)) return true;
  if (ba.TimeIsSingleRun(v, ra) && bb.TimeIsSingleRun(v, rb)) {
    return std::max(ba.start_col(v)[ra], bb.start_col(v)[rb]) <
           std::min(ba.end_col(v)[ra], bb.end_col(v)[rb]);
  }
  return !ba.TimeAt(v, ra).Intersect(bb.TimeAt(v, rb)).empty();
}

/// Hash of run[i]'s values in `slots`, consistent with ValuesEqual.
uint64_t ValuesHash(const BlockRun& run, size_t i,
                    const std::vector<int>& slots,
                    const std::vector<VarInfo>& vars) {
  const BindingBlock& b = run.block_of(i);
  const size_t r = BlockRun::offset_of(i);
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int v : slots) {
    if (!vars[static_cast<size_t>(v)].is_time) {
      h = Mix(h, b.term_col(v)[r]);
    } else if (b.TimeEmpty(v, r)) {
      h = Mix(h, 0);
    } else if (b.TimeIsSingleRun(v, r)) {
      h = Mix(Mix(h, b.start_col(v)[r]), b.end_col(v)[r]);
    } else {
      for (const Interval& run_iv : b.TimeExtra(v, r).runs()) {
        h = Mix(Mix(h, run_iv.start), run_iv.end);
      }
    }
  }
  return h;
}

/// Value equality of run[i] and run[j] on `slots`. A spilled temporal
/// element always has two or more runs (BindingBlock::SetTime keeps one
/// run inline), so inline and spilled elements never compare equal.
bool ValuesEqual(const BlockRun& run, size_t i, size_t j,
                 const std::vector<int>& slots,
                 const std::vector<VarInfo>& vars) {
  const BindingBlock& a = run.block_of(i);
  const size_t ra = BlockRun::offset_of(i);
  const BindingBlock& b = run.block_of(j);
  const size_t rb = BlockRun::offset_of(j);
  for (int v : slots) {
    if (!vars[static_cast<size_t>(v)].is_time) {
      if (a.term_col(v)[ra] != b.term_col(v)[rb]) return false;
      continue;
    }
    const bool ae = a.TimeEmpty(v, ra);
    if (ae || b.TimeEmpty(v, rb)) {
      if (ae != b.TimeEmpty(v, rb)) return false;
      continue;
    }
    const bool as = a.TimeIsSingleRun(v, ra);
    if (as != b.TimeIsSingleRun(v, rb)) return false;
    if (as) {
      if (a.start_col(v)[ra] != b.start_col(v)[rb] ||
          a.end_col(v)[ra] != b.end_col(v)[rb]) {
        return false;
      }
    } else if (!(a.TimeExtra(v, ra) == b.TimeExtra(v, rb))) {
      return false;
    }
  }
  return true;
}

// Sideways key filter geometry: 2^16 bits (8 KiB), one multiplicative
// hash. Wide enough that a few thousand outer keys pass few strangers.
constexpr int kKeyFilterLogBits = 16;

uint64_t KeyFilterBit(TermId id) {
  return (id * 0x9E3779B97F4A7C15ull) >> (64 - kKeyFilterLogBits);
}

}  // namespace

KeyFilter::KeyFilter(int slot)
    : slot_(slot), bits_((size_t{1} << kKeyFilterLogBits) / 64, 0) {}

void KeyFilter::Add(TermId id) {
  const uint64_t bit = KeyFilterBit(id);
  bits_[bit >> 6] |= 1ull << (bit & 63);
}

bool KeyFilter::MayContain(TermId id) const {
  const uint64_t bit = KeyFilterBit(id);
  return (bits_[bit >> 6] >> (bit & 63)) & 1;
}

std::optional<KeyFilter> KeyFilter::FromRun(const BlockRun& run, int slot,
                                            const RowSelection* rows) {
  KeyFilter filter(slot);
  const size_t n = rows != nullptr ? rows->size() : run.size();
  for (size_t q = 0; q < n; ++q) {
    const TermId id = run.term(rows != nullptr ? (*rows)[q] : q, slot);
    if (id == kInvalidTerm) return std::nullopt;
    filter.Add(id);
  }
  return filter;
}

void RadixOrder(const std::vector<const uint64_t*>& cols, size_t n,
                std::vector<uint32_t>* pos) {
  pos->resize(n);
  std::iota(pos->begin(), pos->end(), 0u);
  if (n < 2) return;
  std::vector<uint32_t> tmp(n);
  std::array<uint32_t, 257> at;
  // Least significant column first; within a column, low digit first.
  for (auto c = cols.rbegin(); c != cols.rend(); ++c) {
    const uint64_t* col = *c;
    uint64_t any = 0;
    for (size_t i = 0; i < n; ++i) any |= col[i];
    const int width = static_cast<int>(std::bit_width(any));
    for (int shift = 0; shift < width; shift += 8) {
      at.fill(0);
      for (size_t i = 0; i < n; ++i) ++at[((col[i] >> shift) & 0xFF) + 1];
      // A digit every key shares moves nothing.
      if (at[((col[0] >> shift) & 0xFF) + 1] == n) continue;
      for (size_t d = 1; d < at.size(); ++d) at[d] += at[d - 1];
      for (const uint32_t p : *pos) tmp[at[(col[p] >> shift) & 0xFF]++] = p;
      pos->swap(tmp);
    }
  }
}

void VectorizedScan(const TemporalStore& store, const CompiledPattern& cp,
                    size_t num_vars, const std::vector<VarInfo>& vars,
                    int sort_slot, BlockPool* pool, BlockRun* out,
                    ExecStats* stats, const KeyFilter* key_filter) {
  // A live Epoch scans as its base graph plus one overlay patch.
  const auto* graph = dynamic_cast<const TemporalGraph*>(&store);
  const auto* epoch =
      graph == nullptr ? dynamic_cast<const Epoch*>(&store) : nullptr;
  if (epoch != nullptr) graph = epoch->base().get();
  if (graph == nullptr) {
    // Stores without MVBT indices (the conformance oracle and the
    // paper's baselines) scan through the tuple operator; blocking and
    // ordering the rows here makes the downstream operators
    // store-agnostic.
    std::vector<Row> rows;
    ScanToRows(store, cp, num_vars, vars, &rows, stats);
    if (sort_slot >= 0 && (cp.var_s == sort_slot || cp.var_p == sort_slot ||
                           cp.var_o == sort_slot)) {
      const size_t ss = static_cast<size_t>(sort_slot);
      std::stable_sort(rows.begin(), rows.end(),
                       [ss](const Row& x, const Row& y) {
                         return x.terms[ss] < y.terms[ss];
                       });
      out->sorted_by = sort_slot;
    }
    AppendRowsToRun(rows, vars, pool, out);
    return;
  }

  if (stats != nullptr) ++stats->patterns_scanned;
  if (cp.never_matches || cp.spec.time.empty()) return;

  // A full-validity pattern reads all of history (ScanSpec).
  const PatternSpec spec = ScanSpec(cp, vars);
  const IndexOrder order = TemporalGraph::ChooseIndex(cp.spec);
  const mvbt::KeyRange range = TemporalGraph::PatternRange(order, cp.spec);
  const mvbt::Mvbt& tree = graph->index(order);

  ScanStats scan;
  std::vector<const mvbt::Mvbt::Node*> leaves;
  tree.CollectRegionLeaves(range, spec.time, &leaves);

  // The triple component (0 s, 1 p, 2 o) the key filter tests; -1 when
  // there is no filter or this pattern does not bind its slot.
  int filter_comp = -1;
  if (key_filter != nullptr) {
    const int fslot = key_filter->slot();
    if (cp.var_s == fslot) {
      filter_comp = 0;
    } else if (cp.var_p == fslot) {
      filter_comp = 1;
    } else if (cp.var_o == fslot) {
      filter_comp = 2;
    }
  }
  uint64_t key_filtered = 0;

  // Inside the key range the pattern's constants are equal (ChooseIndex
  // puts them in the index prefix), so only the variable components are
  // gathered, column-wise in triple component space (the per-leaf key
  // permutation is undone by the gather). A full Triple is rebuilt from
  // the constants where one is needed.
  const TermId consts[3] = {cp.spec.s, cp.spec.p, cp.spec.o};
  const std::array<int, 3>& layout =
      kIndexLayout[static_cast<size_t>(order)];
  const int slots[3] = {cp.var_s, cp.var_p, cp.var_o};
  std::vector<TermId> keys[3];
  std::vector<Chronon> fstart, fend;
  mvbt::ColumnarEntries scratch;
  std::vector<uint64_t> mask;
  std::vector<uint32_t> sel;

  for (const mvbt::Mvbt::Node* leaf : leaves) {
    std::shared_ptr<const mvbt::ColumnarEntries> keepalive;
    const mvbt::ColumnarEntries* cols =
        tree.LeafColumns(*leaf, &scratch, &keepalive, &scan);
    const size_t n = cols->size();
    if (n == 0) continue;
    mvbt::RegionMask(*cols, range, spec.time, &mask);

    // The key columns in triple component order.
    const std::vector<uint64_t>* key_cols[3] = {&cols->a, &cols->b, &cols->c};
    const std::vector<uint64_t>* comp[3];
    for (int x = 0; x < 3; ++x) comp[layout[x]] = key_cols[x];
    // Repeated variables ({?x ?x ?o}, ...): per-row equality between the
    // components holding the repeated slot.
    if (cp.var_s >= 0 && cp.var_s == cp.var_p) {
      simd::AndColEqMask64(comp[0]->data(), comp[1]->data(), n, mask.data());
    }
    if (cp.var_s >= 0 && cp.var_s == cp.var_o) {
      simd::AndColEqMask64(comp[0]->data(), comp[2]->data(), n, mask.data());
    }
    if (cp.var_p >= 0 && cp.var_p == cp.var_o) {
      simd::AndColEqMask64(comp[1]->data(), comp[2]->data(), n, mask.data());
    }

    sel.resize(n);
    size_t k = simd::MaskToSelection(mask.data(), n, sel.data());
    // Sideways key filter: drop fragments whose key no outer solution
    // holds, before they are gathered, grouped or emitted.
    if (filter_comp >= 0 && k > 0) {
      const uint64_t* col = comp[filter_comp]->data();
      size_t kept = 0;
      for (size_t q = 0; q < k; ++q) {
        if (key_filter->MayContain(col[sel[q]])) sel[kept++] = sel[q];
      }
      key_filtered += k - kept;
      k = kept;
    }
    if (k == 0) continue;
    const size_t base = fstart.size();
    for (int x = 0; x < 3; ++x) {
      if (consts[x] != kInvalidTerm) continue;
      keys[x].resize(base + k);
      simd::Gather64(comp[x]->data(), sel.data(), k, keys[x].data() + base);
    }
    fstart.resize(base + k);
    fend.resize(base + k);
    simd::Gather32(cols->start.data(), sel.data(), k, fstart.data() + base);
    simd::Gather32(cols->end.data(), sel.data(), k, fend.data() + base);
  }

  if (epoch != nullptr && epoch->head() != nullptr) {
    const OverlayPatch patch = epoch->Patch(spec);
    // A base-live fragment whose triple the overlay retracts closes at
    // the retract; a closed run that misses the window clips to empty
    // below, and the keep test drops it.
    for (size_t i = 0; i < fend.size(); ++i) {
      if (fend[i] != kChrononNow) continue;
      TermId c[3];
      for (int x = 0; x < 3; ++x) {
        c[x] = consts[x] != kInvalidTerm ? consts[x] : keys[x][i];
      }
      fend[i] = patch.CloseOf(Triple{c[0], c[1], c[2]});
    }
    // Overlay-born runs pass the checks the leaf masks apply.
    for (const auto& [t, run] : patch.runs) {
      if (!RepeatedSlotsAgree(cp, t)) continue;
      const TermId c[3] = {t.s, t.p, t.o};
      if (filter_comp >= 0 && !key_filter->MayContain(c[filter_comp])) {
        ++key_filtered;
        continue;
      }
      for (int x = 0; x < 3; ++x) {
        if (consts[x] == kInvalidTerm) keys[x].push_back(c[x]);
      }
      fstart.push_back(run.start);
      fend.push_back(run.end);
    }
  }

  // One grouping order: a stable radix order over the variable
  // components, the requested sort component first (with none, the first
  // variable component). A repeated variable's components hold equal
  // terms, so one column orders them. A group is a run of equal keys and
  // its runs are coalesced below, so the order inside a group never
  // reaches the output.
  std::vector<const TermId*> cols;
  std::vector<int> col_slots;
  auto add_col = [&](int x) {
    if (consts[x] != kInvalidTerm ||
        std::find(col_slots.begin(), col_slots.end(), slots[x]) !=
            col_slots.end()) {
      return;
    }
    cols.push_back(keys[x].data());
    col_slots.push_back(slots[x]);
  };
  for (int x = 0; x < 3; ++x) {
    if (sort_slot >= 0 && slots[x] == sort_slot) add_col(x);
  }
  for (int x = 0; x < 3; ++x) add_col(x);
  const size_t total = fstart.size();
  std::vector<uint32_t> idx;
  RadixOrder(cols, total, &idx);
  out->sorted_by = col_slots.empty() ? -1 : col_slots[0];

  std::vector<Interval> runs;  // one group's runs, reused across groups
  size_t emitted = 0;
  for (size_t g = 0; g < total;) {
    const uint32_t f0 = idx[g];
    size_t h = g + 1;
    while (h < total && std::all_of(cols.begin(), cols.end(),
                                    [&](const TermId* col) {
                                      return col[idx[h]] == col[f0];
                                    })) {
      ++h;
    }
    bool meets = false;
    for (size_t q = g; q < h && !meets; ++q) {
      meets = MeetsWindow(cp, fstart[idx[q]], fend[idx[q]]);
    }
    if (!meets) {
      g = h;
      continue;
    }
    auto [blk, r] = out->Append(pool, num_vars);
    for (int x = 0; x < 3; ++x) {
      if (slots[x] >= 0) blk->term_col(slots[x])[r] = keys[x][f0];
    }
    if (cp.var_t >= 0) {
      // Clip to the scan window (a no-op under all of history) and
      // coalesce: adjacent split copies of one run become one run.
      runs.clear();
      for (size_t q = g; q < h; ++q) {
        runs.push_back(
            Interval(fstart[idx[q]], fend[idx[q]]).Intersect(spec.time));
      }
      TemporalSet::Coalesce(&runs);
      if (runs.size() == 1) {
        blk->SetTimeRun(cp.var_t, r, runs[0].start, runs[0].end);
      } else {
        blk->SetTime(cp.var_t, r, TemporalSet::FromIntervals(runs));
      }
    }
    ++emitted;
    g = h;
  }
  scan.fragments_gathered += total;
  if (stats != nullptr) {
    stats->rows_scanned += emitted;
    stats->key_filtered_fragments += key_filtered;
    stats->scan.MergeFrom(scan);
  }
}

BlockRun SortRun(const BlockRun& in, int slot,
                 const std::vector<VarInfo>& vars, BlockPool* pool) {
  const size_t n = in.size();
  std::vector<TermId> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = in.term(i, slot);
  std::vector<uint32_t> idx;
  RadixOrder({keys.data()}, n, &idx);
  BlockRun out = GatherRun(in, idx, vars, pool);
  out.sorted_by = slot;
  return out;
}

BlockRun GatherRun(const BlockRun& in, const RowSelection& rows,
                   const std::vector<VarInfo>& vars, BlockPool* pool) {
  BlockRun out;
  for (uint32_t i : rows) CopyRow(in, i, vars, pool, &out);
  return out;
}

BlockRun MergeJoinRuns(const BlockRun& left, const BlockRun& right, int slot,
                       const std::vector<VarInfo>& vars, BlockPool* pool) {
  BlockRun out;
  out.sorted_by = slot;
  const size_t na = left.size();
  const size_t nb = right.size();
  RowMerger merger(vars, pool);
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    const TermId ka = left.term(i, slot);
    const TermId kb = right.term(j, slot);
    if (ka < kb) {
      ++i;
    } else if (kb < ka) {
      ++j;
    } else {
      size_t i2 = i + 1;
      while (i2 < na && left.term(i2, slot) == ka) ++i2;
      size_t j2 = j + 1;
      while (j2 < nb && right.term(j2, slot) == ka) ++j2;
      for (size_t ii = i; ii < i2; ++ii) {
        for (size_t jj = j; jj < j2; ++jj) {
          merger.Merge(left, ii, right, jj, &out);
        }
      }
      i = i2;
      j = j2;
    }
  }
  return out;
}

BlockRun HashJoinRuns(const BlockRun& left, const BlockRun& right,
                      const std::vector<int>& shared_key_slots,
                      const std::vector<VarInfo>& vars, BlockPool* pool) {
  BlockRun out;
  if (left.empty() || right.empty()) return out;
  const BlockRun& build = left.size() <= right.size() ? left : right;
  const BlockRun& probe = left.size() <= right.size() ? right : left;
  std::unordered_multimap<uint64_t, uint32_t> table;
  table.reserve(build.size());
  for (size_t i = 0, n = build.size(); i < n; ++i) {
    table.emplace(RunRowHash(build, i, shared_key_slots),
                  static_cast<uint32_t>(i));
  }
  RowMerger merger(vars, pool);
  for (size_t j = 0, n = probe.size(); j < n; ++j) {
    auto [lo, hi] = table.equal_range(RunRowHash(probe, j, shared_key_slots));
    for (auto it = lo; it != hi; ++it) {
      const size_t i = it->second;
      if (!RunKeysMatch(build, i, probe, j, shared_key_slots)) continue;
      merger.Merge(build, i, probe, j, &out);
    }
  }
  return out;
}

BlockRun LeftHashJoinRuns(const BlockRun& left, const BlockRun& right,
                          const std::vector<int>& shared_key_slots,
                          const std::vector<VarInfo>& vars, BlockPool* pool) {
  BlockRun out;
  std::unordered_multimap<uint64_t, uint32_t> table;
  table.reserve(right.size());
  for (size_t j = 0, n = right.size(); j < n; ++j) {
    table.emplace(RunRowHash(right, j, shared_key_slots),
                  static_cast<uint32_t>(j));
  }
  RowMerger merger(vars, pool);
  for (size_t i = 0, n = left.size(); i < n; ++i) {
    bool matched = false;
    auto [lo, hi] = table.equal_range(RunRowHash(left, i, shared_key_slots));
    for (auto it = lo; it != hi; ++it) {
      const size_t j = it->second;
      if (!RunKeysMatch(left, i, right, j, shared_key_slots)) continue;
      matched |= merger.Merge(left, i, right, j, &out);
    }
    if (!matched) CopyRow(left, i, vars, pool, &out);
  }
  return out;
}

void SemiJoinRuns(const BlockRun& left, const BlockRun& right,
                  const std::vector<int>& shared_key_slots,
                  const std::vector<int>& shared_time_slots, bool negated,
                  RowSelection* sel) {
  std::unordered_multimap<uint64_t, uint32_t> index;
  index.reserve(right.size());
  for (size_t j = 0, n = right.size(); j < n; ++j) {
    index.emplace(RunRowHash(right, j, shared_key_slots),
                  static_cast<uint32_t>(j));
  }
  auto compatible = [&](size_t i, size_t j) {
    for (int s : shared_key_slots) {
      const TermId lt = left.term(i, s);
      const TermId rt = right.term(j, s);
      if (lt != kInvalidTerm && rt != kInvalidTerm && lt != rt) return false;
    }
    for (int s : shared_time_slots) {
      if (!TimesCompatible(left, i, right, j, s)) return false;
    }
    return true;
  };
  std::erase_if(*sel, [&](uint32_t i) {
    bool fully_bound = true;
    for (int s : shared_key_slots) {
      fully_bound &= left.term(i, s) != kInvalidTerm;
    }
    bool match = false;
    if (fully_bound) {
      auto [lo, hi] = index.equal_range(RunRowHash(left, i, shared_key_slots));
      for (auto it = lo; it != hi && !match; ++it) {
        match = compatible(i, it->second);
      }
    } else {
      // An unbound shared key is a wildcard: probe the whole right side.
      for (size_t j = 0, n = right.size(); j < n && !match; ++j) {
        match = compatible(i, j);
      }
    }
    return match == negated;
  });
}

void DistinctRows(const BlockRun& run, const std::vector<int>& slots,
                  const std::vector<VarInfo>& vars, RowSelection* sel) {
  // Open addressing over the kept rows; a probe compares hashes first
  // and row values only on a hash match.
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t cap = 16;
  while (cap < 2 * sel->size()) cap <<= 1;
  std::vector<uint32_t> table(cap, kEmpty);
  std::vector<uint64_t> hashes(cap);
  size_t kept = 0;
  for (const uint32_t i : *sel) {
    const uint64_t h = ValuesHash(run, i, slots, vars);
    size_t pos = ((h * 0x9E3779B97F4A7C15ull) >> 32) & (cap - 1);
    bool dup = false;
    for (; table[pos] != kEmpty; pos = (pos + 1) & (cap - 1)) {
      if (hashes[pos] == h && ValuesEqual(run, table[pos], i, slots, vars)) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    table[pos] = i;
    hashes[pos] = h;
    (*sel)[kept++] = i;
  }
  sel->resize(kept);
}

void LoadRow(const BlockRun& run, size_t i, const std::vector<VarInfo>& vars,
             Row* row) {
  const BindingBlock& blk = run.block_of(i);
  const size_t r = BlockRun::offset_of(i);
  for (size_t v = 0; v < vars.size(); ++v) {
    const int vi = static_cast<int>(v);
    if (vars[v].is_time) {
      row->terms[v] = kInvalidTerm;
      row->times[v] = blk.TimeAt(vi, r);
    } else {
      row->terms[v] = blk.term_col(vi)[r];
    }
  }
}

std::vector<Row> RunToRows(const BlockRun& run,
                           const std::vector<VarInfo>& vars) {
  std::vector<Row> rows;
  rows.reserve(run.size());
  for (size_t i = 0, n = run.size(); i < n; ++i) {
    Row row(vars.size());
    LoadRow(run, i, vars, &row);
    rows.push_back(std::move(row));
  }
  return rows;
}

void AppendRowsToRun(const std::vector<Row>& rows,
                     const std::vector<VarInfo>& vars, BlockPool* pool,
                     BlockRun* out) {
  const size_t nv = vars.size();
  for (const Row& row : rows) {
    auto [blk, r] = out->Append(pool, nv);
    for (size_t v = 0; v < nv; ++v) {
      const int vi = static_cast<int>(v);
      if (vars[v].is_time) {
        if (!row.times[v].empty()) blk->SetTime(vi, r, row.times[v]);
      } else {
        blk->term_col(vi)[r] = row.terms[v];
      }
    }
  }
}

}  // namespace rdftx::engine
