// Unit tests of the vectorized execution layer: BindingBlock time
// encoding, BlockPool/BlockHandle RAII, columnar leaf decode, the
// sorted-run operators (sort, merge join, hash join) against the tuple
// operators on randomized inputs, VectorizedScan against ScanToRows on
// random graphs and over live Epochs (base graph plus overlay), and the
// executor's merge/hash/sort choices and join counters against the
// NaiveStore oracle.
#include "engine/vectorized.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baselines/naive_store.h"
#include "engine/block.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "mvbt/leaf_block.h"
#include "rdf/epoch.h"
#include "rdf/temporal_graph.h"
#include "util/rng.h"

namespace rdftx::engine {
namespace {

// --- BindingBlock encoding ---

TEST(BindingBlockTest, TimeEncodingRoundTrips) {
  BlockPool pool;
  BlockHandle h = pool.Acquire(2);
  const size_t r0 = h->AppendRow();
  const size_t r1 = h->AppendRow();
  const size_t r2 = h->AppendRow();

  // Single run: inline, no side table.
  h->SetTimeRun(1, r0, 10, 20);
  EXPECT_TRUE(h->TimeIsSingleRun(1, r0));
  EXPECT_FALSE(h->TimeEmpty(1, r0));
  EXPECT_EQ(h->TimeAt(1, r0), TemporalSet(Interval(10, 20)));

  // Multi-run: spills, inline columns keep the hull.
  TemporalSet multi = TemporalSet::FromIntervals({{5, 8}, {12, 30}});
  h->SetTime(1, r1, multi);
  EXPECT_FALSE(h->TimeIsSingleRun(1, r1));
  EXPECT_EQ(h->TimeAt(1, r1), multi);
  EXPECT_EQ(h->start_col(1)[r1], 5u);
  EXPECT_EQ(h->end_col(1)[r1], 30u);

  // Empty set and untouched rows read as unbound.
  h->SetTime(1, r2, TemporalSet());
  EXPECT_TRUE(h->TimeEmpty(1, r2));
  EXPECT_TRUE(h->TimeAt(1, r2).empty());

  // A single-run set routed through SetTime stays inline.
  const size_t r3 = h->AppendRow();
  h->SetTime(1, r3, TemporalSet(Interval(3, 4)));
  EXPECT_TRUE(h->TimeIsSingleRun(1, r3));
  EXPECT_EQ(h->TimeAt(1, r3), TemporalSet(Interval(3, 4)));
}

TEST(BindingBlockTest, PoolRecyclesThroughHandles) {
  BlockPool pool;
  EXPECT_EQ(pool.free_blocks(), 0u);
  {
    BlockHandle a = pool.Acquire(3);
    BlockHandle b = pool.Acquire(1);
    EXPECT_EQ(a->num_vars(), 3u);
    EXPECT_EQ(b->num_vars(), 1u);
    // Moving transfers ownership; the source releases nothing twice.
    BlockHandle c = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_EQ(pool.free_blocks(), 0u);
  }
  EXPECT_EQ(pool.free_blocks(), 2u);
  // Reacquiring reuses a pooled block, reset to the new column count.
  BlockHandle d = pool.Acquire(5);
  EXPECT_EQ(pool.free_blocks(), 1u);
  EXPECT_EQ(d->num_vars(), 5u);
  EXPECT_EQ(d->size(), 0u);
  EXPECT_EQ(d->term_col(4)[BindingBlock::kCapacity - 1], kInvalidTerm);
}

TEST(BindingBlockTest, RunAppendSpansBlocks) {
  BlockPool pool;
  BlockRun run;
  const size_t total = BindingBlock::kCapacity + 5;
  for (size_t i = 0; i < total; ++i) {
    auto [blk, r] = run.Append(&pool, 1);
    blk->term_col(0)[r] = i + 1;
  }
  EXPECT_EQ(run.blocks.size(), 2u);
  EXPECT_EQ(run.size(), total);
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(run.term(i, 0), i + 1);
  }
}

// --- columnar leaf decode ---

TEST(ColumnarEntriesTest, DecodeColumnarMatchesDecode) {
  Rng rng(77);
  for (bool compress : {false, true}) {
    mvbt::LeafBlock block;
    std::vector<mvbt::Entry> entries;
    // LeafBlock::Append requires nondecreasing start times.
    std::vector<Chronon> starts;
    for (int i = 0; i < 200; ++i) {
      starts.push_back(static_cast<Chronon>(rng.Uniform(1000)));
    }
    std::sort(starts.begin(), starts.end());
    for (Chronon s : starts) {
      mvbt::Entry e{{rng.Uniform(50) + 1, rng.Uniform(20) + 1,
                     rng.Uniform(100) + 1},
                    s, s + 1 + static_cast<Chronon>(rng.Uniform(500))};
      block.Append(e);
      entries.push_back(e);
    }
    if (compress) block.Compress();
    mvbt::ColumnarEntries cols;
    block.DecodeColumnar(&cols);
    ASSERT_EQ(cols.size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(cols.At(i), entries[i]) << "entry " << i;
    }
    EXPECT_GE(cols.MemoryBytes(), entries.size() * (3 * 8 + 2 * 4));
  }
}

// --- run operators vs tuple operators ---

std::vector<VarInfo> MakeVars(int keys, bool with_time) {
  std::vector<VarInfo> vars;
  for (int i = 0; i < keys; ++i) {
    vars.push_back({std::string("v").append(std::to_string(i)), false,
                    false});
  }
  if (with_time) vars.push_back({"t", true, false});
  return vars;
}

Row RandomRow(size_t num_vars, const std::vector<VarInfo>& vars, Rng* rng) {
  Row row(num_vars);
  for (size_t v = 0; v < num_vars; ++v) {
    if (vars[v].is_time) {
      if (rng->Uniform(4) == 0) continue;  // sometimes unbound
      std::vector<Interval> ivs;
      const int runs = 1 + static_cast<int>(rng->Uniform(3));
      for (int k = 0; k < runs; ++k) {
        const Chronon s = static_cast<Chronon>(rng->Uniform(300));
        ivs.push_back({s, s + 1 + static_cast<Chronon>(rng->Uniform(60))});
      }
      row.times[v] = TemporalSet::FromIntervals(std::move(ivs));
    } else {
      // Small domain so join keys collide often.
      row.terms[v] = rng->Uniform(8) + 1;
    }
  }
  return row;
}

std::string RowKey(const Row& row, const std::vector<VarInfo>& vars) {
  std::string key;
  for (size_t v = 0; v < vars.size(); ++v) {
    if (vars[v].is_time) {
      key += 'T';
      for (const Interval& run : row.times[v].runs()) {
        key += std::to_string(run.start) + "," + std::to_string(run.end) + ";";
      }
    } else {
      key += 'K' + std::to_string(row.terms[v]);
    }
    key += '\x1F';
  }
  return key;
}

std::vector<std::string> SortedKeys(const std::vector<Row>& rows,
                                    const std::vector<VarInfo>& vars) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) keys.push_back(RowKey(row, vars));
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(RadixOrderTest, MatchesStableSortOnDuplicateHeavyColumns) {
  // Widths 0..64: a width-w column draws from eight values whose top set
  // bit is bit w-1 (the 32- and 64-bit pools hold ids past 2^32, and the
  // 64-bit pool UINT64_MAX), so every digit shift is taken.
  const int widths[] = {0, 1, 8, 9, 32, 64};
  Rng rng(92);
  auto pool_of = [&](int width) {
    std::vector<uint64_t> pool(8, 0);
    if (width == 0) return pool;
    const uint64_t top = uint64_t{1} << (width - 1);
    for (uint64_t& v : pool) v = top | (rng.Next() & (top - 1));
    if (width == 64) pool[0] = UINT64_MAX;
    if (width >= 33) pool[1] = (uint64_t{1} << 32) | top;
    return pool;
  };
  for (size_t ncols = 1; ncols <= 3; ++ncols) {
    for (size_t n : {0, 1, 2, 255, 256, 257, 5000}) {
      for (size_t w = 0; w < std::size(widths); ++w) {
        std::vector<std::vector<uint64_t>> data(ncols);
        std::vector<const uint64_t*> cols;
        for (size_t c = 0; c < ncols; ++c) {
          const std::vector<uint64_t> pool =
              pool_of(widths[(w + c) % std::size(widths)]);
          for (size_t i = 0; i < n; ++i) {
            data[c].push_back(pool[rng.Uniform(pool.size())]);
          }
          cols.push_back(data[c].data());
        }
        std::vector<uint32_t> want(n);
        std::iota(want.begin(), want.end(), 0u);
        std::stable_sort(want.begin(), want.end(), [&](uint32_t x, uint32_t y) {
          for (const std::vector<uint64_t>& col : data) {
            if (col[x] != col[y]) return col[x] < col[y];
          }
          return false;
        });
        std::vector<uint32_t> got = {7, 7, 7};  // overwritten, not appended
        RadixOrder(cols, n, &got);
        EXPECT_EQ(got, want) << ncols << " columns, n " << n << ", width "
                             << widths[w];
      }
    }
  }
}

TEST(RunOperatorsTest, SortRunOrdersBySlotAndKeepsRows) {
  Rng rng(91);
  const std::vector<VarInfo> vars = MakeVars(2, true);
  BlockPool pool;
  std::vector<Row> rows;
  for (int i = 0; i < 2500; ++i) rows.push_back(RandomRow(3, vars, &rng));
  BlockRun run;
  AppendRowsToRun(rows, vars, &pool, &run);
  ASSERT_EQ(run.size(), rows.size());

  BlockRun sorted = SortRun(run, 1, vars, &pool);
  EXPECT_EQ(sorted.sorted_by, 1);
  ASSERT_EQ(sorted.size(), rows.size());
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted.term(i - 1, 1), sorted.term(i, 1));
  }
  EXPECT_EQ(SortedKeys(RunToRows(sorted, vars), vars),
            SortedKeys(rows, vars));
}

TEST(RunOperatorsTest, MergeAndHashJoinsMatchTupleHashJoin) {
  const std::vector<VarInfo> vars = MakeVars(3, true);
  BlockPool pool;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    // Left binds slots {0,1,t}, right binds {1,2,t}: shared key slot 1,
    // shared temporal slot 3.
    std::vector<Row> left, right;
    for (int i = 0; i < 400; ++i) {
      Row row = RandomRow(4, vars, &rng);
      row.terms[2] = kInvalidTerm;
      left.push_back(std::move(row));
    }
    for (int i = 0; i < 300; ++i) {
      Row row = RandomRow(4, vars, &rng);
      row.terms[0] = kInvalidTerm;
      right.push_back(std::move(row));
    }
    const std::vector<int> shared = {1};
    const std::vector<std::string> want =
        SortedKeys(HashJoinRows(left, right, shared), vars);

    BlockRun lrun, rrun;
    AppendRowsToRun(left, vars, &pool, &lrun);
    AppendRowsToRun(right, vars, &pool, &rrun);

    BlockRun lsorted = SortRun(lrun, 1, vars, &pool);
    BlockRun rsorted = SortRun(rrun, 1, vars, &pool);
    BlockRun merged = MergeJoinRuns(lsorted, rsorted, 1, vars, &pool);
    EXPECT_EQ(merged.sorted_by, 1);
    EXPECT_EQ(SortedKeys(RunToRows(merged, vars), vars), want)
        << "merge join, seed " << seed;
    for (size_t i = 1; i < merged.size(); ++i) {
      EXPECT_LE(merged.term(i - 1, 1), merged.term(i, 1));
    }

    BlockRun hashed = HashJoinRuns(lrun, rrun, shared, vars, &pool);
    EXPECT_EQ(SortedKeys(RunToRows(hashed, vars), vars), want)
        << "hash join, seed " << seed;
  }
}

TEST(RunOperatorsTest, HashJoinRunsCrossProductOnNoSharedSlots) {
  const std::vector<VarInfo> vars = MakeVars(2, true);
  BlockPool pool;
  Rng rng(31);
  std::vector<Row> left, right;
  for (int i = 0; i < 40; ++i) {
    Row row = RandomRow(3, vars, &rng);
    row.terms[1] = kInvalidTerm;
    left.push_back(std::move(row));
  }
  for (int i = 0; i < 30; ++i) {
    Row row = RandomRow(3, vars, &rng);
    row.terms[0] = kInvalidTerm;
    right.push_back(std::move(row));
  }
  const std::vector<int> none;
  BlockRun lrun, rrun;
  AppendRowsToRun(left, vars, &pool, &lrun);
  AppendRowsToRun(right, vars, &pool, &rrun);
  BlockRun out = HashJoinRuns(lrun, rrun, none, vars, &pool);
  EXPECT_EQ(SortedKeys(RunToRows(out, vars), vars),
            SortedKeys(HashJoinRows(left, right, none), vars));
}

// --- vectorized scan vs tuple scan ---

class VectorizedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(555);
    // Small domains force repeated triples (multi-fragment histories)
    // and every pattern shape to match something; small blocks force a
    // deep compressed forest, so the scan runs through the SIMD path
    // over many leaves.
    std::vector<TemporalTriple> data;
    for (int i = 0; i < 3000; ++i) {
      Triple t{rng.Uniform(40) + 1, rng.Uniform(8) + 1, rng.Uniform(60) + 1};
      const Chronon s = static_cast<Chronon>(rng.Uniform(2000));
      data.push_back({t, {s, s + 1 + static_cast<Chronon>(rng.Uniform(400))}});
    }
    ASSERT_TRUE(graph_
                    .Load(data)
                    .ok());
    data_ = std::move(data);
  }

  TemporalGraph graph_{TemporalGraphOptions{.block_capacity = 64,
                                            .compress_leaves = true}};
  std::vector<TemporalTriple> data_;
};

TEST_F(VectorizedScanTest, MatchesScanToRowsOnAllPatternShapes) {
  Rng rng(556);
  BlockPool pool;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const TemporalTriple& tt = data_[rng.Uniform(data_.size())];
      CompiledPattern cp;
      int slot = 0;
      if (mask & 1) {
        cp.spec.s = tt.triple.s;
      } else {
        cp.var_s = slot++;
      }
      if (mask & 2) {
        cp.spec.p = tt.triple.p;
      } else {
        cp.var_p = slot++;
      }
      if (mask & 4) {
        cp.spec.o = tt.triple.o;
      } else {
        cp.var_o = slot++;
      }
      cp.var_t = slot++;
      const Chronon qs = static_cast<Chronon>(rng.Uniform(2000));
      cp.spec.time = {qs, qs + 1 + static_cast<Chronon>(rng.Uniform(600))};
      const size_t num_vars = static_cast<size_t>(slot);
      std::vector<VarInfo> vars;
      for (int v = 0; v + 1 < slot; ++v) {
        vars.push_back({std::string("k").append(std::to_string(v)), false,
                        false});
      }
      vars.push_back({"t", true, false});

      std::vector<Row> want;
      ScanToRows(graph_, cp, num_vars, vars, &want);

      ExecStats stats;
      BlockRun run;
      VectorizedScan(graph_, cp, num_vars, vars, /*sort_slot=*/-1, &pool,
                     &run, &stats);
      EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars),
                SortedKeys(want, vars))
          << "mask " << mask;
      EXPECT_EQ(stats.rows_scanned, want.size());
      EXPECT_EQ(stats.patterns_scanned, 1u);

      // A requested ordering on a bound key slot is honored.
      if (cp.var_o >= 0) {
        BlockRun sorted_run;
        VectorizedScan(graph_, cp, num_vars, vars, cp.var_o, &pool,
                       &sorted_run, nullptr);
        EXPECT_EQ(sorted_run.sorted_by, cp.var_o);
        for (size_t i = 1; i < sorted_run.size(); ++i) {
          EXPECT_LE(sorted_run.term(i - 1, cp.var_o),
                    sorted_run.term(i, cp.var_o));
        }
        EXPECT_EQ(sorted_run.size(), want.size());
      }
    }
  }
}

TEST_F(VectorizedScanTest, RepeatedVariableSlotsFilterEquality) {
  // {?x ?p ?x}: subject must equal object.
  CompiledPattern cp;
  cp.var_s = 0;
  cp.var_p = 1;
  cp.var_o = 0;
  cp.spec.time = Interval::All();
  const std::vector<VarInfo> vars = {{"x", false, false},
                                     {"p", false, false}};
  std::vector<Row> want;
  ScanToRows(graph_, cp, 2, vars, &want);
  BlockPool pool;
  BlockRun run;
  VectorizedScan(graph_, cp, 2, vars, -1, &pool, &run, nullptr);
  EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars), SortedKeys(want, vars));
}

// --- sideways key filter ---

TEST_F(VectorizedScanTest, KeyFilterKeepsEveryMatchingRowAndTheSortOrder) {
  Rng rng(557);
  BlockPool pool;
  const std::vector<VarInfo> vars = {
      {"s", false, false}, {"o", false, false}, {"t", true, false}};
  // The filter on the subject slot, then on the object slot: the two
  // reach different index components.
  for (int slot : {0, 1}) {
    for (int round = 0; round < 4; ++round) {
      CompiledPattern cp;
      cp.var_s = 0;
      cp.spec.p = rng.Uniform(8) + 1;
      cp.var_o = 1;
      cp.var_t = 2;
      const Chronon qs = static_cast<Chronon>(rng.Uniform(1500));
      cp.spec.time = {qs, qs + 1 + static_cast<Chronon>(rng.Uniform(900))};
      KeyFilter filter(slot);
      std::set<TermId> keys;
      for (int k = 0; k < 6; ++k) {
        const TermId id = rng.Uniform(slot == 0 ? 40 : 60) + 1;
        keys.insert(id);
        filter.Add(id);
      }

      ExecStats all_stats, some_stats;
      BlockRun all, some;
      VectorizedScan(graph_, cp, 3, vars, slot, &pool, &all, &all_stats);
      VectorizedScan(graph_, cp, 3, vars, slot, &pool, &some, &some_stats,
                     &filter);
      EXPECT_EQ(some.sorted_by, slot);
      for (size_t i = 1; i < some.size(); ++i) {
        EXPECT_LE(some.term(i - 1, slot), some.term(i, slot));
      }
      EXPECT_EQ(some_stats.rows_scanned, some.size());
      EXPECT_EQ(all_stats.key_filtered_fragments, 0u);

      // A subset of the unfiltered rows that holds every row whose key
      // is in the set; anything else passed through a shared bit.
      const std::vector<Row> all_rows = RunToRows(all, vars);
      const std::vector<Row> some_rows = RunToRows(some, vars);
      const std::vector<std::string> all_keys = SortedKeys(all_rows, vars);
      const std::vector<std::string> some_keys = SortedKeys(some_rows, vars);
      EXPECT_TRUE(std::includes(all_keys.begin(), all_keys.end(),
                                some_keys.begin(), some_keys.end()));
      std::vector<Row> want;
      for (const Row& row : all_rows) {
        if (keys.contains(row.terms[static_cast<size_t>(slot)])) {
          want.push_back(row);
        }
      }
      const std::vector<std::string> want_keys = SortedKeys(want, vars);
      EXPECT_TRUE(std::includes(some_keys.begin(), some_keys.end(),
                                want_keys.begin(), want_keys.end()));
      for (const Row& row : some_rows) {
        EXPECT_TRUE(filter.MayContain(row.terms[static_cast<size_t>(slot)]));
      }
      if (some.size() < all.size()) {
        EXPECT_GT(some_stats.key_filtered_fragments, 0u);
      }
    }
  }
}

TEST_F(VectorizedScanTest, KeyFilterOnASlotThePatternDoesNotBindIsIgnored) {
  CompiledPattern cp;
  cp.var_s = 0;
  cp.spec.p = 3;
  cp.var_o = 1;
  cp.spec.time = Interval::All();
  const std::vector<VarInfo> vars = {
      {"s", false, false}, {"o", false, false}, {"x", false, false}};
  KeyFilter filter(2);  // ?x: bound elsewhere, not by this pattern
  filter.Add(1);
  BlockPool pool;
  BlockRun all, some;
  ExecStats stats;
  VectorizedScan(graph_, cp, 3, vars, -1, &pool, &all, nullptr);
  VectorizedScan(graph_, cp, 3, vars, -1, &pool, &some, &stats, &filter);
  EXPECT_EQ(SortedKeys(RunToRows(some, vars), vars),
            SortedKeys(RunToRows(all, vars), vars));
  EXPECT_EQ(stats.key_filtered_fragments, 0u);
}

TEST(KeyFilterTest, FromRunDeclinesUnboundKeys) {
  BlockPool pool;
  BlockRun run;
  for (TermId id : {TermId{5}, TermId{9}, kInvalidTerm}) {
    auto [blk, r] = run.Append(&pool, 1);
    blk->term_col(0)[r] = id;
  }
  EXPECT_FALSE(KeyFilter::FromRun(run, 0, nullptr).has_value());
  const RowSelection bound = {0, 1};
  const std::optional<KeyFilter> filter = KeyFilter::FromRun(run, 0, &bound);
  ASSERT_TRUE(filter.has_value());
  EXPECT_EQ(filter->slot(), 0);
  EXPECT_TRUE(filter->MayContain(5));
  EXPECT_TRUE(filter->MayContain(9));
}

TEST(KeyFilterTest, CollidingKeyPassesTheScanButTheJoinStaysExact) {
  // Two ids that share a filter bit, and a third that shares none with
  // the first. The hash spreads consecutive ids evenly, so the partner
  // of id 1 lies tens of thousands of ids away.
  constexpr TermId kSearch = TermId{1} << 18;
  const TermId a = 1;
  KeyFilter fa(0);
  fa.Add(a);
  TermId b = a + 1;
  while (b < kSearch && !fa.MayContain(b)) ++b;
  ASSERT_LT(b, kSearch) << "no id shares a filter bit with id 1";
  const TermId c = a + 1;
  ASSERT_FALSE(fa.MayContain(c));

  // Subject a carries the anchor fact; a, b and c all carry p2 facts.
  Dictionary dict;
  for (TermId id = 1; id <= b + 4; ++id) {
    ASSERT_EQ(dict.Intern(std::string("e").append(std::to_string(id))), id);
  }
  const TermId p1 = b + 1, p2 = b + 2, anchor = b + 3, value = b + 4;
  const Interval always{0, 1000};
  const std::vector<TemporalTriple> data = {
      {{a, p1, anchor}, always},
      {{a, p2, value}, always},
      {{b, p2, value}, always},
      {{c, p2, value}, always},
  };
  TemporalGraph graph;
  NaiveStore naive;
  ASSERT_TRUE(graph.Load(data).ok());
  ASSERT_TRUE(naive.Load(data).ok());
  const std::string q = "SELECT ?s ?x { ?s " + dict.Decode(p1) + " " +
                        dict.Decode(anchor) + " ?t . ?s " + dict.Decode(p2) +
                        " ?x ?t }";
  auto got = QueryEngine(&graph, &dict).ExecutePlan(*sparqlt::Parse(q),
                                                      {0, 1});
  auto want = QueryEngine(&naive, &dict).ExecutePlan(*sparqlt::Parse(q),
                                                       {0, 1});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->rows.size(), 1u);
  EXPECT_EQ(got->rows, want->rows);
  EXPECT_EQ(got->rows[0][0].term, dict.Decode(a));
  // Step 2 emitted a's row and the colliding b's row; c's was dropped.
  EXPECT_EQ(got->stats.rows_scanned, 3u);
  EXPECT_EQ(got->stats.key_filtered_fragments, 1u);
  EXPECT_EQ(want->stats.rows_scanned, 4u);
  EXPECT_EQ(want->stats.key_filtered_fragments, 0u);
}

// --- VectorizedScan over a live Epoch ---

/// A random assert/retract history over a small universe. The first 60%
/// of its events are the base graph of `epoch_` and the rest its
/// overlay, published in batches of 1-16 deltas; `overlay_only_` holds
/// the whole history as overlay over an empty base.
class EpochScanTest : public ::testing::Test {
 protected:
  struct Event {
    Chronon at;
    bool is_assert;
    Triple t;
  };

  void SetUp() override {
    Rng rng(558);
    std::map<Triple, bool> live;
    Chronon at = 1;
    for (int i = 0; i < 4000; ++i) {
      const TermId s = rng.Uniform(40) + 1;
      // Every tenth triple repeats its subject as object ({?x ?p ?x}).
      const TermId o = rng.Uniform(10) == 0 ? s : rng.Uniform(60) + 1;
      const Triple t{s, rng.Uniform(8) + 1, o};
      live[t] = !live[t];
      events_.push_back({at, live[t], t});
      at += 1 + static_cast<Chronon>(rng.Uniform(2));
    }
    horizon_ = at;
    const size_t split = events_.size() * 6 / 10;
    auto base = std::make_shared<TemporalGraph>(
        TemporalGraphOptions{.block_capacity = 64, .compress_leaves = true});
    ASSERT_TRUE(base->Load(IntervalsFrom(split)).ok());
    ASSERT_TRUE(naive_.Load(IntervalsFrom(events_.size())).ok());
    epoch_ = std::make_unique<Epoch>(std::move(base),
                                     Overlay(split, &rng), horizon_);
    overlay_only_ = std::make_unique<Epoch>(
        std::make_shared<TemporalGraph>(), Overlay(0, &rng), horizon_);
  }

  /// Events `from`.. as a chunk list published in random batches.
  std::shared_ptr<const DeltaChunk> Overlay(size_t from, Rng* rng) const {
    std::shared_ptr<const DeltaChunk> head;
    for (size_t i = from; i < events_.size();) {
      const size_t n =
          std::min<size_t>(1 + rng->Uniform(16), events_.size() - i);
      std::vector<Delta> batch;
      for (size_t k = i; k < i + n; ++k) {
        batch.push_back(
            Delta{k + 1, events_[k].is_assert, events_[k].t, events_[k].at});
      }
      head = DeltaChunk::Push(head, std::move(batch));
      i += n;
    }
    return head;
  }

  /// The interval history of the first `n` events (open runs end now).
  std::vector<TemporalTriple> IntervalsFrom(size_t n) const {
    std::map<Triple, Chronon> open;
    std::vector<TemporalTriple> out;
    for (size_t i = 0; i < n; ++i) {
      const Event& e = events_[i];
      if (e.is_assert) {
        open[e.t] = e.at;
      } else {
        out.push_back({e.t, Interval(open[e.t], e.at)});
        open.erase(e.t);
      }
    }
    for (const auto& [t, start] : open) {
      out.push_back({t, Interval(start, kChrononNow)});
    }
    return out;
  }

  Interval RandomWindow(Rng* rng) const {
    const Chronon s = static_cast<Chronon>(rng->Uniform(horizon_));
    return {s, s + 1 + static_cast<Chronon>(rng->Uniform(horizon_ / 3))};
  }

  std::vector<Event> events_;
  Chronon horizon_ = 0;
  std::unique_ptr<Epoch> epoch_;
  std::unique_ptr<Epoch> overlay_only_;
  NaiveStore naive_;
};

TEST_F(EpochScanTest, MatchesScanToRowsAndTheOracleOnAllPatternShapes) {
  Rng rng(559);
  BlockPool pool;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const Triple& t = events_[rng.Uniform(events_.size())].t;
      CompiledPattern cp;
      int slot = 0;
      if (mask & 1) {
        cp.spec.s = t.s;
      } else {
        cp.var_s = slot++;
      }
      if (mask & 2) {
        cp.spec.p = t.p;
      } else {
        cp.var_p = slot++;
      }
      if (mask & 4) {
        cp.spec.o = t.o;
      } else {
        cp.var_o = slot++;
      }
      cp.var_t = slot++;
      cp.spec.time = RandomWindow(&rng);
      const size_t num_vars = static_cast<size_t>(slot);
      std::vector<VarInfo> vars;
      for (int v = 0; v + 1 < slot; ++v) {
        vars.push_back({std::string("k").append(std::to_string(v)), false,
                        false});
      }
      vars.push_back({"t", true, false});

      for (const Epoch* epoch : {epoch_.get(), overlay_only_.get()}) {
        std::vector<Row> want, oracle;
        ScanToRows(*epoch, cp, num_vars, vars, &want);
        ScanToRows(naive_, cp, num_vars, vars, &oracle);
        EXPECT_EQ(SortedKeys(want, vars), SortedKeys(oracle, vars));

        ExecStats stats;
        BlockRun run;
        VectorizedScan(*epoch, cp, num_vars, vars, /*sort_slot=*/-1, &pool,
                       &run, &stats);
        EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars),
                  SortedKeys(want, vars))
            << "mask " << mask;
        EXPECT_EQ(stats.rows_scanned, want.size());

        // A requested ordering on a bound key slot is honored.
        if (cp.var_o >= 0) {
          BlockRun sorted_run;
          VectorizedScan(*epoch, cp, num_vars, vars, cp.var_o, &pool,
                         &sorted_run, nullptr);
          EXPECT_EQ(sorted_run.sorted_by, cp.var_o);
          for (size_t i = 1; i < sorted_run.size(); ++i) {
            EXPECT_LE(sorted_run.term(i - 1, cp.var_o),
                      sorted_run.term(i, cp.var_o));
          }
          EXPECT_EQ(SortedKeys(RunToRows(sorted_run, vars), vars),
                    SortedKeys(want, vars));
        }
      }
    }
  }
}

TEST_F(EpochScanTest, KeyFilterDropsOverlayRowsAndCountsThem) {
  Rng rng(560);
  BlockPool pool;
  const std::vector<VarInfo> vars = {
      {"s", false, false}, {"o", false, false}, {"t", true, false}};
  uint64_t overlay_dropped = 0;
  for (int slot : {0, 1}) {
    for (int round = 0; round < 4; ++round) {
      CompiledPattern cp;
      cp.var_s = 0;
      cp.spec.p = rng.Uniform(8) + 1;
      cp.var_o = 1;
      cp.var_t = 2;
      cp.spec.time = RandomWindow(&rng);
      KeyFilter filter(slot);
      for (int k = 0; k < 6; ++k) {
        filter.Add(rng.Uniform(slot == 0 ? 40 : 60) + 1);
      }

      for (const Epoch* epoch : {epoch_.get(), overlay_only_.get()}) {
        // The filter drops a row's fragments exactly when its key is
        // not in the filter.
        std::vector<Row> all, want;
        ScanToRows(*epoch, cp, 3, vars, &all);
        for (const Row& row : all) {
          if (filter.MayContain(row.terms[static_cast<size_t>(slot)])) {
            want.push_back(row);
          }
        }
        ExecStats stats;
        BlockRun got;
        VectorizedScan(*epoch, cp, 3, vars, slot, &pool, &got, &stats,
                       &filter);
        EXPECT_EQ(SortedKeys(RunToRows(got, vars), vars),
                  SortedKeys(want, vars));
        EXPECT_EQ(got.sorted_by, slot);
        for (size_t i = 1; i < got.size(); ++i) {
          EXPECT_LE(got.term(i - 1, slot), got.term(i, slot));
        }
        EXPECT_EQ(stats.rows_scanned, want.size());
        if (epoch != overlay_only_.get()) continue;
        // Over an empty base every fragment is an overlay-born run.
        uint64_t dropped = 0;
        epoch->ScanPattern(cp.spec, [&](const Triple& t, const Interval&) {
          dropped += !filter.MayContain(slot == 0 ? t.s : t.o);
        });
        EXPECT_EQ(stats.key_filtered_fragments, dropped);
        overlay_dropped += dropped;
      }
    }
  }
  EXPECT_GT(overlay_dropped, 0u);
}

TEST_F(EpochScanTest, RepeatedVariablePatternOverAnEpoch) {
  // {?x ?p ?x}: subject must equal object, in base and overlay rows.
  CompiledPattern cp;
  cp.var_s = 0;
  cp.var_p = 1;
  cp.var_o = 0;
  cp.var_t = 2;
  const std::vector<VarInfo> vars = {
      {"x", false, false}, {"p", false, false}, {"t", true, false}};
  BlockPool pool;
  Rng rng(561);
  for (const Interval window :
       {Interval::All(), RandomWindow(&rng), RandomWindow(&rng)}) {
    cp.spec.time = window;
    for (const Epoch* epoch : {epoch_.get(), overlay_only_.get()}) {
      std::vector<Row> want, oracle;
      ScanToRows(*epoch, cp, 3, vars, &want);
      ScanToRows(naive_, cp, 3, vars, &oracle);
      EXPECT_EQ(SortedKeys(want, vars), SortedKeys(oracle, vars));
      EXPECT_FALSE(want.empty()) << window.ToString();
      BlockRun run;
      VectorizedScan(*epoch, cp, 3, vars, -1, &pool, &run, nullptr);
      EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars),
                SortedKeys(want, vars));
    }
  }
}

TEST(EpochScanWindowTest, BaseRunClosedBeforeTheWindowIsDropped) {
  // (1 1 1) is live in the base from 10 and retracted at 30 in the
  // overlay; (1 2 2) stays live.
  auto base = std::make_shared<TemporalGraph>();
  ASSERT_TRUE(base->Load({{Triple{1, 1, 1}, {10, kChrononNow}},
                          {Triple{1, 2, 2}, {5, kChrononNow}}})
                  .ok());
  const Epoch epoch(base,
                    DeltaChunk::Push(nullptr, {Delta{1, false, {1, 1, 1}, 30}}),
                    30);
  CompiledPattern cp;
  cp.spec.s = 1;
  cp.var_p = 0;
  cp.var_o = 1;
  cp.var_t = 2;
  const std::vector<VarInfo> vars = {
      {"p", false, false}, {"o", false, false}, {"t", true, false}};
  BlockPool pool;
  auto scan = [&](Interval window) {
    cp.spec.time = window;
    BlockRun run;
    VectorizedScan(epoch, cp, 3, vars, -1, &pool, &run, nullptr);
    return RunToRows(run, vars);
  };
  const std::vector<Row> late = scan({40, 50});
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].terms[0], 2u);
  EXPECT_EQ(late[0].times[2], TemporalSet(Interval(40, 50)));

  std::vector<Row> meets = scan({25, 45});
  ASSERT_EQ(meets.size(), 2u);
  std::sort(meets.begin(), meets.end(), [](const Row& x, const Row& y) {
    return x.terms[0] < y.terms[0];
  });
  EXPECT_EQ(meets[0].times[2], TemporalSet(Interval(25, 30)));
  EXPECT_EQ(meets[1].times[2], TemporalSet(Interval(25, 45)));
}

// --- fragment grouping: split copies coalesce, gaps spill ---

/// (1 1 1) is live from 10; (1 1 2) has two runs with a gap between
/// them. A stream of short-lived (1 2 o) facts after them overflows the
/// subject-1 leaves again and again, so version splits store both
/// triples as chains of adjacent fragments.
std::vector<TemporalTriple> SplitHistory() {
  std::vector<TemporalTriple> data = {{{1, 1, 1}, {10, kChrononNow}},
                                      {{1, 1, 2}, {20, 300}},
                                      {{1, 1, 2}, {500, 900}}};
  for (TermId i = 0; i < 400; ++i) {
    const Chronon s = 30 + 2 * static_cast<Chronon>(i);
    data.push_back({{1, 2, 100 + i}, {s, s + 5}});
  }
  return data;
}

/// Scans {1 1 ?o ?t} (`var_o` false: {1 1 1 ?t}) under `window` and checks
/// the rows against ScanToRows, that the scan gathered more fragments
/// than it emitted rows, and that each row's element is inline exactly
/// when it is one run. Returns the element per object.
std::map<TermId, TemporalSet> ScanSplitTriples(const TemporalStore& store,
                                               bool var_o, Interval window) {
  CompiledPattern cp;
  cp.spec.s = 1;
  cp.spec.p = 1;
  if (var_o) {
    cp.var_o = 0;
    cp.var_t = 1;
  } else {
    cp.spec.o = 1;
    cp.var_t = 0;
  }
  cp.spec.time = window;
  std::vector<VarInfo> vars;
  if (var_o) vars.push_back({"o", false, false});
  vars.push_back({"t", true, false});
  std::vector<Row> want;
  ScanToRows(store, cp, vars.size(), vars, &want);
  BlockPool pool;
  BlockRun run;
  ExecStats stats;
  VectorizedScan(store, cp, vars.size(), vars, -1, &pool, &run, &stats);
  EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars), SortedKeys(want, vars))
      << window.ToString();
  EXPECT_GT(stats.scan.fragments_gathered, run.size()) << window.ToString();
  std::map<TermId, TemporalSet> out;
  for (size_t i = 0; i < run.size(); ++i) {
    const BindingBlock& blk = run.block_of(i);
    const size_t r = BlockRun::offset_of(i);
    const TemporalSet element = blk.TimeAt(cp.var_t, r);
    EXPECT_EQ(blk.TimeIsSingleRun(cp.var_t, r), element.runs().size() == 1);
    out[var_o ? run.term(i, cp.var_o) : 1] = element;
  }
  return out;
}

TEST(ScanCoalesceTest, SplitCopiesBecomeOneRunAndGapsSpill) {
  const std::vector<TemporalTriple> data = SplitHistory();
  for (bool compress : {false, true}) {
    TemporalGraph graph(TemporalGraphOptions{.block_capacity = 16,
                                             .compress_leaves = compress});
    ASSERT_TRUE(graph.Load(data).ok());
    if (compress) graph.CompressAll();

    const std::map<TermId, TemporalSet> all =
        ScanSplitTriples(graph, true, Interval::All());
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all.at(1), TemporalSet(Interval(10, kChrononNow)));
    EXPECT_EQ(all.at(2), TemporalSet::FromIntervals(
                             {Interval(20, 300), Interval(500, 900)}));

    // Clipped to the window, the copies still make one run per side of
    // the gap.
    const std::map<TermId, TemporalSet> mid =
        ScanSplitTriples(graph, true, Interval(100, 600));
    ASSERT_EQ(mid.size(), 2u);
    EXPECT_EQ(mid.at(1), TemporalSet(Interval(100, 600)));
    EXPECT_EQ(mid.at(2), TemporalSet::FromIntervals(
                             {Interval(100, 300), Interval(500, 600)}));

    // No variable key component: every fragment is one group.
    const std::map<TermId, TemporalSet> one =
        ScanSplitTriples(graph, false, Interval(50, 700));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.at(1), TemporalSet(Interval(50, 700)));
  }
}

TEST(ScanCoalesceTest, EpochDropsFragmentsClippedToEmpty) {
  // Over the split base, the overlay retracts (1 1 1) at 950 and asserts
  // it again at 980: the base-live copy closes at 950.
  auto base = std::make_shared<TemporalGraph>(
      TemporalGraphOptions{.block_capacity = 16, .compress_leaves = true});
  ASSERT_TRUE(base->Load(SplitHistory()).ok());
  const Epoch epoch(base,
                    DeltaChunk::Push(nullptr, {Delta{1, false, {1, 1, 1}, 950},
                                               Delta{2, true, {1, 1, 1}, 980}}),
                    1000);
  const std::map<TermId, TemporalSet> all =
      ScanSplitTriples(epoch, true, Interval::All());
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at(1), TemporalSet::FromIntervals(
                           {Interval(10, 950), Interval(980, kChrononNow)}));
  // In [960, 1000) the closed base copy clips to empty and is dropped;
  // the overlay run is left as one inline run.
  const std::map<TermId, TemporalSet> late =
      ScanSplitTriples(epoch, false, Interval(960, 1000));
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late.at(1), TemporalSet(Interval(980, 1000)));
}

// --- full-validity scans against the coalesced history ---

/// The rows a scan of `cp` must emit when its time variable needs the
/// full element, built from the interval history `data` alone (through
/// neither scan): one row per triple that matches the pattern's
/// constants and repeated variables, passes `filter` when given, and
/// has a run meeting cp.spec.time, bound to the triple's whole
/// coalesced validity.
std::vector<std::string> FullValidityRows(
    const std::vector<TemporalTriple>& data, const CompiledPattern& cp,
    const std::vector<VarInfo>& vars, const KeyFilter* filter = nullptr) {
  std::map<Triple, std::vector<Interval>> history;
  for (const TemporalTriple& tt : data) history[tt.triple].push_back(tt.iv);
  std::vector<Row> rows;
  for (const auto& [t, runs] : history) {
    const TermId comps[3] = {t.s, t.p, t.o};
    const TermId consts[3] = {cp.spec.s, cp.spec.p, cp.spec.o};
    const int slots[3] = {cp.var_s, cp.var_p, cp.var_o};
    bool match = true;
    for (int c = 0; c < 3; ++c) {
      if (consts[c] != kInvalidTerm && comps[c] != consts[c]) match = false;
      for (int d = c + 1; d < 3; ++d) {
        if (slots[c] >= 0 && slots[c] == slots[d] && comps[c] != comps[d]) {
          match = false;
        }
      }
      if (filter != nullptr && slots[c] == filter->slot() &&
          !filter->MayContain(comps[c])) {
        match = false;
      }
    }
    const bool meets = std::any_of(runs.begin(), runs.end(), [&](const auto& iv) {
      return iv.Overlaps(cp.spec.time);
    });
    if (!match || !meets) continue;
    Row row(vars.size());
    for (int c = 0; c < 3; ++c) {
      if (slots[c] >= 0) row.terms[static_cast<size_t>(slots[c])] = comps[c];
    }
    row.times[static_cast<size_t>(cp.var_t)] = TemporalSet::FromIntervals(runs);
    rows.push_back(std::move(row));
  }
  return SortedKeys(rows, vars);
}

/// A pattern of shape `mask` (bit 0 s, bit 1 p, bit 2 o constant) around
/// `t` with a time slot, and the variable table it binds; the time
/// variable needs the full element.
CompiledPattern FullValidityPattern(uint64_t mask, const Triple& t,
                                    Interval window,
                                    std::vector<VarInfo>* vars) {
  CompiledPattern cp;
  int slot = 0;
  const TermId comps[3] = {t.s, t.p, t.o};
  TermId* consts[3] = {&cp.spec.s, &cp.spec.p, &cp.spec.o};
  int* slots[3] = {&cp.var_s, &cp.var_p, &cp.var_o};
  vars->clear();
  for (int c = 0; c < 3; ++c) {
    if (mask & (1u << c)) {
      *consts[c] = comps[c];
    } else {
      *slots[c] = slot++;
      vars->push_back({std::string("k").append(std::to_string(c)), false,
                       false});
    }
  }
  cp.var_t = slot;
  vars->push_back({"t", true, /*needs_full=*/true});
  cp.spec.time = window;
  return cp;
}

TEST_F(VectorizedScanTest, FullValidityMatchesTheCoalescedHistory) {
  TemporalGraph plain(TemporalGraphOptions{.block_capacity = 64,
                                           .compress_leaves = false});
  ASSERT_TRUE(plain.Load(data_).ok());
  Rng rng(562);
  BlockPool pool;
  size_t nonempty = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const Triple& t = data_[rng.Uniform(data_.size())].triple;
      const Chronon qs = static_cast<Chronon>(rng.Uniform(2000));
      // Narrow windows reach triples whose other runs lie outside them.
      const Interval window =
          round == 0 ? Interval::All()
                     : Interval(qs, qs + 1 + static_cast<Chronon>(
                                                 rng.Uniform(round * 40)));
      std::vector<VarInfo> vars;
      const CompiledPattern cp = FullValidityPattern(mask, t, window, &vars);
      const std::vector<std::string> want = FullValidityRows(data_, cp, vars);
      nonempty += !want.empty();
      for (const TemporalGraph* graph : {&graph_, &plain}) {
        std::vector<Row> rows;
        ScanToRows(*graph, cp, vars.size(), vars, &rows);
        EXPECT_EQ(SortedKeys(rows, vars), want) << "mask " << mask;
        for (int sort_slot : {-1, cp.var_o}) {
          BlockRun run;
          VectorizedScan(*graph, cp, vars.size(), vars, sort_slot, &pool,
                         &run, nullptr);
          EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars), want)
              << "mask " << mask << ", sort slot " << sort_slot;
        }
      }
    }
  }
  EXPECT_GT(nonempty, 16u);
}

TEST_F(VectorizedScanTest, FullValidityWithRepeatedVariablesAndAKeyFilter) {
  Rng rng(563);
  BlockPool pool;
  // {?x ?p ?x ?t}: subject must equal object.
  CompiledPattern rep;
  rep.var_s = 0;
  rep.var_p = 1;
  rep.var_o = 0;
  rep.var_t = 2;
  const std::vector<VarInfo> rep_vars = {
      {"x", false, false}, {"p", false, false}, {"t", true, true}};
  for (const Interval window : {Interval::All(), Interval(700, 760)}) {
    rep.spec.time = window;
    const std::vector<std::string> want =
        FullValidityRows(data_, rep, rep_vars);
    EXPECT_FALSE(want.empty()) << window.ToString();
    std::vector<Row> rows;
    ScanToRows(graph_, rep, 3, rep_vars, &rows);
    EXPECT_EQ(SortedKeys(rows, rep_vars), want);
    BlockRun run;
    VectorizedScan(graph_, rep, 3, rep_vars, -1, &pool, &run, nullptr);
    EXPECT_EQ(SortedKeys(RunToRows(run, rep_vars), rep_vars), want);
  }

  // {?s <p> ?o ?t} under a sideways filter on ?s, then on ?o.
  const std::vector<VarInfo> vars = {
      {"s", false, false}, {"o", false, false}, {"t", true, true}};
  for (int slot : {0, 1}) {
    for (int round = 0; round < 4; ++round) {
      CompiledPattern cp;
      cp.var_s = 0;
      cp.spec.p = rng.Uniform(8) + 1;
      cp.var_o = 1;
      cp.var_t = 2;
      const Chronon qs = static_cast<Chronon>(rng.Uniform(2000));
      cp.spec.time = {qs, qs + 1 + static_cast<Chronon>(rng.Uniform(200))};
      KeyFilter filter(slot);
      for (int k = 0; k < 6; ++k) {
        filter.Add(rng.Uniform(slot == 0 ? 40 : 60) + 1);
      }
      BlockRun run;
      VectorizedScan(graph_, cp, 3, vars, slot, &pool, &run, nullptr,
                     &filter);
      EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars),
                FullValidityRows(data_, cp, vars, &filter))
          << "slot " << slot << ", round " << round;
    }
  }
}

TEST_F(EpochScanTest, FullValidityMatchesTheCoalescedHistory) {
  const std::vector<TemporalTriple> history = IntervalsFrom(events_.size());
  Rng rng(564);
  BlockPool pool;
  size_t nonempty = 0;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t mask = 0; mask < 8; ++mask) {
      const Triple& t = events_[rng.Uniform(events_.size())].t;
      const Interval window =
          round == 0 ? Interval::All() : RandomWindow(&rng);
      std::vector<VarInfo> vars;
      const CompiledPattern cp = FullValidityPattern(mask, t, window, &vars);
      const std::vector<std::string> want =
          FullValidityRows(history, cp, vars);
      nonempty += !want.empty();
      for (const Epoch* epoch : {epoch_.get(), overlay_only_.get()}) {
        std::vector<Row> rows;
        ScanToRows(*epoch, cp, vars.size(), vars, &rows);
        EXPECT_EQ(SortedKeys(rows, vars), want) << "mask " << mask;
        BlockRun run;
        VectorizedScan(*epoch, cp, vars.size(), vars, cp.var_o, &pool, &run,
                       nullptr);
        EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars), want)
            << "mask " << mask;
      }
    }
  }
  EXPECT_GT(nonempty, 16u);
}

TEST(EpochScanWindowTest, FullValidityKeepsRunsOutsideTheWindow) {
  // Base: (1 1 1) live from 10, (1 2 2) live from 5. Overlay: (1 1 1) is
  // retracted at 30 and asserted again at 60; (1 2 2) is retracted at
  // 20; (1 3 3) is born at 65 and retracted at 75.
  auto base = std::make_shared<TemporalGraph>();
  ASSERT_TRUE(base->Load({{Triple{1, 1, 1}, {10, kChrononNow}},
                          {Triple{1, 2, 2}, {5, kChrononNow}}})
                  .ok());
  const Epoch epoch(base,
                    DeltaChunk::Push(nullptr, {Delta{1, false, {1, 2, 2}, 20},
                                               Delta{2, false, {1, 1, 1}, 30},
                                               Delta{3, true, {1, 1, 1}, 60},
                                               Delta{4, true, {1, 3, 3}, 65},
                                               Delta{5, false, {1, 3, 3}, 75}}),
                    80);
  CompiledPattern cp;
  cp.spec.s = 1;
  cp.var_p = 0;
  cp.var_o = 1;
  cp.var_t = 2;
  cp.spec.time = {70, 80};
  const std::vector<VarInfo> vars = {
      {"p", false, false}, {"o", false, false}, {"t", true, true}};
  // (1 2 2) has no run in the window and is absent; the base-live run of
  // (1 1 1), closed at 30, stays in its element.
  std::vector<Row> want(2, Row(3));
  want[0].terms = {1, 1, kInvalidTerm};
  want[0].times[2] = TemporalSet::FromIntervals(
      {Interval(10, 30), Interval(60, kChrononNow)});
  want[1].terms = {3, 3, kInvalidTerm};
  want[1].times[2] = TemporalSet(Interval(65, 75));

  std::vector<Row> rows;
  ScanToRows(epoch, cp, 3, vars, &rows);
  EXPECT_EQ(SortedKeys(rows, vars), SortedKeys(want, vars));
  BlockPool pool;
  for (int sort_slot : {-1, 0}) {
    BlockRun run;
    VectorizedScan(epoch, cp, 3, vars, sort_slot, &pool, &run, nullptr);
    EXPECT_EQ(SortedKeys(RunToRows(run, vars), vars), SortedKeys(want, vars));
  }
}

// --- the executor's join choice, observed through ResultSet::stats ---

/// One random employment history loaded into both a compressed
/// TemporalGraph and the NaiveStore oracle. Persons work at orgs and
/// live in cities; half the orgs are located in a city, and every city
/// lies in a country, so chains and OPTIONAL groups both match and miss.
class JoinChoiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto id = [&](const std::string& s) { return dict_.Intern(s); };
    std::vector<TemporalTriple> data;
    Rng rng(808);
    const TermId works_at = id("works_at");
    const TermId lives_in = id("lives_in");
    for (int i = 0; i < 500; ++i) {
      const TermId person = id("person" + std::to_string(rng.Uniform(60)));
      const Chronon s = static_cast<Chronon>(rng.Uniform(1000));
      const Interval iv{s, s + 1 + static_cast<Chronon>(rng.Uniform(300))};
      if (rng.Uniform(2) == 0) {
        data.push_back(
            {{person, works_at, id("org" + std::to_string(rng.Uniform(10)))},
             iv});
      } else {
        data.push_back(
            {{person, lives_in, id("city" + std::to_string(rng.Uniform(10)))},
             iv});
      }
    }
    const Interval always{0, 2000};
    for (int i = 0; i < 10; ++i) {
      const TermId city = id("city" + std::to_string(i));
      if (i % 2 == 0) {
        data.push_back({{id("org" + std::to_string(i)), id("located_in"),
                         city},
                        always});
      }
      data.push_back(
          {{city, id("in_country"), id("country" + std::to_string(i % 3))},
           always});
    }
    ASSERT_TRUE(graph_.Load(data).ok());
    ASSERT_TRUE(naive_.Load(data).ok());
  }

  /// Runs `q` (with `order` when given) on the graph and on the oracle,
  /// checks that both return the same non-empty rows, and returns the
  /// graph run.
  ResultSet RunOnBoth(const std::string& q, const std::vector<int>& order) {
    QueryEngine graph_engine(&graph_, &dict_);
    QueryEngine naive_engine(&naive_, &dict_);
    auto parsed = sparqlt::Parse(q);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return {};
    auto run = [&](const QueryEngine& eng) {
      return order.empty() ? eng.Execute(*parsed)
                           : eng.ExecutePlan(*parsed, order);
    };
    auto got = run(graph_engine);
    auto want = run(naive_engine);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (!got.ok() || !want.ok()) return {};
    EXPECT_EQ(Fingerprints(*got), Fingerprints(*want)) << q;
    EXPECT_FALSE(got->rows.empty()) << q;
    return *got;
  }

  static std::vector<std::string> Fingerprints(const ResultSet& rs) {
    std::vector<std::string> keys;
    for (const auto& row : rs.rows) {
      std::string fp;
      for (const Cell& cell : row) cell.AppendFingerprint(&fp);
      keys.push_back(std::move(fp));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  Dictionary dict_;
  TemporalGraph graph_{TemporalGraphOptions{.block_capacity = 64,
                                            .compress_leaves = true}};
  NaiveStore naive_;
};

TEST_F(JoinChoiceTest, SharedSingleKeyMergeJoinsWithoutSort) {
  // The join shares exactly ?person in key position: both scans emit
  // runs sorted by it for free, so the executor merge-joins with no
  // explicit sort.
  const ResultSet rs = RunOnBoth(R"(
    SELECT ?person ?org ?city
    { ?person works_at ?org ?t .
      ?person lives_in ?city ?t . }
  )", {});
  EXPECT_EQ(rs.stats.merge_join_steps, 1u);
  EXPECT_EQ(rs.stats.hash_join_steps, 0u);
  EXPECT_EQ(rs.stats.sort_steps, 0u);
}

TEST_F(JoinChoiceTest, ChainSortsOnceAndDisjointPatternsHashJoin) {
  // ?p works_at ?o . ?o located_in ?c . ?c in_country ?k: step 1 merges
  // on ?o for free; step 2 joins on ?c, but the accumulated side is
  // sorted by ?o, so it is re-sorted once before the second merge.
  const ResultSet chain = RunOnBoth(R"(
    SELECT ?p ?o ?c ?k
    { ?p works_at ?o ?t . ?o located_in ?c ?t2 . ?c in_country ?k ?t3 . }
  )", {0, 1, 2});
  EXPECT_EQ(chain.stats.merge_join_steps, 2u);
  EXPECT_EQ(chain.stats.sort_steps, 1u);
  EXPECT_EQ(chain.stats.hash_join_steps, 0u);

  // No shared variable: the cross product takes the hash path.
  const ResultSet cross = RunOnBoth(R"(
    SELECT ?o ?c ?k { ?o located_in ?c ?t . ?x in_country ?k ?t2 . }
  )", {0, 1});
  EXPECT_EQ(cross.stats.hash_join_steps, 1u);
  EXPECT_EQ(cross.stats.merge_join_steps, 0u);
  EXPECT_EQ(cross.stats.sort_steps, 0u);
}

TEST_F(JoinChoiceTest, OptionalGroupMatchesNaiveAndCountsOnlyOuterJoins) {
  const std::string q = R"(
    SELECT ?p ?o ?c ?oc ?k
    { ?p works_at ?o ?t .
      ?p lives_in ?c ?t .
      OPTIONAL { ?o located_in ?oc ?t2 . ?oc in_country ?k ?t3 . } }
  )";
  const ResultSet rs = RunOnBoth(q, {0, 1});
  // The group's own join is not a plan step.
  EXPECT_EQ(rs.stats.merge_join_steps + rs.stats.hash_join_steps, 1u);

  // join_output_rows = main-chain join output + OPTIONAL left-join
  // output, recomputed here with the reference row operators.
  auto parsed = sparqlt::Parse(q);
  ASSERT_TRUE(parsed.ok());
  auto cq = Compile(*parsed, dict_);
  ASSERT_TRUE(cq.ok());
  ASSERT_EQ(cq->optionals.size(), 1u);
  const size_t nv = cq->vars.size();
  auto scan = [&](const CompiledPattern& cp) {
    std::vector<Row> rows;
    ScanToRows(naive_, cp, nv, cq->vars, &rows);
    return rows;
  };
  auto slot = [&](const std::string& name) {
    for (size_t i = 0; i < nv; ++i) {
      if (cq->vars[i].name == name) return static_cast<int>(i);
    }
    ADD_FAILURE() << "no variable ?" << name;
    return -1;
  };
  const CompiledOptional& opt = cq->optionals[0];
  const std::vector<Row> main =
      HashJoinRows(scan(cq->patterns[0]), scan(cq->patterns[1]), {slot("p")});
  const std::vector<Row> group = HashJoinRows(
      scan(opt.patterns[0]), scan(opt.patterns[1]), {slot("oc")});
  const std::vector<Row> left = LeftHashJoinRows(main, group, {slot("o")});
  // A non-empty group join makes the equality below tell "group join
  // not counted" apart from "counted".
  ASSERT_FALSE(group.empty());
  EXPECT_EQ(rs.stats.join_output_rows, main.size() + left.size());
}

}  // namespace
}  // namespace rdftx::engine
