#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <span>

namespace rdftx::optimizer {

using engine::CompiledPattern;
using engine::CompiledQuery;

namespace {

/// Selectivity charged for each shared temporal variable between two
/// joined patterns (chance two validity elements intersect).
constexpr double kTemporalSelectivity = 0.25;
/// Queries with more patterns than this use the greedy order (the DP
/// table is 2^n).
constexpr size_t kMaxDpPatterns = 14;

// Distinct values of the variable in `slot` of `cp`: the bound
// predicate's distinct subjects or objects, else the graph's.
double DistinctOfVar(const CharSetCatalog& catalog, const CompiledPattern& cp,
                     int slot) {
  const auto* ps = cp.var_p < 0 ? catalog.pred_stats(cp.spec.p) : nullptr;
  if (slot == cp.var_s) {
    if (ps != nullptr) return std::max<double>(1.0, ps->distinct_subjects);
    return std::max<double>(1.0, catalog.total_subjects());
  }
  if (slot == cp.var_o) {
    if (ps != nullptr) return std::max<double>(1.0, ps->distinct_objects);
    return std::max<double>(1.0, catalog.total_objects());
  }
  if (slot == cp.var_p) {
    return std::max<double>(1.0, catalog.total_predicates());
  }
  return 1.0;
}

}  // namespace

// The planning facts of one call. The histogram counts cover the union
// of the characteristic sets its patterns can touch: the sets holding
// each constant predicate of an unbound-subject pattern, plus each bound
// subject's set. A column (one predicate's occurrences, or the subject
// counts, in one window) is filled on first use by one batched sweep of
// the histogram and then read by every estimate of the call. MakeTable
// adds each pattern's scan estimate, which patterns connect, and each
// pattern's key slots with their distinct counts, once per call. A
// table lives on its caller's stack, so the optimizer stays immutable.
struct QueryOptimizer::Table {
  Table(const CharSetCatalog* catalog, const TemporalHistogram* histogram,
        std::span<const CompiledPattern> patterns, uint32_t mask);

  size_t SetIndex(CharSetId cs) const {
    assert(index[cs] != kNotInTable);
    return index[cs];
  }
  size_t PredIndex(TermId p) const {
    auto it = std::find(preds.begin(), preds.end(), p);
    assert(it != preds.end());
    return static_cast<size_t>(it - preds.begin());
  }
  /// Occurrences of preds[j] in `window`, aligned with `sets` (0 for a
  /// set that does not hold it).
  const std::vector<double>& Occurrences(size_t j, const Interval& window);
  /// Distinct subjects alive in `window`, aligned with `sets`.
  const std::vector<double>& Subjects(const Interval& window);

  struct Column {
    size_t pred;  // index into preds; unused for subject columns
    Interval window;
    std::vector<double> values;
  };
  /// One key-position variable of a pattern and its distinct values.
  struct Key {
    int slot;
    double distinct;
  };

  static constexpr uint32_t kNotInTable = ~0u;

  const TemporalHistogram* histogram;
  std::vector<CharSetId> sets;   // ascending
  std::vector<uint32_t> index;   // per set id: its index in sets
  // The patterns' constant predicates first, then every predicate of a
  // bound subject's set whose pattern leaves the predicate unbound.
  std::vector<TermId> preds;
  std::vector<std::vector<uint32_t>> holders;  // per pred: indices into sets
  // Per set: bit j iff it holds preds[j], for the patterns' own
  // predicates (the star formula's has-all test).
  std::vector<uint64_t> pred_bits;
  std::deque<Column> occurrences;   // deque: references stay valid
  std::deque<Column> subjects;

  // Per pattern in MakeTable's mask (0 or empty for the others):
  std::vector<double> scan;            // EstimatePattern
  std::vector<uint32_t> neighbors;     // bit j iff it shares a variable
                                       // with pattern j
  std::vector<std::vector<Key>> keys;  // key slots, in s, p, o order
};

QueryOptimizer::Table::Table(const CharSetCatalog* catalog,
                             const TemporalHistogram* histogram_in,
                             std::span<const CompiledPattern> patterns,
                             uint32_t mask)
    : histogram(histogram_in) {
  auto add_pred = [&](TermId p) {
    if (std::find(preds.begin(), preds.end(), p) == preds.end()) {
      preds.push_back(p);
    }
  };
  // Mark the sets the patterns touch, then number them in id order.
  index.assign(catalog->set_count(), kNotInTable);
  std::vector<CharSetId> bound_sets;  // whose pattern's predicate is unbound
  for (size_t i = 0; i < patterns.size(); ++i) {
    const CompiledPattern& cp = patterns[i];
    if (!(mask & (1u << i))) continue;
    if (cp.var_p < 0) add_pred(cp.spec.p);
    if (cp.var_s >= 0) {
      if (cp.var_p < 0) {
        for (CharSetId cs : catalog->SetsWithPredicate(cp.spec.p)) {
          index[cs] = 0;
        }
      }
    } else if (CharSetId cs = catalog->SetOf(cp.spec.s); cs != kNoCharSet) {
      index[cs] = 0;
      if (cp.var_p >= 0) bound_sets.push_back(cs);
    }
  }
  // The patterns' own predicates come from at most 32 patterns, so they
  // all get a bit; the predicates of bound_sets follow them.
  const size_t bit_preds = preds.size();
  for (CharSetId cs : bound_sets) {
    for (TermId p : catalog->predicates(cs)) add_pred(p);
  }
  for (CharSetId cs = 0; cs < index.size(); ++cs) {
    if (index[cs] == kNotInTable) continue;
    index[cs] = static_cast<uint32_t>(sets.size());
    sets.push_back(cs);
  }
  holders.resize(preds.size());
  pred_bits.assign(sets.size(), 0);
  for (size_t j = 0; j < preds.size(); ++j) {
    for (CharSetId cs : catalog->SetsWithPredicate(preds[j])) {
      const uint32_t i = index[cs];
      if (i == kNotInTable) continue;
      holders[j].push_back(i);
      if (j < bit_preds) pred_bits[i] |= uint64_t{1} << j;
    }
  }
}

const std::vector<double>& QueryOptimizer::Table::Occurrences(
    size_t j, const Interval& window) {
  for (const Column& c : occurrences) {
    if (c.pred == j && c.window == window) return c.values;
  }
  Column& c = occurrences.emplace_back(
      Column{j, window, std::vector<double>(sets.size(), 0.0)});
  std::vector<CharSetId> batch;
  batch.reserve(holders[j].size());
  for (uint32_t i : holders[j]) batch.push_back(sets[i]);
  std::vector<double> counts(batch.size());
  histogram->EstimateOccurrences(batch, preds[j], window, counts);
  for (size_t k = 0; k < counts.size(); ++k) {
    c.values[holders[j][k]] = counts[k];
  }
  return c.values;
}

const std::vector<double>& QueryOptimizer::Table::Subjects(
    const Interval& window) {
  for (const Column& c : subjects) {
    if (c.window == window) return c.values;
  }
  Column& c = subjects.emplace_back(
      Column{0, window, std::vector<double>(sets.size())});
  histogram->EstimateSubjects(sets, window, c.values);
  return c.values;
}

QueryOptimizer::QueryOptimizer(const CharSetCatalog* catalog,
                               const TemporalHistogram* histogram)
    : catalog_(catalog), histogram_(histogram) {}

QueryOptimizer::Table QueryOptimizer::MakeTable(const CompiledQuery& cq,
                                                uint32_t mask) const {
  const size_t n = cq.patterns.size();
  Table table(catalog_, histogram_, cq.patterns, mask);
  table.scan.assign(n, 0.0);
  table.neighbors.assign(n, 0);
  table.keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(mask & (1u << i))) continue;
    const CompiledPattern& cp = cq.patterns[i];
    table.scan[i] = PatternCard(cp, &table);
    for (size_t j = 0; j < n; ++j) {
      if ((mask & (1u << j)) && cp.SharesVariable(cq.patterns[j])) {
        table.neighbors[i] |= 1u << j;
      }
    }
    for (int slot : cp.KeySlots()) {
      table.keys[i].push_back(Table::Key{slot,
                                         DistinctOfVar(*catalog_, cp, slot)});
    }
  }
  return table;
}

double QueryOptimizer::EstimatePattern(const CompiledPattern& cp) const {
  Table table(catalog_, histogram_, std::span(&cp, 1), 1);
  return PatternCard(cp, &table);
}

double QueryOptimizer::PatternCard(const CompiledPattern& cp,
                                   Table* table) const {
  if (cp.never_matches || cp.spec.time.empty()) return 0.0;
  const bool s = cp.var_s < 0;
  const bool p = cp.var_p < 0;
  const bool o = cp.var_o < 0;
  const Interval& w = cp.spec.time;

  double card;
  if (s) {
    CharSetId cs = catalog_->SetOf(cp.spec.s);
    if (cs == kNoCharSet) return 0.0;
    const size_t set = table->SetIndex(cs);
    double subjects = std::max(1.0, table->Subjects(w)[set]);
    auto per_subject = [&](TermId pred) {
      return table->Occurrences(table->PredIndex(pred), w)[set] / subjects;
    };
    if (p) {
      card = per_subject(cp.spec.p);
    } else {
      card = 0.0;
      for (TermId pred : catalog_->predicates(cs)) card += per_subject(pred);
    }
  } else if (p) {
    // The sum over the predicate's sets, in ascending set order.
    const size_t j = table->PredIndex(cp.spec.p);
    const std::vector<double>& occurrences = table->Occurrences(j, w);
    card = 0.0;
    for (uint32_t set : table->holders[j]) card += occurrences[set];
  } else {
    card = static_cast<double>(catalog_->total_triples());
  }
  if (o) {
    // Constant object: scale by the object selectivity of the bound
    // predicate, else of the whole graph.
    double distinct = 2.0;
    if (p) {
      const auto* ps = catalog_->pred_stats(cp.spec.p);
      if (ps != nullptr && ps->distinct_objects > 0) {
        distinct = static_cast<double>(ps->distinct_objects);
      }
    } else {
      distinct = std::max<double>(
          2.0, static_cast<double>(catalog_->total_objects()));
    }
    card /= distinct;
  }
  return std::max(card, 0.001);
}

double QueryOptimizer::JoinSelectivity(const CompiledQuery& cq,
                                       const Table& table, uint32_t mask,
                                       int next) {
  const size_t n = static_cast<size_t>(next);
  double sel = 1.0;
  // Key-variable equalities: 1 / max(distinct on either side).
  for (const Table::Key& key : table.keys[n]) {
    double left_distinct = 0.0;
    for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
      for (const Table::Key& lk : table.keys[std::countr_zero(rest)]) {
        if (lk.slot != key.slot) continue;
        left_distinct = left_distinct == 0.0
                            ? lk.distinct
                            : std::min(left_distinct, lk.distinct);
        break;
      }
    }
    if (left_distinct > 0.0) sel /= std::max(left_distinct, key.distinct);
  }
  // Shared temporal variables: fixed overlap selectivity.
  const int var_t = cq.patterns[n].var_t;
  if (var_t >= 0) {
    for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
      if (cq.patterns[std::countr_zero(rest)].var_t == var_t) {
        sel *= kTemporalSelectivity;
        break;
      }
    }
  }
  return sel;
}

double QueryOptimizer::EstimateSubsetCard(const CompiledQuery& cq,
                                          uint32_t mask) const {
  Table table = MakeTable(cq, mask);
  return SubsetCard(cq, mask, &table);
}

double QueryOptimizer::SubsetCard(const CompiledQuery& cq, uint32_t mask,
                                  Table* table) const {
  // Subject-star special case: every pattern shares one subject
  // variable and has a constant predicate -> the characteristic-set
  // formula of §6.1, with time-varying counts from the histogram.
  int star_slot = -2;
  bool star = true;
  Interval window = Interval::All();
  std::vector<TermId> preds;
  for (size_t i = 0; i < cq.patterns.size() && star; ++i) {
    if (!(mask & (1u << i))) continue;
    const CompiledPattern& cp = cq.patterns[i];
    if (cp.var_s < 0 || cp.var_p >= 0 || cp.var_o < 0) {
      star = false;
      break;
    }
    if (star_slot == -2) {
      star_slot = cp.var_s;
    } else if (star_slot != cp.var_s) {
      star = false;
      break;
    }
    preds.push_back(cp.spec.p);
    window = window.Intersect(cp.spec.time);
  }
  if (star && preds.size() >= 2) {
    // Walk the sets of the rarest predicate that hold all of them, in
    // ascending order (the order of any one predicate's set list).
    std::vector<const std::vector<double>*> occurrences;
    uint64_t need = 0;
    size_t rarest = table->PredIndex(preds[0]);
    for (TermId p : preds) {
      const size_t j = table->PredIndex(p);
      assert(j < 64);
      need |= uint64_t{1} << j;
      occurrences.push_back(&table->Occurrences(j, window));
      if (table->holders[j].size() < table->holders[rarest].size()) {
        rarest = j;
      }
    }
    const std::vector<double>& subject_counts = table->Subjects(window);
    double total = 0.0;
    for (uint32_t set : table->holders[rarest]) {
      if ((table->pred_bits[set] & need) != need) continue;
      const double subjects = subject_counts[set];
      if (subjects <= 0.0) continue;
      double card = subjects;
      for (const std::vector<double>* occ : occurrences) {
        card *= (*occ)[set] / subjects;
      }
      total += card;
    }
    return total;
  }

  // General case: build up with pairwise independence, each step taking
  // the lowest pattern connected to those built, else the lowest left.
  double card = 0.0;
  uint32_t built = 0;
  uint32_t reach = 0;  // patterns connected to `built`
  while (built != mask) {
    const uint32_t left = mask & ~built;
    const uint32_t connected = left & reach;
    const int next = std::countr_zero(connected != 0 ? connected : left);
    const double np_card = table->scan[static_cast<size_t>(next)];
    if (built == 0) {
      card = np_card;
    } else {
      card = card * np_card * JoinSelectivity(cq, *table, built, next);
    }
    built |= 1u << next;
    reach |= table->neighbors[static_cast<size_t>(next)];
  }
  return card;
}

double QueryOptimizer::EstimateOrderCost(const CompiledQuery& cq,
                                         const std::vector<int>& order) const {
  // Left-deep hash-join chain: pay each scan, each build+probe, and
  // each intermediate's cardinality.
  Table table = MakeTable(cq, ~0u);
  double cost = 0.0;
  uint32_t mask = 0;
  double card = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const double step = table.scan[static_cast<size_t>(order[k])];
    cost += step;
    uint32_t new_mask = mask | (1u << order[k]);
    if (k == 0) {
      card = step;
    } else {
      double out = SubsetCard(cq, new_mask, &table);
      cost += card + out;  // build side + output
      card = out;
    }
    mask = new_mask;
  }
  return cost;
}

std::vector<int> QueryOptimizer::ChooseOrder(const CompiledQuery& cq) const {
  const size_t n = cq.patterns.size();
  if (n <= 1) return n == 1 ? std::vector<int>{0} : std::vector<int>{};
  if (n > kMaxDpPatterns) {
    return engine::QueryEngine::GreedyOrder(cq);
  }
  // Left-deep DP over subsets (bottom-up, extending only by patterns
  // connected to the subset when any unused one is).
  const uint32_t full = (1u << n) - 1;
  struct State {
    double cost = std::numeric_limits<double>::infinity();
    double card = 0.0;
    int last = -1;
    uint32_t prev = 0;
  };
  std::vector<State> dp(full + 1);
  // Every estimate is computed once per call: each pattern's scan, and
  // each subset's cardinality (NaN until first needed). All of them read
  // their histogram counts from one table.
  Table table = MakeTable(cq, full);
  std::vector<double> subset_card(full + 1,
                                  std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < n; ++i) {
    uint32_t m = 1u << i;
    dp[m].cost = table.scan[i];
    dp[m].card = table.scan[i];
    dp[m].last = static_cast<int>(i);
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (std::isinf(dp[mask].cost)) continue;
    const uint32_t unused = full & ~mask;
    uint32_t connected = 0;
    for (uint32_t rest = mask; rest != 0; rest &= rest - 1) {
      connected |= table.neighbors[std::countr_zero(rest)];
    }
    connected &= unused;
    for (uint32_t rest = connected != 0 ? connected : unused; rest != 0;
         rest &= rest - 1) {
      const int i = std::countr_zero(rest);
      const uint32_t next_mask = mask | (1u << i);
      double& out = subset_card[next_mask];
      if (std::isnan(out)) out = SubsetCard(cq, next_mask, &table);
      double cost = dp[mask].cost + table.scan[static_cast<size_t>(i)] +
                    dp[mask].card + out;
      if (cost < dp[next_mask].cost) {
        dp[next_mask].cost = cost;
        dp[next_mask].card = out;
        dp[next_mask].last = i;
        dp[next_mask].prev = mask;
      }
    }
  }
  // Reconstruct.
  std::vector<int> order;
  uint32_t mask = full;
  while (mask != 0) {
    order.push_back(dp[mask].last);
    mask = dp[mask].prev;
  }
  std::reverse(order.begin(), order.end());
  return order;
}

engine::JoinOrderProvider QueryOptimizer::AsProvider() const {
  return [this](const CompiledQuery& cq) { return ChooseOrder(cq); };
}

}  // namespace rdftx::optimizer
