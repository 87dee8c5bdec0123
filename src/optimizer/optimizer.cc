#include "optimizer/optimizer.h"

#include <algorithm>
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

}  // namespace

// The histogram counts of one call, over the union of the
// characteristic sets its patterns can touch: the sets holding each
// constant predicate of an unbound-subject pattern, plus each bound
// subject's set. A column (one predicate's occurrences, or the subject
// counts, in one window) is filled on first use by one batched sweep of
// the histogram and then read by every estimate of the call. A table
// lives on its caller's stack, so the optimizer stays immutable.
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
    for (TermId p : catalog->stats(cs).predicates) add_pred(p);
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

  if (s) {
    CharSetId cs = catalog_->SetOf(cp.spec.s);
    if (cs == kNoCharSet) return 0.0;
    const auto& stats = catalog_->stats(cs);
    const size_t set = table->SetIndex(cs);
    double subjects = std::max(1.0, table->Subjects(w)[set]);
    auto per_subject = [&](TermId pred) {
      return table->Occurrences(table->PredIndex(pred), w)[set] / subjects;
    };
    double card;
    if (p) {
      card = per_subject(cp.spec.p);
    } else {
      card = 0.0;
      for (TermId pred : stats.predicates) card += per_subject(pred);
    }
    if (o) {
      // Constant object: scale by object selectivity of the predicate(s).
      double distinct = 2.0;
      if (p) {
        const auto* ps = catalog_->pred_stats(cp.spec.p);
        if (ps != nullptr && ps->distinct_objects > 0) {
          distinct = static_cast<double>(ps->distinct_objects);
        }
      } else {
        distinct = std::max<double>(2.0,
                                    static_cast<double>(
                                        catalog_->total_objects()));
      }
      card /= distinct;
    }
    return std::max(card, 0.001);
  }
  if (p) {
    // The sum over the predicate's sets, in ascending set order.
    const size_t j = table->PredIndex(cp.spec.p);
    const std::vector<double>& occurrences = table->Occurrences(j, w);
    double card = 0.0;
    for (uint32_t set : table->holders[j]) card += occurrences[set];
    if (o) {
      const auto* ps = catalog_->pred_stats(cp.spec.p);
      double distinct =
          ps != nullptr && ps->distinct_objects > 0
              ? static_cast<double>(ps->distinct_objects)
              : 2.0;
      card /= distinct;
    }
    return std::max(card, 0.001);
  }
  // Subject and predicate unbound.
  double total = static_cast<double>(catalog_->total_triples());
  if (o) {
    total /= std::max<double>(
        2.0, static_cast<double>(catalog_->total_objects()));
  }
  return std::max(total, 0.001);
}

double QueryOptimizer::DistinctOfVar(const CompiledPattern& cp,
                                     int slot) const {
  const bool p_bound = cp.var_p < 0;
  const auto* ps = p_bound ? catalog_->pred_stats(cp.spec.p) : nullptr;
  if (slot == cp.var_s) {
    if (ps != nullptr) return std::max<double>(1.0, ps->distinct_subjects);
    return std::max<double>(1.0, catalog_->total_subjects());
  }
  if (slot == cp.var_o) {
    if (ps != nullptr) return std::max<double>(1.0, ps->distinct_objects);
    return std::max<double>(1.0, catalog_->total_objects());
  }
  if (slot == cp.var_p) {
    return std::max<double>(1.0, catalog_->total_predicates());
  }
  return 1.0;
}

double QueryOptimizer::JoinSelectivity(const CompiledQuery& cq,
                                       uint32_t mask, int next) const {
  const CompiledPattern& np = cq.patterns[static_cast<size_t>(next)];
  double sel = 1.0;
  // Key-variable equalities: 1 / max(distinct on either side).
  for (int slot : np.KeySlots()) {
    double left_distinct = 0.0;
    for (size_t i = 0; i < cq.patterns.size(); ++i) {
      if (!(mask & (1u << i))) continue;
      const CompiledPattern& lp = cq.patterns[i];
      std::vector<int> ls = lp.KeySlots();
      if (std::find(ls.begin(), ls.end(), slot) == ls.end()) continue;
      double d = DistinctOfVar(lp, slot);
      left_distinct = left_distinct == 0.0 ? d : std::min(left_distinct, d);
    }
    if (left_distinct > 0.0) {
      sel /= std::max(left_distinct, DistinctOfVar(np, slot));
    }
  }
  // Shared temporal variables: fixed overlap selectivity.
  if (np.var_t >= 0) {
    for (size_t i = 0; i < cq.patterns.size(); ++i) {
      if ((mask & (1u << i)) &&
          cq.patterns[i].var_t == np.var_t) {
        sel *= kTemporalSelectivity;
        break;
      }
    }
  }
  return sel;
}

double QueryOptimizer::EstimateSubsetCard(const CompiledQuery& cq,
                                          uint32_t mask) const {
  Table table(catalog_, histogram_, cq.patterns, mask);
  std::vector<double> scan(cq.patterns.size(), 0.0);
  for (size_t i = 0; i < cq.patterns.size(); ++i) {
    if (mask & (1u << i)) scan[i] = PatternCard(cq.patterns[i], &table);
  }
  return SubsetCard(cq, mask, scan, &table);
}

double QueryOptimizer::SubsetCard(const CompiledQuery& cq, uint32_t mask,
                                  const std::vector<double>& scan,
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

  // General case: build up with pairwise independence.
  double card = 0.0;
  uint32_t built = 0;
  while (built != mask) {
    int next = -1;
    for (size_t i = 0; i < cq.patterns.size(); ++i) {
      uint32_t bit = 1u << i;
      if (!(mask & bit) || (built & bit)) continue;
      if (built == 0) {
        next = static_cast<int>(i);
        break;
      }
      bool connected = false;
      for (size_t j = 0; j < cq.patterns.size(); ++j) {
        if ((built & (1u << j)) &&
            cq.patterns[i].SharesVariable(cq.patterns[j])) {
          connected = true;
          break;
        }
      }
      if (connected) {
        next = static_cast<int>(i);
        break;
      }
      if (next < 0) next = static_cast<int>(i);
    }
    const double np_card = scan[static_cast<size_t>(next)];
    if (built == 0) {
      card = np_card;
    } else {
      card = card * np_card * JoinSelectivity(cq, built, next);
    }
    built |= 1u << next;
  }
  return card;
}

double QueryOptimizer::EstimateOrderCost(const CompiledQuery& cq,
                                         const std::vector<int>& order) const {
  // Left-deep hash-join chain: pay each scan, each build+probe, and
  // each intermediate's cardinality.
  Table table(catalog_, histogram_, cq.patterns, ~0u);
  std::vector<double> scan(cq.patterns.size());
  for (size_t i = 0; i < cq.patterns.size(); ++i) {
    scan[i] = PatternCard(cq.patterns[i], &table);
  }
  double cost = 0.0;
  uint32_t mask = 0;
  double card = 0.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const double step = scan[static_cast<size_t>(order[k])];
    cost += step;
    uint32_t new_mask = mask | (1u << order[k]);
    if (k == 0) {
      card = step;
    } else {
      double out = SubsetCard(cq, new_mask, scan, &table);
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
  // Left-deep DP over subsets (bottom-up, avoiding cross products when
  // a connected extension exists).
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
  Table table(catalog_, histogram_, cq.patterns, full);
  std::vector<double> scan(n);
  std::vector<double> subset_card(full + 1,
                                  std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < n; ++i) {
    uint32_t m = 1u << i;
    scan[i] = PatternCard(cq.patterns[i], &table);
    dp[m].cost = scan[i];
    dp[m].card = scan[i];
    dp[m].last = static_cast<int>(i);
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (std::isinf(dp[mask].cost) || mask == 0) continue;
    // Does any unused pattern connect to `mask`?
    bool has_connected = false;
    for (size_t i = 0; i < n; ++i) {
      uint32_t bit = 1u << i;
      if (mask & bit) continue;
      for (size_t j = 0; j < n; ++j) {
        if ((mask & (1u << j)) &&
            cq.patterns[i].SharesVariable(cq.patterns[j])) {
          has_connected = true;
          break;
        }
      }
      if (has_connected) break;
    }
    for (size_t i = 0; i < n; ++i) {
      uint32_t bit = 1u << i;
      if (mask & bit) continue;
      if (has_connected) {
        bool connected = false;
        for (size_t j = 0; j < n; ++j) {
          if ((mask & (1u << j)) &&
              cq.patterns[i].SharesVariable(cq.patterns[j])) {
            connected = true;
            break;
          }
        }
        if (!connected) continue;
      }
      uint32_t next_mask = mask | bit;
      double& out = subset_card[next_mask];
      if (std::isnan(out)) out = SubsetCard(cq, next_mask, scan, &table);
      double cost = dp[mask].cost + scan[i] + dp[mask].card + out;
      if (cost < dp[next_mask].cost) {
        dp[next_mask].cost = cost;
        dp[next_mask].card = out;
        dp[next_mask].last = static_cast<int>(i);
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
