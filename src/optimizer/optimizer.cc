#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

QueryOptimizer::QueryOptimizer(const CharSetCatalog* catalog,
                               const TemporalHistogram* histogram)
    : catalog_(catalog), histogram_(histogram) {}

double QueryOptimizer::EstimatePattern(const CompiledPattern& cp) const {
  if (cp.never_matches || cp.spec.time.empty()) return 0.0;
  const bool s = cp.var_s < 0;
  const bool p = cp.var_p < 0;
  const bool o = cp.var_o < 0;
  const Interval& w = cp.spec.time;

  if (s) {
    CharSetId cs = catalog_->SetOf(cp.spec.s);
    if (cs == kNoCharSet) return 0.0;
    const auto& stats = catalog_->stats(cs);
    double subjects =
        std::max(1.0, histogram_->EstimateSubjects(cs, w));
    auto per_subject = [&](TermId pred) {
      return histogram_->EstimateOccurrences(cs, pred, w) / subjects;
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
    double card = histogram_->EstimatePredicateTriples(cp.spec.p, w);
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
  std::vector<double> scan(cq.patterns.size(), 0.0);
  for (size_t i = 0; i < cq.patterns.size(); ++i) {
    if (mask & (1u << i)) scan[i] = EstimatePattern(cq.patterns[i]);
  }
  return SubsetCard(cq, mask, scan);
}

double QueryOptimizer::SubsetCard(const CompiledQuery& cq, uint32_t mask,
                                  const std::vector<double>& scan) const {
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
    double total = 0.0;
    for (CharSetId cs : catalog_->SetsWithPredicate(preds[0])) {
      const auto& stats = catalog_->stats(cs);
      bool has_all = true;
      for (TermId p : preds) {
        if (!std::binary_search(stats.predicates.begin(),
                                stats.predicates.end(), p)) {
          has_all = false;
          break;
        }
      }
      if (!has_all) continue;
      double subjects = histogram_->EstimateSubjects(cs, window);
      if (subjects <= 0.0) continue;
      double card = subjects;
      for (TermId p : preds) {
        card *= histogram_->EstimateOccurrences(cs, p, window) / subjects;
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
  std::vector<double> scan(cq.patterns.size());
  for (size_t i = 0; i < cq.patterns.size(); ++i) {
    scan[i] = EstimatePattern(cq.patterns[i]);
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
      double out = SubsetCard(cq, new_mask, scan);
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
  // each subset's cardinality (NaN until first needed).
  std::vector<double> scan(n);
  std::vector<double> subset_card(full + 1,
                                  std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < n; ++i) {
    uint32_t m = 1u << i;
    scan[i] = EstimatePattern(cq.patterns[i]);
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
      if (std::isnan(out)) out = SubsetCard(cq, next_mask, scan);
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
