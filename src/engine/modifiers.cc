#include "engine/modifiers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "engine/operators.h"

namespace rdftx::engine {
namespace {

/// Numeric-aware term comparison: unbound (empty) first, then numbers
/// in value order, then the rest in byte order.
int CompareTermStrings(std::string_view a, std::string_view b) {
  if (a.empty() || b.empty()) {
    return static_cast<int>(!a.empty()) - static_cast<int>(!b.empty());
  }
  double va = 0, vb = 0;
  const bool na = ParseNumeric(a, &va);
  const bool nb = ParseNumeric(b, &vb);
  if (na && nb) return va < vb ? -1 : (va > vb ? 1 : 0);
  if (na != nb) return na ? -1 : 1;
  return a.compare(b);
}

/// Renders an aggregate's numeric result: integral values print without
/// a fraction, the rest with %g.
std::string FormatNumeric(double v) {
  if (std::abs(v) < 9.0e18) {  // guard the cast against overflow UB
    const auto i = static_cast<int64_t>(v);
    if (static_cast<double>(i) == v) return std::to_string(i);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Inclusive display of an aggregate chronon boundary ("now" for live).
std::string FormatBoundary(Chronon c, bool exclusive_end) {
  if (c == kChrononNow) return "now";
  return FormatChronon(exclusive_end ? c - 1 : c);
}

}  // namespace

int CompareCells(const Cell& a, const Cell& b) {
  if (a.is_time || b.is_time) {
    const std::span<const Interval> ra = a.time.runs();
    const std::span<const Interval> rb = b.time.runs();
    const size_t n = std::min(ra.size(), rb.size());
    for (size_t i = 0; i < n; ++i) {
      if (ra[i].start != rb[i].start) {
        return ra[i].start < rb[i].start ? -1 : 1;
      }
      if (ra[i].end != rb[i].end) return ra[i].end < rb[i].end ? -1 : 1;
    }
    if (ra.size() != rb.size()) return ra.size() < rb.size() ? -1 : 1;
    return 0;
  }
  return CompareTermStrings(a.term, b.term);
}

Status ApplyOrderAndSlice(const std::vector<sparqlt::OrderKey>& order_by,
                          int64_t limit, int64_t offset, ResultSet* rs) {
  if (order_by.empty() && limit < 0 && offset <= 0) return Status::OK();
  std::vector<std::pair<size_t, bool>> keys;  // column index, descending
  for (const sparqlt::OrderKey& k : order_by) {
    auto it = std::find(rs->columns.begin(), rs->columns.end(), k.var);
    if (it == rs->columns.end()) {
      return Status::InvalidArgument("ORDER BY key ?" + k.var +
                                     " is not a projected column");
    }
    keys.emplace_back(static_cast<size_t>(it - rs->columns.begin()),
                      k.descending);
  }
  // Sort a permutation of the rows. Ties break on the row fingerprint,
  // built at most once per row and only for rows that tie.
  RowTable& rows = rs->rows;
  const size_t n = rows.size();
  std::vector<std::string> fps(n);
  std::vector<bool> have_fp(n, false);
  auto fingerprint = [&](uint32_t i) -> const std::string& {
    if (!have_fp[i]) {
      fps[i] = RowFingerprint(rows[i]);
      have_fp[i] = true;
    }
    return fps[i];
  };
  auto cmp = [&](uint32_t a, uint32_t b) {
    for (const auto& [col, descending] : keys) {
      const int c = CompareCells(rows[a][col], rows[b][col]);
      if (c != 0) return descending ? c > 0 : c < 0;
    }
    return fingerprint(a) < fingerprint(b);
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const size_t skip =
      offset > 0 ? std::min(n, static_cast<size_t>(offset)) : 0;
  size_t want = n;
  if (limit >= 0) want = std::min(n, skip + static_cast<size_t>(limit));
  if (want < n) {
    // Heap select: only the first offset+limit positions are ordered.
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(want),
                      order.end(), cmp);
  } else {
    std::sort(order.begin(), order.end(), cmp);
  }
  rows.Reorder(std::span<const uint32_t>(order).subspan(skip, want - skip));
  return Status::OK();
}

bool TopKPushdownEligible(const sparqlt::Query& query,
                          const CompiledQuery& cq) {
  if (query.limit < 0 || query.order_by.empty()) return false;
  if (!query.union_branches.empty()) return false;
  if (cq.patterns.size() != 1 || !cq.filters.empty() ||
      !cq.optionals.empty() || !cq.exists.empty() ||
      !cq.aggregates.empty()) {
    return false;
  }
  const CompiledPattern& cp = cq.patterns[0];
  // A bound time variable makes scan rows pairwise distinct (one row per
  // validity group); without it two triples can collapse to one row.
  if (cp.var_t < 0) return false;
  // The projection must cover every bound slot, or duplicate elimination
  // could still shrink the output below the pruned k rows.
  std::set<int> projected(cq.projection.begin(), cq.projection.end());
  for (int s : {cp.var_s, cp.var_p, cp.var_o, cp.var_t}) {
    if (s >= 0 && !projected.contains(s)) return false;
  }
  return true;
}

ResultSet AggregateRows(const CompiledQuery& cq, const BlockRun& run,
                        RowSelection rows, const Dictionary& dict,
                        Chronon now, ExecStats* stats) {
  ResultSet rs;
  for (int slot : cq.projection) {
    rs.columns.push_back(cq.vars[static_cast<size_t>(slot)].name);
  }
  for (const CompiledAggregate& agg : cq.aggregates) {
    rs.columns.push_back(agg.alias);
  }

  // Set semantics: aggregates range over the distinct solutions of the
  // WHERE block, consistent with the engine's duplicate elimination (and
  // independent of physical join duplication differences between
  // stores).
  std::vector<int> visible;
  for (size_t i = 0; i < cq.vars.size(); ++i) {
    if (!cq.vars[i].local) visible.push_back(static_cast<int>(i));
  }
  DistinctRows(run, visible, cq.vars, &rows);

  // Per-aggregate running state within one group.
  struct AggState {
    int64_t count = 0;           // kCount
    double sum = 0;              // kSum / kDurSum
    uint64_t duration = 0;       // kDurCount
    bool has_value = false;      // kMin / kMax seeded
    std::string_view best_term;  // kMin / kMax over key variables
    Chronon best_chronon = 0;    // kMin / kMax over time variables
  };
  struct Group {
    std::vector<Cell> key_cells;  // projected grouping columns
    std::vector<AggState> aggs;
  };

  TemporalSet one;  // scratch for BlockRun::TimeRef

  // Canonical, store-independent group keys (decoded content, not term
  // ids) keep the emission order deterministic across stores.
  std::map<std::string, Group> groups;
  for (const uint32_t i : rows) {
    std::string key;
    for (int slot : cq.group_by) {
      Cell cell;
      LoadCell(run, i, slot, cq.vars, dict, &cell);
      cell.AppendFingerprint(&key);
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    Group& g = it->second;
    if (inserted) {
      for (int slot : cq.projection) {
        LoadCell(run, i, slot, cq.vars, dict, &g.key_cells.emplace_back());
      }
      g.aggs.resize(cq.aggregates.size());
    }
    for (size_t a = 0; a < cq.aggregates.size(); ++a) {
      const CompiledAggregate& agg = cq.aggregates[a];
      AggState& st = g.aggs[a];
      const bool arg_is_time =
          agg.var >= 0 && cq.vars[static_cast<size_t>(agg.var)].is_time;
      const TermId term =
          agg.var >= 0 && !arg_is_time ? run.term(i, agg.var) : kInvalidTerm;
      switch (agg.fn) {
        case sparqlt::AggregateFn::kCount: {
          if (agg.star) {
            ++st.count;
          } else if (arg_is_time) {
            if (!run.TimeEmpty(i, agg.var)) ++st.count;
          } else if (term != kInvalidTerm) {
            ++st.count;
          }
          break;
        }
        case sparqlt::AggregateFn::kSum: {
          if (term == kInvalidTerm) break;
          double v = 0;
          if (ParseNumeric(dict.Decode(term), &v)) st.sum += v;
          break;
        }
        case sparqlt::AggregateFn::kMin:
        case sparqlt::AggregateFn::kMax: {
          const bool is_min = agg.fn == sparqlt::AggregateFn::kMin;
          if (arg_is_time) {
            // The inline cell holds a spilled element's hull.
            if (run.TimeEmpty(i, agg.var)) break;
            const Chronon c =
                is_min ? run.TimeStart(i, agg.var) : run.TimeEnd(i, agg.var);
            if (!st.has_value || (is_min ? c < st.best_chronon
                                         : c > st.best_chronon)) {
              st.best_chronon = c;
              st.has_value = true;
            }
          } else {
            if (term == kInvalidTerm) break;
            const std::string_view text = dict.Decode(term);
            const int c = st.has_value
                              ? CompareTermStrings(text, st.best_term)
                              : 0;
            if (!st.has_value || (is_min ? c < 0 : c > 0)) {
              st.best_term = text;
              st.has_value = true;
            }
          }
          break;
        }
        case sparqlt::AggregateFn::kDurCount: {
          st.duration += run.TimeRef(i, agg.var, &one).TotalLength(now);
          break;
        }
        case sparqlt::AggregateFn::kDurSum: {
          if (term == kInvalidTerm) break;
          double v = 0;
          if (!ParseNumeric(dict.Decode(term), &v)) break;
          st.sum += v * static_cast<double>(
              run.TimeRef(i, agg.time_var, &one).TotalLength(now));
          break;
        }
      }
    }
  }

  // An ungrouped aggregate query over zero solutions still yields one
  // row (zero counts/sums, unbound MIN/MAX).
  if (groups.empty() && cq.group_by.empty()) {
    Group& g = groups[std::string()];
    g.aggs.resize(cq.aggregates.size());
  }

  // Computed values are kept by the result; grouping cells and MIN/MAX
  // terms view the Dictionary.
  rs.rows = RowTable(rs.columns.size());
  rs.rows.reserve(groups.size());
  for (auto& [key, g] : groups) {
    const std::span<Cell> out = rs.rows.AppendRow();
    std::ranges::move(g.key_cells, out.begin());
    for (size_t a = 0; a < cq.aggregates.size(); ++a) {
      const CompiledAggregate& agg = cq.aggregates[a];
      const AggState& st = g.aggs[a];
      const bool arg_is_time =
          agg.var >= 0 && cq.vars[static_cast<size_t>(agg.var)].is_time;
      Cell& cell = out[cq.projection.size() + a];
      switch (agg.fn) {
        case sparqlt::AggregateFn::kCount:
          cell.term = rs.Keep(std::to_string(st.count));
          break;
        case sparqlt::AggregateFn::kSum:
        case sparqlt::AggregateFn::kDurSum:
          cell.term = rs.Keep(FormatNumeric(st.sum));
          break;
        case sparqlt::AggregateFn::kDurCount:
          cell.term = rs.Keep(std::to_string(st.duration));
          break;
        case sparqlt::AggregateFn::kMin:
        case sparqlt::AggregateFn::kMax:
          if (!st.has_value) break;  // unbound cell
          if (arg_is_time) {
            cell.term = rs.Keep(FormatBoundary(
                st.best_chronon,
                /*exclusive_end=*/agg.fn == sparqlt::AggregateFn::kMax));
          } else {
            cell.term = st.best_term;
          }
          break;
      }
    }
  }
  stats->agg_groups += rs.rows.size();
  return rs;
}

}  // namespace rdftx::engine
