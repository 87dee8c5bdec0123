#include "engine/executor.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>

#include "engine/modifiers.h"
#include "engine/vectorized.h"

namespace rdftx::engine {
namespace {

int ConstantCount(const CompiledPattern& cp) {
  int n = 0;
  if (cp.var_s < 0) ++n;
  if (cp.var_p < 0) ++n;
  if (cp.var_o < 0) ++n;
  if (cp.var_t < 0) ++n;
  return n;
}

/// Accumulates one query part's counters into the query total.
void MergeStats(const ExecStats& in, ExecStats* out) {
  out->patterns_scanned += in.patterns_scanned;
  out->rows_scanned += in.rows_scanned;
  out->key_filtered_fragments += in.key_filtered_fragments;
  out->join_output_rows += in.join_output_rows;
  out->result_rows += in.result_rows;
  out->merge_join_steps += in.merge_join_steps;
  out->hash_join_steps += in.hash_join_steps;
  out->sort_steps += in.sort_steps;
  out->agg_groups += in.agg_groups;
  out->topk_pushdowns += in.topk_pushdowns;
  out->exists_probes += in.exists_probes;
  out->scan.MergeFrom(in.scan);
}

}  // namespace

void Cell::AppendFingerprint(std::string* out) const {
  if (is_time) {
    out->push_back('T');
    char buf[16];  // a Chronon has at most 10 digits
    for (const Interval& run : time.runs()) {
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), run.start).ptr);
      out->push_back(',');
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), run.end).ptr);
      out->push_back(';');
    }
  } else {
    out->push_back('S');
    out->append(term);
  }
  out->push_back('\x1F');
}

std::string RowFingerprint(std::span<const Cell> cells) {
  std::string fp;
  for (const Cell& cell : cells) cell.AppendFingerprint(&fp);
  return fp;
}

void RowTable::Reorder(std::span<const uint32_t> rows) {
  std::vector<Cell> cells;
  cells.reserve(rows.size() * width_);
  for (const uint32_t i : rows) {
    const std::span<Cell> row = (*this)[i];
    std::move(row.begin(), row.end(), std::back_inserter(cells));
  }
  cells_ = std::move(cells);
  rows_ = rows.size();
}

std::string_view ResultSet::Keep(std::string text) {
  if (!kept_) kept_ = std::make_shared<std::deque<std::string>>();
  return kept_->emplace_back(std::move(text));
}

QueryEngine::QueryEngine(const TemporalStore* store, const Dictionary* dict,
                         EngineOptions options)
    : store_(store), dict_(dict), options_(options) {}

std::vector<int> QueryEngine::GreedyOrder(const CompiledQuery& cq) {
  const size_t n = cq.patterns.size();
  std::vector<int> order;
  std::vector<bool> used(n, false);
  // Seed: most-constant pattern.
  int seed = 0;
  for (size_t i = 1; i < n; ++i) {
    if (ConstantCount(cq.patterns[i]) >
        ConstantCount(cq.patterns[static_cast<size_t>(seed)])) {
      seed = static_cast<int>(i);
    }
  }
  order.push_back(seed);
  used[static_cast<size_t>(seed)] = true;
  while (order.size() < n) {
    int best = -1;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (int j : order) {
        if (cq.patterns[i].SharesVariable(
                cq.patterns[static_cast<size_t>(j)])) {
          connected = true;
          break;
        }
      }
      if (connected &&
          (best < 0 || ConstantCount(cq.patterns[i]) >
                           ConstantCount(cq.patterns[static_cast<size_t>(
                               best)]))) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {  // disconnected query: pick any remaining pattern
      for (size_t i = 0; i < n; ++i) {
        if (!used[i]) {
          best = static_cast<int>(i);
          break;
        }
      }
    }
    order.push_back(best);
    used[static_cast<size_t>(best)] = true;
  }
  return order;
}

Result<ResultSet> QueryEngine::Execute(std::string_view text) const {
  auto query = sparqlt::Parse(text);
  if (!query.ok()) return query.status();
  return Execute(*query);
}

Result<ResultSet> QueryEngine::Execute(const sparqlt::Query& query) const {
  if (!query.union_branches.empty()) {
    // UNION: run each branch with the outer projection, concatenate in
    // branch order, and eliminate duplicates across branches (set
    // semantics).
    if (query.select.empty()) {
      return Status::InvalidArgument(
          "UNION queries need an explicit SELECT list");
    }
    if (!query.aggregates.empty() || !query.group_by.empty()) {
      return Status::InvalidArgument(
          "aggregates over UNION are not supported");
    }
    const size_t nb = query.union_branches.size();
    // Compile (and pick join orders) every branch before running any, so
    // a compile error surfaces ahead of any run error.
    std::vector<CompiledQuery> compiled;
    std::vector<std::vector<int>> orders;
    compiled.reserve(nb);
    orders.reserve(nb);
    for (const sparqlt::Query& branch : query.union_branches) {
      auto cq = Compile(branch, *dict_);
      if (!cq.ok()) return cq.status();
      cq->projection.clear();
      for (const std::string& name : query.select) {
        int slot = -1;
        for (size_t i = 0; i < cq->vars.size(); ++i) {
          if (cq->vars[i].name == name) slot = static_cast<int>(i);
        }
        if (slot < 0) {
          return Status::InvalidArgument("projected variable ?" + name +
                                         " missing from a UNION branch");
        }
        cq->projection.push_back(slot);
      }
      orders.push_back(join_order_provider_ ? join_order_provider_(*cq)
                                            : GreedyOrder(*cq));
      compiled.push_back(std::move(*cq));
    }
    ResultSet merged;
    merged.columns = query.select;
    merged.rows = RowTable(query.select.size());
    std::set<std::string> seen;
    for (size_t i = 0; i < nb; ++i) {
      Result<ResultSet> rs =
          Run(query.union_branches[i], compiled[i], orders[i]);
      if (!rs.ok()) return rs.status();
      MergeStats(rs->stats, &merged.stats);
      // A branch has no aggregates, so its cells view the Dictionary
      // and outlive the branch result.
      for (const std::span<const Cell> row : rs->rows) {
        if (seen.insert(RowFingerprint(row)).second) {
          std::ranges::copy(row, merged.rows.AppendRow().begin());
        }
      }
    }
    // Solution modifiers apply to the merged union result.
    RDFTX_RETURN_IF_ERROR(ApplyOrderAndSlice(query.order_by, query.limit,
                                             query.offset, &merged));
    merged.stats.result_rows = merged.rows.size();
    return merged;
  }
  auto cq = Compile(query, *dict_);
  if (!cq.ok()) return cq.status();
  std::vector<int> order = join_order_provider_
                               ? join_order_provider_(*cq)
                               : GreedyOrder(*cq);
  return Run(query, *cq, order);
}

Result<ResultSet> QueryEngine::ExecutePlan(
    const sparqlt::Query& query, const std::vector<int>& order) const {
  auto cq = Compile(query, *dict_);
  if (!cq.ok()) return cq.status();
  return Run(query, *cq, order);
}

Result<ResultSet> QueryEngine::Run(const sparqlt::Query& query,
                                   const CompiledQuery& cq,
                                   const std::vector<int>& order) const {
  ExecStats stats;
  // The order must be a permutation of the pattern indices: an index out
  // of range would read past `cq.patterns`, and a repeated one would
  // leave another pattern unscanned.
  const size_t n = cq.patterns.size();
  if (order.size() != n) {
    return Status::InvalidArgument("join order size mismatch");
  }
  std::vector<bool> used(n, false);
  for (int i : order) {
    if (i < 0 || static_cast<size_t>(i) >= n ||
        used[static_cast<size_t>(i)]) {
      return Status::InvalidArgument("join order is not a permutation");
    }
    used[static_cast<size_t>(i)] = true;
  }
  EvalContext ctx;
  ctx.vars = &cq.vars;
  ctx.dict = dict_;
  ctx.now = options_.now != 0 ? options_.now : store_->last_time();
  if (ctx.now == 0) ctx.now = kChrononMax;

  // The scan/join chain over the plan order, then the tail on the run
  // it produces: OPTIONAL left joins, FILTER, EXISTS, and one sink.
  BlockRun run = RunChain(cq.patterns, order, cq.vars, nullptr, &stats);

  // OPTIONAL groups, in declaration order: each group is evaluated for
  // the running solutions' keys and left-joined onto them (unmatched
  // rows keep the group's variables unbound).
  if (!cq.optionals.empty() && !run.empty()) {
    std::set<int> main_bound;
    for (const CompiledPattern& cp : cq.patterns) {
      for (int slot : cp.KeySlots()) main_bound.insert(slot);
    }
    for (const CompiledOptional& opt : cq.optionals) {
      std::set<int> block_bound;
      for (const CompiledPattern& cp : opt.patterns) {
        for (int slot : cp.KeySlots()) block_bound.insert(slot);
      }
      std::vector<int> shared;
      for (int slot : block_bound) {
        if (main_bound.contains(slot)) shared.push_back(slot);
      }
      const BlockRun group =
          EvalGroup(opt, cq, ctx, run, nullptr, shared, &stats);
      run = LeftHashJoinRuns(run, group, shared, cq.vars);
      stats.join_output_rows += run.size();
      for (int slot : block_bound) main_bound.insert(slot);
    }
  }

  // FILTER evaluation selects the surviving rows (windows already pruned
  // the scans; the predicates still run in full for OR / NOT / duration
  // conditions).
  RowSelection sel(run.size());
  std::iota(sel.begin(), sel.end(), 0u);
  FilterRows(cq.filters, run, ctx, &sel);

  // FILTER [NOT] EXISTS groups narrow the selection in declaration
  // order, each evaluated for the surviving rows' keys. Once no row
  // survives, later groups are not evaluated.
  if (!cq.exists.empty() && !sel.empty()) {
    std::set<int> outer_bound;
    auto note_bound = [&outer_bound](const CompiledPattern& cp) {
      for (int slot : cp.KeySlots()) outer_bound.insert(slot);
      if (cp.var_t >= 0) outer_bound.insert(cp.var_t);
    };
    for (const CompiledPattern& cp : cq.patterns) note_bound(cp);
    for (const CompiledOptional& opt : cq.optionals) {
      for (const CompiledPattern& cp : opt.patterns) note_bound(cp);
    }
    for (const CompiledExists& ex : cq.exists) {
      std::set<int> group_keys, group_times;
      for (const CompiledPattern& cp : ex.group.patterns) {
        for (int slot : cp.KeySlots()) group_keys.insert(slot);
        if (cp.var_t >= 0) group_times.insert(cp.var_t);
      }
      std::vector<int> shared_keys, shared_times;
      for (int slot : group_keys) {
        if (outer_bound.contains(slot)) shared_keys.push_back(slot);
      }
      for (int slot : group_times) {
        if (outer_bound.contains(slot)) shared_times.push_back(slot);
      }
      const BlockRun group =
          EvalGroup(ex.group, cq, ctx, run, &sel, shared_keys, &stats);
      stats.exists_probes += sel.size();
      SemiJoinRuns(run, group, shared_keys, shared_times, ex.negated, &sel);
      if (sel.empty()) break;
    }
  }

  ResultSet result;
  if (!cq.aggregates.empty()) {
    // Grouped aggregation replaces projection + duplicate elimination.
    result = AggregateRows(cq, run, std::move(sel), *dict_, ctx.now, &stats);
  } else {
    // Projection + duplicate elimination on term ids and interval runs;
    // only the distinct rows are decoded. Under the top-k pushdown rule
    // the scan output provably contains no duplicate projected rows, so
    // duplicate elimination is skipped and the ORDER BY below bounds its
    // sort to a heap select of offset+limit rows.
    const bool topk = TopKPushdownEligible(query, cq);
    if (topk) ++stats.topk_pushdowns;
    for (int slot : cq.projection) {
      result.columns.push_back(cq.vars[static_cast<size_t>(slot)].name);
    }
    // With OPTIONAL groups, projected variables may be legitimately
    // unbound (rendered as empty cells); otherwise an unbound projection
    // slot means the row cannot contribute.
    if (cq.optionals.empty()) {
      std::erase_if(sel, [&](uint32_t i) {
        for (int slot : cq.projection) {
          if (cq.vars[static_cast<size_t>(slot)].is_time
                  ? run.TimeEmpty(i, slot)
                  : run.term(i, slot) == kInvalidTerm) {
            return true;
          }
        }
        return false;
      });
    }
    if (!topk) DistinctRows(run, cq.projection, cq.vars, &sel);
    // The sink: one table for every row; a term cell views the
    // Dictionary's copy and a one-run time cell holds its run inline,
    // so a row costs no allocation. The ids of one row sit at random
    // places in the Dictionary, so the terms of the row kPrefetchRows
    // ahead are prefetched while this one is decoded.
    constexpr size_t kPrefetchRows = 8;
    std::vector<int> term_slots;
    for (int slot : cq.projection) {
      if (!cq.vars[static_cast<size_t>(slot)].is_time) {
        term_slots.push_back(slot);
      }
    }
    result.rows = RowTable(cq.projection.size());
    result.rows.reserve(sel.size());
    for (size_t k = 0; k < sel.size(); ++k) {
      if (k + kPrefetchRows < sel.size()) {
        for (int slot : term_slots) {
          dict_->Prefetch(run.term(sel[k + kPrefetchRows], slot));
        }
      }
      const uint32_t i = sel[k];
      const std::span<Cell> cells = result.rows.AppendRow();
      for (size_t c = 0; c < cells.size(); ++c) {
        LoadCell(run, i, cq.projection[c], cq.vars, *dict_, &cells[c]);
      }
    }
  }
  RDFTX_RETURN_IF_ERROR(ApplyOrderAndSlice(query.order_by, query.limit,
                                           query.offset, &result));
  stats.result_rows = result.rows.size();
  result.stats = stats;
  return result;
}

BlockRun QueryEngine::RunChain(const std::vector<CompiledPattern>& patterns,
                               const std::vector<int>& order,
                               const std::vector<VarInfo>& vars,
                               const KeyFilter* first_filter,
                               ExecStats* stats) const {
  const size_t n = order.size();
  const size_t num_vars = vars.size();
  if (n == 0) return {};
  auto pattern = [&](size_t step) -> const CompiledPattern& {
    return patterns[static_cast<size_t>(order[step])];
  };

  // Per step, the key slots shared with the previously bound variables.
  // A single shared slot is the merge-join key; anything else takes the
  // hash path (none means cross product; several need the composite
  // hash key).
  std::vector<std::vector<int>> shared(n);
  {
    std::set<int> bound;
    for (size_t step = 0; step < n; ++step) {
      for (int s : pattern(step).KeySlots()) {
        if (bound.contains(s)) shared[step].push_back(s);
      }
      for (int s : pattern(step).KeySlots()) bound.insert(s);
    }
  }
  auto join_slot = [&shared](size_t step) {
    return shared[step].size() == 1 ? shared[step][0] : -1;
  };
  // Scan-output orders to request: each merge join wants its right input
  // sorted by the join slot, and the first scan wants the first join's
  // slot so the merge chain can start without an explicit sort. A scan
  // groups its fragments with one radix order led by the requested slot
  // (VectorizedScan), so the requested order is free.
  std::vector<int> sort_req(n, -1);
  for (size_t step = 1; step < n; ++step) sort_req[step] = join_slot(step);
  if (n > 1) sort_req[0] = join_slot(1);

  // Re-sorting the accumulated side to enable a merge join pays off only
  // while it is small; past this row count the hash join wins.
  constexpr size_t kAccSortMax = size_t{1} << 15;

  // Scans stay lazy: each step scans only once the previous steps left
  // a non-empty intermediate result. Every step after the first is
  // key-filtered by the accumulated run's terms for its first shared
  // slot, so it emits only rows that may join.
  BlockRun acc;
  for (size_t step = 0; step < n; ++step) {
    std::optional<KeyFilter> filter;
    if (step > 0 && !shared[step].empty()) {
      filter = KeyFilter::FromRun(acc, shared[step][0], nullptr);
    }
    BlockRun right;
    VectorizedScan(*store_, pattern(step), num_vars, vars, sort_req[step],
                   &right, stats,
                   step == 0 ? first_filter : (filter ? &*filter : nullptr));
    if (step == 0) {
      acc = std::move(right);
    } else {
      const int s = join_slot(step);
      bool merged = false;
      if (s >= 0) {
        if (right.sorted_by != s) {  // defensive; scans honor sort_req
          right = SortRun(right, s, vars);
          ++stats->sort_steps;
        }
        if (acc.sorted_by != s && acc.size() <= kAccSortMax) {
          acc = SortRun(acc, s, vars);
          ++stats->sort_steps;
        }
        if (acc.sorted_by == s) {
          acc = MergeJoinRuns(acc, right, s, vars);
          ++stats->merge_join_steps;
          merged = true;
        }
      }
      if (!merged) {
        acc = HashJoinRuns(acc, right, shared[step], vars);
        ++stats->hash_join_steps;
      }
      stats->join_output_rows += acc.size();
    }
    if (acc.empty()) break;
  }
  return acc;
}

BlockRun QueryEngine::EvalGroup(const CompiledOptional& group,
                                const CompiledQuery& cq,
                                const EvalContext& ctx, const BlockRun& outer,
                                const RowSelection* outer_rows,
                                const std::vector<int>& shared_key_slots,
                                ExecStats* stats) const {
  // Sideways: the group's first scan keeps only keys the outer rows
  // hold, through the first shared slot that pattern binds. FromRun
  // declines when an outer row leaves the slot unbound (a wildcard).
  // The parser rejects empty groups, so patterns[0] exists.
  std::optional<KeyFilter> filter;
  const std::vector<int> first_keys = group.patterns[0].KeySlots();
  for (int slot : shared_key_slots) {
    if (std::find(first_keys.begin(), first_keys.end(), slot) !=
        first_keys.end()) {
      filter = KeyFilter::FromRun(outer, slot, outer_rows);
      break;
    }
  }
  std::vector<int> order(group.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  ExecStats group_stats;
  BlockRun run = RunChain(group.patterns, order, cq.vars,
                          filter ? &*filter : nullptr, &group_stats);
  stats->patterns_scanned += group_stats.patterns_scanned;
  stats->rows_scanned += group_stats.rows_scanned;
  stats->key_filtered_fragments += group_stats.key_filtered_fragments;
  stats->scan.MergeFrom(group_stats.scan);
  // Group-local filters run on the group's own matches.
  if (!group.filters.empty()) {
    RowSelection sel(run.size());
    std::iota(sel.begin(), sel.end(), 0u);
    FilterRows(group.filters, run, ctx, &sel);
    if (sel.size() < run.size()) {
      run = GatherRun(run, sel, cq.vars);
    }
  }
  return run;
}

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "\t";
    out += "?" + columns[i];
  }
  out += "\n";
  for (const std::span<const Cell> row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "\t";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace rdftx::engine
