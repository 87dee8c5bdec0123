#include "engine/executor.h"

#include <numeric>
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
    for (const Interval& run : time.runs()) {
      out->append(std::to_string(run.start));
      out->push_back(',');
      out->append(std::to_string(run.end));
      out->push_back(';');
    }
  } else {
    out->push_back('S');
    out->append(term);
  }
  out->push_back('\x1F');
}

std::string RowFingerprint(const std::vector<Cell>& cells) {
  std::string fp;
  for (const Cell& cell : cells) cell.AppendFingerprint(&fp);
  return fp;
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
    std::set<std::string> seen;
    for (size_t i = 0; i < nb; ++i) {
      Result<ResultSet> rs =
          Run(query.union_branches[i], compiled[i], orders[i]);
      if (!rs.ok()) return rs.status();
      MergeStats(rs->stats, &merged.stats);
      for (auto& row : rs->rows) {
        if (seen.insert(RowFingerprint(row)).second) {
          merged.rows.push_back(std::move(row));
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

  // Pipeline: the scan/join chain over the plan order.
  std::vector<Row> rows =
      RunToRows(RunChain(cq.patterns, order, cq.vars, &stats), cq.vars);

  // OPTIONAL groups: evaluate each group, then left-join it onto the
  // running solutions (unmatched rows keep the group's variables
  // unbound), in declaration order.
  if (!cq.optionals.empty() && !rows.empty()) {
    std::set<int> main_bound;
    for (const CompiledPattern& cp : cq.patterns) {
      for (int slot : cp.KeySlots()) main_bound.insert(slot);
    }
    for (const CompiledOptional& opt : cq.optionals) {
      const std::vector<Row> group = EvalOptionalGroup(opt, cq, ctx, &stats);
      std::set<int> block_bound;
      for (const CompiledPattern& cp : opt.patterns) {
        for (int slot : cp.KeySlots()) block_bound.insert(slot);
      }
      std::vector<int> shared;
      for (int slot : block_bound) {
        if (main_bound.contains(slot)) shared.push_back(slot);
      }
      rows = LeftHashJoinRows(rows, group, shared);
      stats.join_output_rows += rows.size();
      for (int slot : block_bound) main_bound.insert(slot);
    }
  }

  // FILTER evaluation (windows already pruned the scans; the predicates
  // still run in full for OR / NOT / duration conditions).
  std::vector<Row> kept;
  kept.reserve(rows.size());
  for (Row& row : rows) {
    bool ok = true;
    for (const sparqlt::Expr* f : cq.filters) {
      if (!EvalPredicate(*f, row, ctx)) {
        ok = false;
        break;
      }
    }
    if (ok) kept.push_back(std::move(row));
  }

  // FILTER [NOT] EXISTS groups: evaluate each group like an OPTIONAL
  // block, then semi/anti-join the surviving solutions against it, in
  // declaration order. Once no solution survives, later groups are not
  // evaluated.
  if (!cq.exists.empty() && !kept.empty()) {
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
      const std::vector<Row> group =
          EvalOptionalGroup(ex.group, cq, ctx, &stats);
      FilterExistsRows(ex, outer_bound, group, &kept, &stats);
      if (kept.empty()) break;
    }
  }

  ResultSet result;
  if (!cq.aggregates.empty()) {
    // Grouped aggregation replaces projection + duplicate elimination.
    result = AggregateRows(cq, kept, *dict_, ctx.now, &stats);
  } else {
    // Projection + duplicate elimination. Under the top-k pushdown rule
    // the scan output provably contains no duplicate projected rows, so
    // the fingerprint set is skipped and the ORDER BY below bounds its
    // sort to a heap select of offset+limit rows.
    const bool topk = TopKPushdownEligible(query, cq);
    if (topk) ++stats.topk_pushdowns;
    for (int slot : cq.projection) {
      result.columns.push_back(cq.vars[static_cast<size_t>(slot)].name);
    }
    std::set<std::string> seen;
    // With OPTIONAL groups, projected variables may be legitimately
    // unbound (rendered as empty cells); otherwise an unbound projection
    // slot means the row cannot contribute.
    const bool allow_unbound = !cq.optionals.empty();
    for (const Row& row : kept) {
      std::vector<Cell> cells;
      bool complete = true;
      for (int slot : cq.projection) {
        const VarInfo& info = cq.vars[static_cast<size_t>(slot)];
        Cell cell;
        if (info.is_time) {
          cell.is_time = true;
          cell.time = row.times[static_cast<size_t>(slot)];
          if (cell.time.empty()) complete = false;
        } else {
          TermId id = row.terms[static_cast<size_t>(slot)];
          if (id == kInvalidTerm) {
            complete = false;
          } else {
            cell.term = dict_->Decode(id);
          }
        }
        cells.push_back(std::move(cell));
      }
      if (!complete && !allow_unbound) continue;
      if (topk || seen.insert(RowFingerprint(cells)).second) {
        result.rows.push_back(std::move(cells));
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
  // slot so the merge chain can start without an explicit sort. The
  // grouping sort inside VectorizedScan makes the requested order free.
  std::vector<int> sort_req(n, -1);
  for (size_t step = 1; step < n; ++step) sort_req[step] = join_slot(step);
  if (n > 1) sort_req[0] = join_slot(1);

  // Re-sorting the accumulated side to enable a merge join pays off only
  // while it is small; past this row count the hash join wins.
  constexpr size_t kAccSortMax = size_t{1} << 15;

  // Scans stay lazy: each step scans only once the previous steps left
  // a non-empty intermediate result.
  BlockRun acc;
  for (size_t step = 0; step < n; ++step) {
    BlockRun right;
    VectorizedScan(*store_, pattern(step), num_vars, vars, sort_req[step],
                   &block_pool_, &right, stats);
    if (step == 0) {
      acc = std::move(right);
    } else {
      const int s = join_slot(step);
      bool merged = false;
      if (s >= 0) {
        if (right.sorted_by != s) {  // defensive; scans honor sort_req
          right = SortRun(right, s, vars, &block_pool_);
          ++stats->sort_steps;
        }
        if (acc.sorted_by != s && acc.size() <= kAccSortMax) {
          acc = SortRun(acc, s, vars, &block_pool_);
          ++stats->sort_steps;
        }
        if (acc.sorted_by == s) {
          acc = MergeJoinRuns(acc, right, s, vars, &block_pool_);
          ++stats->merge_join_steps;
          merged = true;
        }
      }
      if (!merged) {
        acc = HashJoinRuns(acc, right, shared[step], vars, &block_pool_);
        ++stats->hash_join_steps;
      }
      stats->join_output_rows += acc.size();
    }
    if (acc.empty()) break;
  }
  return acc;
}

std::vector<Row> QueryEngine::EvalOptionalGroup(const CompiledOptional& opt,
                                                const CompiledQuery& cq,
                                                const EvalContext& ctx,
                                                ExecStats* stats) const {
  std::vector<int> order(opt.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  ExecStats group_stats;
  std::vector<Row> group =
      RunToRows(RunChain(opt.patterns, order, cq.vars, &group_stats), cq.vars);
  stats->patterns_scanned += group_stats.patterns_scanned;
  stats->rows_scanned += group_stats.rows_scanned;
  stats->scan.MergeFrom(group_stats.scan);
  // Group-local filters run on the group's own matches.
  std::erase_if(group, [&](const Row& row) {
    for (const sparqlt::Expr* f : opt.filters) {
      if (!EvalPredicate(*f, row, ctx)) return true;
    }
    return false;
  });
  return group;
}

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "\t";
    out += "?" + columns[i];
  }
  out += "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "\t";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

}  // namespace rdftx::engine
