#include "query_trace.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "engine/operators.h"
#include "engine/vectorized.h"
#include "sparqlt/parser.h"

namespace perfbench {
namespace {

using rdftx::engine::BlockPool;
using rdftx::engine::BlockRun;
using rdftx::engine::CompiledPattern;
using rdftx::engine::CompiledQuery;
using rdftx::engine::ExecStats;
using rdftx::engine::Row;

std::vector<int> KeySlots(const CompiledPattern& cp) {
  std::vector<int> slots;
  for (int s : {cp.var_s, cp.var_p, cp.var_o}) {
    if (s >= 0) slots.push_back(s);
  }
  return slots;
}

double QError(double est, double act) {
  est = std::max(est, 1.0);
  act = std::max(act, 1.0);
  return std::max(est / act, act / est);
}

void AddStats(const ExecStats& in, ExecStats* out) {
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

/// Replays the plan the way QueryEngine::Run executes it on one thread:
/// the vectorized scan/join chain of RunVectorized (same requested sort
/// slots, same merge-or-hash choice, same early stop on an empty
/// intermediate), then the OPTIONAL groups of Run/EvalOptionalGroup.
void Replay(const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
            const CompiledQuery& cq, const std::vector<int>& order,
            const rdftx::optimizer::QueryOptimizer* opt, BlockPool* pool,
            Tracer* tracer, uint64_t qid, int parent, QueryTrace* out) {
  const size_t n = order.size();
  if (n == 0) return;
  const size_t num_vars = cq.vars.size();
  auto pattern = [&](size_t step) -> const CompiledPattern& {
    return cq.patterns[static_cast<size_t>(order[step])];
  };

  // Merge-join key per step (a single key slot shared with the bound
  // variables) and the scan output order each step requests.
  std::vector<int> join_slot(n, -1);
  {
    std::set<int> bound;
    for (int s : KeySlots(pattern(0))) bound.insert(s);
    for (size_t step = 1; step < n; ++step) {
      std::vector<int> shared;
      for (int s : KeySlots(pattern(step))) {
        if (bound.contains(s)) shared.push_back(s);
      }
      if (shared.size() == 1) join_slot[step] = shared[0];
      for (int s : KeySlots(pattern(step))) bound.insert(s);
    }
  }
  std::vector<int> sort_req(n, -1);
  for (size_t step = 1; step < n; ++step) sort_req[step] = join_slot[step];
  if (n > 1) sort_req[0] = join_slot[1];

  // The executor's limit for re-sorting the accumulated side.
  constexpr size_t kAccSortMax = size_t{1} << 15;

  BlockRun acc;
  std::set<int> bound_keys;
  for (size_t step = 0; step < n; ++step) {
    const CompiledPattern& cp = pattern(step);
    BlockRun scanned;
    ExecStats scratch;
    const int sp = tracer->Begin("mvbt.scan", qid, parent);
    rdftx::engine::VectorizedScan(store, cp, num_vars, cq.vars,
                                  sort_req[step], pool, &scanned, &scratch);
    tracer->End(sp);
    out->scan_s += tracer->Duration(sp);
    out->replay_scan_rows += scanned.size();
    if (opt != nullptr) {
      out->qerrors.push_back(QError(opt->EstimatePattern(cp),
                                    static_cast<double>(scanned.size())));
    }
    if (step == 0) {
      acc = std::move(scanned);
    } else {
      const int sj = tracer->Begin("engine.join", qid, parent);
      std::vector<int> shared;
      for (int slot : KeySlots(cp)) {
        if (bound_keys.contains(slot)) shared.push_back(slot);
      }
      out->join_in_rows += acc.size() + scanned.size();
      bool merged = false;
      if (shared.size() == 1) {
        const int s = shared[0];
        if (scanned.sorted_by != s) {
          scanned = rdftx::engine::SortRun(scanned, s, cq.vars, pool);
        }
        if (acc.sorted_by != s && acc.size() <= kAccSortMax) {
          acc = rdftx::engine::SortRun(acc, s, cq.vars, pool);
        }
        if (acc.sorted_by == s) {
          acc = rdftx::engine::MergeJoinRuns(acc, scanned, s, cq.vars, pool);
          merged = true;
        }
      }
      if (!merged) {
        acc = rdftx::engine::HashJoinRuns(acc, scanned, shared, cq.vars, pool);
      }
      tracer->End(sj);
      out->join_s += tracer->Duration(sj);
      out->replay_join_rows += acc.size();
    }
    for (int slot : KeySlots(cp)) bound_keys.insert(slot);
    if (acc.empty()) break;
  }
  out->tail_in_rows = acc.size();
  if (cq.optionals.empty() || acc.empty()) return;

  std::vector<Row> rows = rdftx::engine::RunToRows(acc, cq.vars);
  rdftx::engine::EvalContext ctx;
  ctx.vars = &cq.vars;
  ctx.dict = &dict;
  ctx.now = store.last_time() != 0 ? store.last_time() : rdftx::kChrononMax;
  std::set<int> main_bound;
  for (const CompiledPattern& cp : cq.patterns) {
    for (int slot : KeySlots(cp)) main_bound.insert(slot);
  }
  for (const rdftx::engine::CompiledOptional& group_spec : cq.optionals) {
    std::vector<Row> group;
    std::set<int> block_bound;
    for (size_t i = 0; i < group_spec.patterns.size(); ++i) {
      const CompiledPattern& cp = group_spec.patterns[i];
      std::vector<Row> scanned;
      const int sp = tracer->Begin("mvbt.scan", qid, parent);
      rdftx::engine::ScanToRows(store, cp, num_vars, cq.vars, &scanned);
      tracer->End(sp);
      out->scan_s += tracer->Duration(sp);
      out->replay_scan_rows += scanned.size();
      if (i == 0) {
        group = std::move(scanned);
      } else {
        const int sj = tracer->Begin("engine.join", qid, parent);
        std::vector<int> shared;
        for (int slot : KeySlots(cp)) {
          if (block_bound.contains(slot)) shared.push_back(slot);
        }
        group = rdftx::engine::HashJoinRows(group, scanned, shared);
        tracer->End(sj);
        out->join_s += tracer->Duration(sj);
      }
      for (int slot : KeySlots(cp)) block_bound.insert(slot);
      if (group.empty()) break;
    }
    std::erase_if(group, [&](const Row& row) {
      for (const rdftx::sparqlt::Expr* f : group_spec.filters) {
        if (!rdftx::engine::EvalPredicate(*f, row, ctx)) return true;
      }
      return false;
    });
    std::vector<int> shared;
    for (int slot : block_bound) {
      if (main_bound.contains(slot)) shared.push_back(slot);
    }
    const int sj = tracer->Begin("engine.join", qid, parent);
    out->join_in_rows += rows.size() + group.size();
    rows = rdftx::engine::LeftHashJoinRows(rows, group, shared);
    tracer->End(sj);
    out->join_s += tracer->Duration(sj);
    out->replay_join_rows += rows.size();
    for (int slot : block_bound) main_bound.insert(slot);
  }
}

}  // namespace

void LayerTotals::Add(const QueryTrace& q) {
  ++queries;
  sum.root_s += q.root_s;
  sum.parse_s += q.parse_s;
  sum.compile_s += q.compile_s;
  sum.choose_s += q.choose_s;
  sum.execute_s += q.execute_s;
  sum.scan_s += q.scan_s;
  sum.join_s += q.join_s;
  sum.replay_scan_rows += q.replay_scan_rows;
  sum.replay_join_rows += q.replay_join_rows;
  sum.join_in_rows += q.join_in_rows;
  sum.tail_in_rows += q.tail_in_rows;
  AddStats(q.stats, &sum.stats);
  root_samples.push_back(q.root_s);
  qerrors.insert(qerrors.end(), q.qerrors.begin(), q.qerrors.end());
  if (!q.replay_matches) ++replay_mismatches;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void LayerTotals::SetMetrics(double untraced_median_s, Metrics* m) const {
  const double nq = static_cast<double>(queries);
  auto per_query_us = [nq](double s) { return Ratio(s, nq) * 1e6; };
  const rdftx::ScanStats& sc = sum.stats.scan;
  const double rows_scanned = static_cast<double>(sum.stats.rows_scanned);
  const double tail_s = std::max(
      0.0, sum.execute_s - sum.compile_s - sum.scan_s - sum.join_s);

  m->Set("sparqlt.parse_us", per_query_us(sum.parse_s), "us");
  m->Set("engine.compile_us", per_query_us(sum.compile_s), "us");
  m->Set("optimizer.choose_order_us", per_query_us(sum.choose_s), "us");
  m->Set("optimizer.share", Ratio(sum.choose_s, sum.root_s), "ratio");
  m->Set("optimizer.pattern_qerror_p50", Percentile(qerrors, 0.5), "ratio");
  m->Set("optimizer.pattern_qerror_p90", Percentile(qerrors, 0.9), "ratio");
  m->Set("engine.execute_us", per_query_us(sum.execute_s), "us");
  m->Set("mvbt.scan_us", per_query_us(sum.scan_s), "us");
  m->Set("mvbt.scan_ns_per_row",
         Ratio(sum.scan_s, static_cast<double>(sum.replay_scan_rows)) * 1e9,
         "ns");
  m->Set("mvbt.leaves_per_row",
         Ratio(static_cast<double>(sc.leaves_visited), rows_scanned), "ratio");
  m->Set("mvbt.leaf_cache_hit_rate",
         Ratio(static_cast<double>(sc.cache_hits),
               static_cast<double>(sc.cache_hits + sc.cache_misses)),
         "ratio");
  m->Set("mvbt.entries_decoded_per_row",
         Ratio(static_cast<double>(sc.entries_decoded), rows_scanned), "ratio");
  m->Set("mvbt.zone_map_prune_frac",
         Ratio(static_cast<double>(sc.leaves_pruned),
               static_cast<double>(sc.leaves_visited + sc.leaves_pruned)),
         "ratio");
  m->Set("engine.join_us", per_query_us(sum.join_s), "us");
  m->Set("engine.join_merge_frac",
         Ratio(static_cast<double>(sum.stats.merge_join_steps),
               static_cast<double>(sum.stats.merge_join_steps +
                                   sum.stats.hash_join_steps)),
         "ratio");
  m->Set("engine.join_out_per_in",
         Ratio(static_cast<double>(sum.replay_join_rows),
               static_cast<double>(sum.join_in_rows)),
         "ratio");
  m->Set("engine.tail_us", per_query_us(tail_s), "us");
  m->Set("engine.result_per_join_row",
         Ratio(static_cast<double>(sum.stats.result_rows),
               static_cast<double>(sum.tail_in_rows)),
         "ratio");
  m->Set("trace.overhead_frac",
         untraced_median_s > 0 ? Median(root_samples) / untraced_median_s - 1
                               : 0,
         "ratio");
}

void LayerTotals::Print(const std::string& label) const {
  const double nq = static_cast<double>(std::max<uint64_t>(queries, 1));
  const double tail_s = std::max(
      0.0, sum.execute_s - sum.compile_s - sum.scan_s - sum.join_s);
  std::printf(
      "trace: class=%s n=%llu e2e_us=%.1f parse_us=%.1f compile_us=%.1f "
      "choose_order_us=%.1f execute_us=%.1f scan_us=%.1f join_us=%.1f "
      "tail_us=%.1f join_rows=%llu\n",
      label.c_str(), static_cast<unsigned long long>(queries),
      sum.root_s / nq * 1e6, sum.parse_s / nq * 1e6, sum.compile_s / nq * 1e6,
      sum.choose_s / nq * 1e6, sum.execute_s / nq * 1e6, sum.scan_s / nq * 1e6,
      sum.join_s / nq * 1e6, tail_s / nq * 1e6,
      static_cast<unsigned long long>(sum.stats.join_output_rows));
}

rdftx::Result<rdftx::engine::ResultSet> TracedQuery(
    const rdftx::engine::QueryEngine& engine,
    const rdftx::TemporalStore& store, const rdftx::Dictionary& dict,
    const rdftx::optimizer::QueryOptimizer* opt, const std::string& text,
    uint64_t qid, BlockPool* pool, Tracer* tracer, QueryTrace* out,
    int parent) {
  const int root = tracer->Begin("query", qid, parent);
  int span = tracer->Begin("sparqlt.parse", qid, root);
  auto query = rdftx::sparqlt::Parse(text);
  tracer->End(span);
  out->parse_s = tracer->Duration(span);
  if (!query.ok()) {
    tracer->End(root);
    return query.status();
  }
  span = tracer->Begin("engine.compile", qid, root);
  auto cq = rdftx::engine::Compile(*query, dict);
  tracer->End(span);
  out->compile_s = tracer->Duration(span);
  if (!cq.ok()) {
    tracer->End(root);
    return cq.status();
  }
  std::vector<int> order;
  if (opt != nullptr) {
    span = tracer->Begin("optimizer.choose_order", qid, root);
    order = opt->ChooseOrder(*cq);
    tracer->End(span);
    out->choose_s = tracer->Duration(span);
  } else {
    order = rdftx::engine::QueryEngine::GreedyOrder(*cq);
  }
  span = tracer->Begin("engine.execute", qid, root);
  auto rs = engine.ExecutePlan(*query, order);
  tracer->End(span);
  out->execute_s = tracer->Duration(span);
  tracer->End(root);
  out->root_s = tracer->Duration(root);
  if (!rs.ok()) return rs.status();
  out->stats = rs->stats;

  const int replay = tracer->Begin("replay", qid, parent);
  Replay(store, dict, *cq, order, opt, pool, tracer, qid, replay, out);
  tracer->End(replay);
  out->replay_matches = out->replay_join_rows == rs->stats.join_output_rows;
  return rs;
}

void PrintSpanSummary(const Tracer& tracer) {
  for (const auto& [name, t] : tracer.Summarize()) {
    std::printf("spans: name=%s count=%llu total_ms=%.3f self_ms=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_s * 1e3, t.self_s * 1e3);
  }
}

}  // namespace perfbench
