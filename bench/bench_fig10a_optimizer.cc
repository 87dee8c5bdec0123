// Fig 10(a): effectiveness of the query optimizer. For each complex
// query we execute the plan the optimizer picks, plus enumerated
// alternative left-deep orders, and report best/worst/optimizer times
// and the optimization time itself (paper: the optimized plan is close
// to the best; optimization takes 3.5-10 ms; the best/worst gap grows
// with the pattern count).
//
// With k patterns there are k! left-deep orders; we enumerate all of
// them up to 4 patterns and sample 48 random orders beyond that (the
// paper's testbed enumerated all plans; sampling preserves the spread).
// choose_share is optimization / (optimization + chosen plan) time.
//
// Every order must succeed and return the chosen order's rows (compared
// as sorted row fingerprints); the bench exits 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/query_gen.h"

int main() {
  using namespace rdftx;
  using namespace rdftx::bench;

  Fixture f = MakeWikipedia(Scaled(120000));
  Rng rng(33);
  auto by_size = workload::MakeComplexQueries(f.data, *f.dict, 3, 7, 5,
                                              &rng);
  auto bundle = BuildOptimizer(f);
  auto store = BuildStore(System::kRdfTx, f);
  engine::QueryEngine eng(store.get(), f.dict.get());

  PrintSeriesHeader("Fig 10(a): optimizer effectiveness in Wikipedia",
                    {"patterns", "best_plan_ms", "worst_plan_ms",
                     "rdftx_plan_ms", "optimization_ms", "choose_share",
                     "plans_tried"});
  int failures = 0;
  for (int size = 3; size <= 7; ++size) {
    double best_sum = 0, worst_sum = 0, chosen_sum = 0, opt_sum = 0;
    int plans_tried = 0;
    for (const std::string& text : by_size[size]) {
      auto parsed = sparqlt::Parse(text);
      if (!parsed.ok()) continue;
      auto cq = engine::Compile(*parsed, *f.dict);
      if (!cq.ok()) continue;

      // Optimizer's plan (timed separately).
      std::vector<int> chosen;
      double opt_ms = TimeSeconds([&] {
                        chosen = bundle->optimizer->ChooseOrder(*cq);
                      }) *
                      1000.0;
      // One checked warm-up run, then two measured runs. `rows` gets
      // the warm-up's canonical rows; false when the plan fails.
      auto time_plan = [&](const std::vector<int>& order,
                           std::vector<std::string>* rows, double* ms) {
        auto warm = eng.ExecutePlan(*parsed, order);
        if (!warm.ok()) {
          std::fprintf(stderr, "PLAN FAILED: %s\n%s\n",
                       warm.status().ToString().c_str(), text.c_str());
          return false;
        }
        *rows = CanonicalRows(*warm);
        double s = TimeSeconds([&] {
          // status-ignored: the warm-up above checked this plan.
          eng.ExecutePlan(*parsed, order).IgnoreError();
          // status-ignored: the warm-up above checked this plan.
          eng.ExecutePlan(*parsed, order).IgnoreError();
        });
        *ms = s * 1000.0 / 2.0;
        return true;
      };
      std::vector<std::string> chosen_rows;
      double chosen_ms = 0.0;
      if (!time_plan(chosen, &chosen_rows, &chosen_ms)) {
        ++failures;
        continue;
      }

      // Alternative orders.
      std::vector<std::vector<int>> orders;
      std::vector<int> base(static_cast<size_t>(size));
      for (int i = 0; i < size; ++i) base[static_cast<size_t>(i)] = i;
      if (size <= 4) {
        std::vector<int> perm = base;
        do {
          orders.push_back(perm);
        } while (std::next_permutation(perm.begin(), perm.end()));
      } else {
        for (int i = 0; i < 48; ++i) {
          std::vector<int> perm = base;
          for (size_t j = perm.size(); j > 1; --j) {
            std::swap(perm[j - 1], perm[rng.Uniform(j)]);
          }
          orders.push_back(perm);
        }
      }
      double best = chosen_ms, worst = chosen_ms;
      for (const auto& order : orders) {
        std::vector<std::string> rows;
        double ms = 0.0;
        if (!time_plan(order, &rows, &ms)) {
          ++failures;
          continue;
        }
        if (rows != chosen_rows) {
          std::fprintf(stderr,
                       "ROW MISMATCH: %zu rows vs %zu for the chosen order\n"
                       "%s\n",
                       rows.size(), chosen_rows.size(), text.c_str());
          ++failures;
        }
        best = std::min(best, ms);
        worst = std::max(worst, ms);
        ++plans_tried;
      }
      best_sum += best;
      worst_sum += worst;
      chosen_sum += chosen_ms;
      opt_sum += opt_ms;
    }
    const double k = static_cast<double>(by_size[size].size());
    if (k == 0) continue;
    PrintSeriesRow({std::to_string(size), Fmt(best_sum / k),
                    Fmt(worst_sum / k), Fmt(chosen_sum / k),
                    Fmt(opt_sum / k), Fmt(opt_sum / (opt_sum + chosen_sum)),
                    std::to_string(plans_tried)});
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d plan failures or row mismatches\n", failures);
    return 1;
  }
  return 0;
}
