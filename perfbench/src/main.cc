// rdftx_perfbench: one workload of the end-to-end benchmark per process.
//
//   rdftx_perfbench --workload wiki-mix|gov-star|live-ingest --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//                   [--scale X] [--drop-row]
//
// Prints human-readable report lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// carries the end-to-end metrics, a traced run (--trace 1) the
// per-layer ones. Exits non-zero on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--drop-row") {
      o->drop_row = true;
    } else if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--scale" && has_value) {
      o->scale = std::atof(argv[++i]);
    } else if (a == "--work-dir" && has_value) {
      o->work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  return (o->workload == "wiki-mix" || o->workload == "gov-star" ||
          o->workload == "live-ingest") &&
         o->seconds > 0 && o->scale > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload wiki-mix|gov-star|live-ingest --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--scale X] "
                 "[--drop-row]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.work_dir.c_str());
    return 2;
  }
  perfbench::PrintMachine();
  std::printf("load: closed loop, 1 client thread, engine num_threads=1\n");

  const double wall0 = perfbench::WallNow();
  const double cpu0 = perfbench::CpuNow();
  perfbench::Metrics metrics;
  perfbench::Outcome outcome;
  if (opt.workload == "live-ingest") {
    perfbench::RunLiveWorkload(opt, &metrics, &outcome);
  } else {
    perfbench::RunReadWorkload(opt, &metrics, &outcome);
  }
  metrics.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  const double wall = perfbench::WallNow() - wall0;
  const double cpu = perfbench::CpuNow() - cpu0;
  std::printf("process: wall_s=%.3f cpu_s=%.3f cpu_per_wall=%.3f\n", wall, cpu,
              wall > 0 ? cpu / wall : 0.0);
  const double error_frac =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted)
          : 1.0;
  std::printf("outcome: attempted=%llu failed=%llu error_frac=%.6g "
              "invariants=%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), error_frac,
              outcome.invariant_broken ? "broken" : "held");
  const bool correct = outcome.attempted > 0 && outcome.failed == 0 &&
                       !outcome.invariant_broken;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.ToJson().c_str());
  return 0;
}
