// anr_perfbench: runs one benchmark workload against libanr's public
// entry points and prints one JSON result document on stdout.
//
//   anr_perfbench --workload plan_10k|serve_zipf|mission_terrain
//                 --seed N --seconds S [--trace 0|1] [--inject-violation]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs half the
// time untraced and half with the library's registries attached and
// reports the per-layer breakdown. --inject-violation plants one
// violation (a keep-out entry on mission_terrain, a corrupted repeat on
// plan_10k, a corrupted served plan on serve_zipf), to prove the checks
// fail the run.
//
// Exit status: 0 when every plan met the contract and every repeat was
// byte-identical, 1 on any violation, 2 on bad arguments or a workload
// that could not run (no result is printed then).
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "util.h"

namespace {

int usage() {
  std::cerr << "usage: anr_perfbench --workload plan_10k|serve_zipf|"
               "mission_terrain --seed N --seconds S [--trace 0|1] "
               "[--inject-violation]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--inject-violation") {
      args.inject_violation = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      args.trace = value[0] == '1';
    } else {
      return usage();
    }
  }

  Report report;
  {
    anr::json::Object ctx;
    ctx.emplace("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    ctx.emplace("hardware_concurrency",
                static_cast<double>(std::thread::hardware_concurrency()));
    ctx.emplace("arena_threads", anr::arena_threads());
    ctx.emplace("build_type", PERFBENCH_BUILD_TYPE);
    ctx.emplace("compiler", PERFBENCH_COMPILER);
    ctx.emplace("seed", static_cast<double>(args.seed));
    report.detail("context", anr::json::Value(std::move(ctx)));
  }

  try {
    if (args.workload == "plan_10k") {
      run_plan_10k(args, report);
    } else if (args.workload == "serve_zipf") {
      run_serve_zipf(args, report);
    } else if (args.workload == "mission_terrain") {
      run_mission_terrain(args, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "anr_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  if (args.trace) {
    const double attempted = static_cast<double>(report.attempted_count());
    report.metric("bench.failed_ratio",
                  attempted > 0 ? report.failed_count() / attempted : 0.0,
                  "ratio");
    report.metric("bench.plans_c_broken",
                  static_cast<double>(report.plan_defects("c_broken")),
                  "count");
    report.metric("bench.plans_gap_over_rc",
                  static_cast<double>(report.plan_defects("gap_over_rc")),
                  "count");
  }
  std::cout << report.to_json(args).dump() << std::endl;
  return report.correct() ? 0 : 1;
}
