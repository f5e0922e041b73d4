// perfbench: runs one workload for a fixed time, checks every output, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON line.
//
//   perfbench --workload paper_sweep --seed 1 --seconds 30 --trace 0
//             --run-dir <scratch dir>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|serve_mixed|"
               "fleet_failover --seed N --seconds S --trace 0|1 "
               "--run-dir DIR\n");
  return 2;
}

/// Per-layer self times from the traced rounds: mean self ms per span.
void ReportSelfTimes(const Tracer& tracer, Report& report) {
  for (const auto& [name, self] : tracer.SelfTimes()) {
    if (name.rfind("bench.", 0) == 0 && name != "bench.check") continue;
    report.Set("self_ms." + name,
               self.total_ms / static_cast<double>(self.count));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.threads = std::clamp<int>(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--run-dir") {
      config.run_dir = value;

    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || config.run_dir.empty() ||
      config.seconds <= 0) {
    return Usage();
  }

  Tracer tracer;
  Tracer* active = config.trace ? &tracer : nullptr;
  Report report;
  if (config.workload == "paper_sweep") {
    RunPaperSweep(config, active, report);
  } else if (config.workload == "serve_mixed") {
    RunServeMixed(config, active, report);
  } else if (config.workload == "fleet_failover") {
    RunFleetFailover(config, active, report);
  } else {
    return Usage();
  }

  // Every end-to-end metric is a positive, finite measurement.
  for (const MetricDef& def : EndToEndMetrics()) {
    const double value = report.Get(def.name);
    if (!std::isfinite(value) || value <= 0.0) {
      report.Fail(std::string("metric not measured: ") + def.name);
    }
  }
  if (config.trace) {
    ReportSelfTimes(tracer, report);
    const std::string path = config.run_dir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (!tracer.WriteJson(path)) report.Fail("cannot write " + path);
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }
  report.Print(config.trace);
  return report.correct() ? 0 : 1;
}
