// paper_sweep: the paper's Tables 4-5 experiment. A seeded high-granularity
// corpus runs against every device algorithm on the simulated Pascal GPU.
// Almost all host time is the interpreter (sim); no serve, update or fleet
// code runs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "kernels/launch.h"
#include "sim/config.h"
#include "trace/attribution.h"
#include "workloads.h"

namespace perfbench {
namespace {

using capellini::kernels::DeviceAlgorithm;

struct AlgInfo {
  DeviceAlgorithm algorithm;
  const char* key;
};

// Heaviest first, so each round's long tasks start early and the round ends
// with short ones.
constexpr AlgInfo kAlgs[] = {
    {DeviceAlgorithm::kCapelliniTwoPhase, "twophase"},
    {DeviceAlgorithm::kCusparseProxy, "cusparse"},
    {DeviceAlgorithm::kSyncFreeCsc, "syncfree"},
    {DeviceAlgorithm::kSyncFreeWarpCsr, "syncfree_csr"},
    {DeviceAlgorithm::kCapelliniWritingFirst, "capellini"},
    {DeviceAlgorithm::kHybrid, "hybrid"},
    {DeviceAlgorithm::kLevelSet, "levelset"},
};
constexpr std::size_t kNumAlgs = std::size(kAlgs);
constexpr std::size_t kCapellini = 4;
constexpr std::size_t kSyncFree = 2;

// The quick tier's high-granularity recipe (gen/corpus.cpp) at a quarter of
// its rows: one level-structured matrix per granularity target with wide
// levels, plus a shallow random-prefix matrix. Unlike the quick tier, level
// sizes carry no jitter: with it, each seed's matrices cost different amounts
// and the latency median moved with the seed, not only with the program.
constexpr double kDeltas[] = {0.72, 0.80, 0.90, 1.00, 1.10, 1.18};
constexpr Idx kBeta = 4000;
constexpr Idx kLevels = 8;
constexpr Idx kPrefixRows = 32000;

struct Problem {
  std::string name;
  Csr matrix;
  std::vector<double> b;
  std::vector<double> x_ref;
};

/// Generates the corpus: the timed part of set-up.
std::vector<Problem> GenerateCorpus(std::uint64_t seed, Tracer* tracer) {
  std::vector<Problem> corpus;
  std::mt19937_64 rng(MixSeed(seed, 1));
  {
    Span span(tracer, "gen");
    for (const double delta : kDeltas) {
      // Eq. 1 inverted for alpha at fixed beta (b1 = b2 = 0.01).
      const double ratio = std::pow(10.0, delta) - 0.01;
      const double alpha =
          std::pow(10.0, std::log10(static_cast<double>(kBeta)) / ratio) - 0.01;
      capellini::LevelStructuredOptions ls;
      ls.num_levels = kLevels;
      ls.components_per_level = kBeta;
      ls.avg_nnz_per_row = alpha;
      ls.size_jitter = 0.0;
      ls.seed = rng();
      char name[32];
      std::snprintf(name, sizeof name, "ls_d%04.0f", delta * 1000);
      corpus.push_back({name, capellini::MakeLevelStructured(ls), {}, {}});
    }
    capellini::RandomLowerOptions rl;
    rl.rows = kPrefixRows;
    rl.avg_strict_nnz_per_row = 2.5;
    rl.window = 0;
    rl.empty_row_fraction = 0.3;
    rl.seed = rng();
    corpus.push_back({"random_prefix", capellini::MakeRandomLower(rl), {}, {}});
  }
  return corpus;
}

/// The benchmark's own references, built outside the set-up clock:
/// b = L x_true, and the substitution's answer, which must be x_true.
void BuildReferences(std::uint64_t seed, std::vector<Problem>& corpus,
                     std::vector<double>& forward_ms, Report& report) {
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Problem& p = corpus[i];
    const std::vector<double> x_true = RandomVector(
        static_cast<std::size_t>(p.matrix.rows()), MixSeed(seed, 100 + i), -1.0,
        1.0);
    p.b = MultiplyLower(p.matrix, x_true);
    const auto t0 = Clock::now();
    p.x_ref = ForwardSubstitute(p.matrix, p.b);
    forward_ms.push_back(MsSince(t0));
    if (!Accept(p.x_ref, x_true)) {
      report.Fail("reference substitution misses x_true on " + p.name);
    }
  }
}

struct TaskResult {
  bool ok = false;
  double host_ms = 0.0;
  capellini::sim::LaunchStats stats;
  double exec_ms = 0.0;
  double gflops = 0.0;
  double preprocessing_ms = 0.0;
  capellini::trace::StallBuckets buckets;
};

/// The simulated outcome of one round; identical in every round of a run and
/// with tracing on or off.
struct SimTotals {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t stall_slots = 0;
  std::uint64_t dram_bytes = 0;
  double exec_ms = 0.0;
  std::vector<double> exec_ms_by_task;
  bool operator==(const SimTotals&) const = default;
};

}  // namespace

void RunPaperSweep(const RunConfig& config, Tracer* tracer, Report& report) {
  std::vector<double> setup_ms;
  std::vector<double> forward_ms;
  std::vector<Problem> corpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    corpus.clear();
    const auto t0 = Clock::now();
    corpus = GenerateCorpus(config.seed, tracer);
    setup_ms.push_back(MsSince(t0));
  }
  BuildReferences(config.seed, corpus, forward_ms, report);
  if (!CheckerRejectsPerturbed(corpus.front().x_ref)) {
    report.Fail("the output check accepted a perturbed solution");
  }

  // Task order: algorithm-major (heaviest first), larger matrices first.
  std::vector<std::size_t> by_size(corpus.size());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(), [&](auto a, auto b) {
    return corpus[a].matrix.nnz() > corpus[b].matrix.nnz();
  });
  struct Task {
    std::size_t alg;
    std::size_t problem;
  };
  std::vector<Task> tasks;
  for (std::size_t a = 0; a < kNumAlgs; ++a) {
    for (const std::size_t p : by_size) tasks.push_back({a, p});
  }
  const std::size_t num_tasks = tasks.size();
  const capellini::sim::DeviceConfig device = capellini::sim::PascalGtx1080();

  // One pass over every task on `threads` workers. Spans go to `tr` (null =
  // off); `attribute` attaches a stall-attribution sink to every launch.
  auto run_pass = [&](int round, Tracer* tr, bool attribute) {
    std::vector<TaskResult> results(num_tasks);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next++; i < num_tasks; i = next++) {
        const Task& task = tasks[i];
        const Problem& p = corpus[task.problem];
        const std::uint64_t request =
            static_cast<std::uint64_t>(round + 1) * num_tasks + i;
        Span root(tr, "bench.task", 0, request);
        capellini::trace::StallAttribution attribution;
        capellini::kernels::SolveOptions options;
        if (attribute) options.trace_sink = &attribution;
        TaskResult& r = results[i];
        const auto t0 = Clock::now();
        auto solved = [&] {
          Span span(tr, "kernels.solve", root.id(), request);
          return capellini::kernels::SolveOnDevice(
              kAlgs[task.alg].algorithm, p.matrix, p.b, device, options);
        }();
        r.host_ms = MsSince(t0);
        Span check(tr, "bench.check", root.id(), request);
        r.ok = solved.ok() && Accept(solved->x, p.x_ref);
        if (solved.ok()) {
          r.stats = solved->stats;
          r.exec_ms = solved->exec_ms;
          r.gflops = solved->gflops;
          r.preprocessing_ms = solved->preprocessing_ms;
        }
        if (attribute) r.buckets = attribution.Totals();
      }
    };
    std::vector<std::thread> threads;
    const int n = std::min<int>(config.threads, static_cast<int>(num_tasks));
    for (int t = 0; t < n; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    return results;
  };

  // Traced runs first make one untimed pass with stall attribution attached
  // (spin shares); its simulated statistics must match the untraced rounds.
  std::vector<TaskResult> attributed;
  if (config.trace) attributed = run_pass(-1, nullptr, /*attribute=*/true);

  std::vector<std::vector<TaskResult>> rounds;
  std::vector<double> round_ms;
  const auto start = Clock::now();
  while (WantAnotherRound(config, start, rounds.size() * num_tasks,
                          static_cast<int>(rounds.size()))) {
    const int round = static_cast<int>(rounds.size());
    const auto t0 = Clock::now();
    rounds.push_back(
        run_pass(round, RoundTraced(config, round) ? tracer : nullptr, false));
    round_ms.push_back(MsSince(t0));
  }

  // Accounting and checks.
  std::vector<SimTotals> totals;
  auto tally = [&](const std::vector<TaskResult>& results) {
    SimTotals t;
    for (std::size_t i = 0; i < num_tasks; ++i) {
      const TaskResult& r = results[i];
      report.Op("solve", r.ok);
      if (!r.ok) {
        report.Fail(std::string("wrong or failed solve: ") +
                    kAlgs[tasks[i].alg].key + " on " +
                    corpus[tasks[i].problem].name);
      }
      t.cycles += r.stats.cycles;
      t.instructions += r.stats.instructions;
      t.stall_slots += r.stats.stall_slots;
      t.dram_bytes += r.stats.dram_bytes;
      t.exec_ms += r.exec_ms;
      t.exec_ms_by_task.push_back(r.exec_ms);
    }
    return t;
  };
  for (const auto& results : rounds) totals.push_back(tally(results));
  for (std::size_t r = 1; r < totals.size(); ++r) {
    if (!(totals[r] == totals[0])) {
      report.Fail("simulated statistics differ between round 0 and round " +
                  std::to_string(r));
    }
  }
  if (config.trace && !(tally(attributed) == totals[0])) {
    report.Fail("simulated statistics differ with the trace sink attached");
  }

  // Host-time figures come from untraced rounds only.
  // Per untraced round: solves per second and host ns per simulated cycle;
  // their medians damp a round slowed by other load on the machine.
  std::vector<double> round_rates;
  std::vector<double> round_ns_per_cycle;
  std::vector<double> latencies;
  std::vector<double> preprocessing;
  std::vector<double> alg_host_ns(kNumAlgs, 0.0);
  std::vector<double> alg_cycles(kNumAlgs, 0.0);
  std::vector<double> alg_instr(kNumAlgs, 0.0);
  std::vector<capellini::trace::StallBuckets> alg_buckets(kNumAlgs);
  for (std::size_t i = 0; i < attributed.size(); ++i) {
    alg_buckets[tasks[i].alg] += attributed[i].buckets;
  }
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    const bool traced = RoundTraced(config, static_cast<int>(round));
    (traced ? traced_ms : untraced_ms).push_back(round_ms[round]);
    if (!traced) {
      round_rates.push_back(static_cast<double>(num_tasks) /
                            (round_ms[round] / 1000.0));
    }
    double host_ns = 0.0;
    double cycles = 0.0;
    for (std::size_t i = 0; i < num_tasks; ++i) {
      const TaskResult& r = rounds[round][i];
      const std::size_t a = tasks[i].alg;
      if (traced) continue;
      latencies.push_back(r.host_ms);
      preprocessing.push_back(r.preprocessing_ms);
      host_ns += r.host_ms * 1e6;
      cycles += static_cast<double>(r.stats.cycles);
      alg_host_ns[a] += r.host_ms * 1e6;
      alg_cycles[a] += static_cast<double>(r.stats.cycles);
      alg_instr[a] += static_cast<double>(r.stats.instructions);
    }
    if (!traced) round_ns_per_cycle.push_back(host_ns / cycles);
  }

  const SimTotals& sim = totals.front();
  report.Set("setup_s", MedianSetupSeconds(setup_ms));
  report.Set("solves_per_s", Quantile(round_rates, 0.5));
  report.Set("lat_p50_ms", Quantile(latencies, 0.50));
  report.Set("lat_p95_ms", Quantile(latencies, 0.95));
  report.Set("host_ns_per_sim_cycle", Quantile(round_ns_per_cycle, 0.5));
  report.Set("sim_ms", sim.exec_ms);
  report.Set("peak_rss_mb", PeakRssMb());

  for (std::size_t a = 0; a < kNumAlgs; ++a) {
    const std::string key = kAlgs[a].key;
    report.Set("sim.host_ns_per_cycle." + key, alg_host_ns[a] / alg_cycles[a]);
    report.Set("sim.host_ns_per_warp_instr." + key,
               alg_host_ns[a] / alg_instr[a]);
    const auto& b = alg_buckets[a];
    const double issued = static_cast<double>(b.useful_issue + b.reconv_issue +
                                              b.spin_issue);
    if (issued > 0) {
      report.Set("sim.spin_instr_share." + key,
                 static_cast<double>(b.spin_issue) / issued);
    }
  }
  report.Set("sim.cycles", static_cast<double>(sim.cycles));
  report.Set("sim.warp_instructions", static_cast<double>(sim.instructions));
  report.Set("sim.stall_slots", static_cast<double>(sim.stall_slots));
  report.Set("sim.dram_bytes", static_cast<double>(sim.dram_bytes));

  // Table 4: mean Writing-First GFLOPS; Table 5: mean per-matrix speedup of
  // Writing-First over SyncFree (simulated time).
  const TaskResult* capellini_runs = &rounds.front()[kCapellini * corpus.size()];
  const TaskResult* syncfree_runs = &rounds.front()[kSyncFree * corpus.size()];
  double gflops = 0.0;
  double speedup = 0.0;
  for (std::size_t m = 0; m < corpus.size(); ++m) {
    gflops += capellini_runs[m].gflops;
    speedup += syncfree_runs[m].exec_ms / capellini_runs[m].exec_ms;
  }
  report.Set("sim_gflops_capellini", gflops / static_cast<double>(corpus.size()));
  report.Set("sim_speedup_vs_syncfree",
             speedup / static_cast<double>(corpus.size()));
  report.Set("kernels.preprocessing_ms", Mean(preprocessing));
  report.Set("bench.forward_subst_ms", Mean(forward_ms));
  ReportTraceOverhead(traced_ms, untraced_ms, report);
}

}  // namespace perfbench
