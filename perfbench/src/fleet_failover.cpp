// fleet_failover: partitioned solves with fleet::FleetSolver over K=4
// simulated devices on level-aware cuts, recovery on. A seeded fault plan
// kills one partition (every publish dropped) on a quarter of the solves; each
// solve must still return a verified answer. Partitioning, comm replay
// through the external-store seam and the failover ladder run only here.
#include <algorithm>
#include <memory>

#include "core/solver.h"
#include "fleet/fleet.h"
#include "gen/level_structured.h"
#include "sim/fault.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kDevices = 4;
/// Sixteen matrices, four solves each per round; slot 0 of matrix m kills
/// device m % kDevices, so a quarter of the solves lose a partition and every
/// device is killed equally often. Many matrices keep the latency quantiles
/// from resting on a few seeded dependency patterns.
constexpr std::size_t kMatrices = 4 * kDevices;
constexpr int kSlots = 4;

/// Matrices of one level-structured shape, differing only in the seeded
/// dependency pattern, so clean solves cost alike and the latency median
/// does not sit between two matrices' costs.
Csr MakeFleetMatrix(std::uint64_t seed) {
  capellini::LevelStructuredOptions o;
  o.num_levels = 6;
  o.components_per_level = 600;
  o.avg_nnz_per_row = 3.0;
  o.seed = seed;
  return capellini::MakeLevelStructured(o);
}

struct Problem {
  std::vector<double> b;
  std::vector<double> x_ref;
};

struct Setup {
  std::vector<std::unique_ptr<capellini::Solver>> solvers;
  std::vector<std::vector<Problem>> problems;  // [matrix][slot]
  std::unique_ptr<capellini::fleet::DeviceFleet> fleet;
};

/// The simulated outcome of one round; identical in every round of a run and
/// with tracing on or off.
struct FleetTotals {
  std::uint64_t makespan_cycles = 0;
  std::uint64_t messages = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t boundary_stall_cycles = 0;
  std::uint64_t failed_partitions = 0;
  std::uint64_t rows_reexecuted = 0;
  std::uint64_t rows_solved = 0;
  std::uint64_t device_rungs = 0;
  std::uint64_t host_rungs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t stall_slots = 0;
  std::uint64_t dram_bytes = 0;
  double exec_ms = 0.0;
  bool operator==(const FleetTotals&) const = default;
};

}  // namespace

void RunFleetFailover(const RunConfig& config, Tracer* tracer, Report& report) {
  std::vector<double> setup_ms;
  std::vector<double> analyze_ms;
  std::vector<double> forward_ms;
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};
    const auto t0 = Clock::now();
    std::vector<Csr> matrices;
    {
      Span span(tracer, "gen");
      for (std::size_t m = 0; m < kMatrices; ++m) {
        matrices.push_back(MakeFleetMatrix(MixSeed(config.seed, 20 + m)));
      }
    }
    for (std::size_t m = 0; m < kMatrices; ++m) {
      setup.solvers.push_back(
          std::make_unique<capellini::Solver>(std::move(matrices[m])));
      const auto a0 = Clock::now();
      {
        Span span(tracer, "core.analyze");
        setup.solvers.back()->analysis();
      }
      analyze_ms.push_back(MsSince(a0));
    }
    capellini::fleet::FleetConfig fleet_config;
    fleet_config.num_devices = kDevices;
    fleet_config.strategy = capellini::fleet::PartitionStrategy::kLevelAware;
    fleet_config.host_threads = config.threads;
    fleet_config.recovery.enabled = true;
    setup.fleet = std::make_unique<capellini::fleet::DeviceFleet>(fleet_config);
    setup_ms.push_back(MsSince(t0));
  }
  // The benchmark's own references, outside the set-up clock: b = L x_true,
  // and the substitution's answer, which must be x_true.
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const Csr& lower = setup.solvers[m]->matrix();
    std::vector<Problem> slots;
    for (int s = 0; s < kSlots; ++s) {
      const std::vector<double> x_true = RandomVector(
          static_cast<std::size_t>(lower.rows()),
          MixSeed(config.seed, 300 + m * kSlots + s), -1.0, 1.0);
      Problem p;
      p.b = MultiplyLower(lower, x_true);
      const auto f0 = Clock::now();
      p.x_ref = ForwardSubstitute(lower, p.b);
      forward_ms.push_back(MsSince(f0));
      if (!Accept(p.x_ref, x_true)) {
        report.Fail("reference substitution misses x_true");
      }
      slots.push_back(std::move(p));
    }
    setup.problems.push_back(std::move(slots));
  }
  if (!CheckerRejectsPerturbed(setup.problems[0][0].x_ref)) {
    report.Fail("the output check accepted a perturbed solution");
  }

  // The round's operation sequence, shuffled once by the seed.
  struct Op {
    std::size_t matrix;
    int slot;
  };
  std::vector<Op> sequence;
  for (std::size_t m = 0; m < kMatrices; ++m) {
    for (int s = 0; s < kSlots; ++s) sequence.push_back({m, s});
  }
  std::shuffle(sequence.begin(), sequence.end(),
               std::mt19937_64(MixSeed(config.seed, 4)));

  capellini::fleet::FleetSolver solver(setup.fleet.get());
  capellini::sim::FaultInjector injector;
  std::vector<FleetTotals> totals;
  std::vector<double> latencies;
  std::vector<double> device_host_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  // Per untraced round: solves per second and host ns per simulated
  // makespan cycle; their medians damp a round slowed by other load.
  std::vector<double> round_rates;
  std::vector<double> round_ns_per_cycle;
  std::size_t solves = 0;
  const auto start = Clock::now();
  while (WantAnotherRound(config, start, solves,
                          static_cast<int>(totals.size()))) {
    const int round = static_cast<int>(totals.size());
    Tracer* tr = RoundTraced(config, round) ? tracer : nullptr;
    FleetTotals t;
    double host_ns = 0.0;
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      const Op& op = sequence[i];
      const capellini::Solver& system = *setup.solvers[op.matrix];
      const Problem& p = setup.problems[op.matrix][static_cast<std::size_t>(op.slot)];
      const std::uint64_t request =
          static_cast<std::uint64_t>(round) * sequence.size() + i + 1;
      const bool kill = op.slot == 0;
      const int victim = static_cast<int>(op.matrix % kDevices);
      if (kill) {
        capellini::sim::FaultPlan plan;
        plan.seed = MixSeed(config.seed, 7000 + op.matrix * kSlots + op.slot);
        plan.drop_publish_rate = 1.0;
        injector.Reseed(plan);
        setup.fleet->set_fault_injector(victim, &injector);
      }
      Span root(tr, "bench.solve", 0, request);
      const auto t0 = Clock::now();
      auto result = [&] {
        Span span(tr, "fleet.solve", root.id(), request);
        return solver.Solve(system, p.b);
      }();
      const double ms = MsSince(t0);
      if (kill) setup.fleet->set_fault_injector(victim, nullptr);
      Span check(tr, "bench.check", root.id(), request);
      const bool ok = result.ok() && result->status.ok() &&
                      Accept(result->x, p.x_ref);
      report.Op("fleet_solve", ok);
      if (!ok) {
        report.Fail("fleet solve " + std::to_string(request) +
                    " wrong or failed: " +
                    (result.ok() ? result->status : result.status()).ToString());
        continue;
      }
      const auto& stats = result->stats;
      t.makespan_cycles += stats.makespan_cycles;
      t.messages += stats.total_messages;
      t.comm_bytes += stats.total_comm_bytes;
      t.rows_reexecuted += stats.rows_reexecuted;
      t.rows_solved += static_cast<std::uint64_t>(system.matrix().rows());
      t.device_rungs += stats.device_rung_recoveries;
      t.host_rungs += stats.host_rung_recoveries;
      t.exec_ms += stats.exec_ms;
      double solve_device_ms = 0.0;
      for (const auto& device : stats.devices) {
        t.boundary_stall_cycles += device.boundary_stall_cycles;
        t.failed_partitions += device.failed_over ? 1 : 0;
        t.cycles += device.launch.cycles;
        t.instructions += device.launch.instructions;
        t.stall_slots += device.launch.stall_slots;
        t.dram_bytes += device.launch.dram_bytes;
        solve_device_ms += device.host_ms;
      }
      ++solves;
      if (tr == nullptr) {
        latencies.push_back(ms);
        device_host_ms.push_back(solve_device_ms);
        host_ns += ms * 1e6;
      }
    }
    const double ms = MsSince(r0);
    (tr != nullptr ? traced_ms : untraced_ms).push_back(ms);
    if (tr == nullptr) {
      round_rates.push_back(static_cast<double>(sequence.size()) / (ms / 1000.0));
      round_ns_per_cycle.push_back(host_ns /
                                   static_cast<double>(t.makespan_cycles));
    }
    totals.push_back(t);
  }
  for (std::size_t r = 1; r < totals.size(); ++r) {
    if (!(totals[r] == totals[0])) {
      report.Fail("simulated fleet statistics differ between round 0 and "
                  "round " + std::to_string(r));
    }
  }

  const FleetTotals& sim = totals.front();
  report.Set("setup_s", MedianSetupSeconds(setup_ms));
  report.Set("solves_per_s", Quantile(round_rates, 0.5));
  report.Set("lat_p50_ms", Quantile(latencies, 0.50));
  report.Set("lat_p95_ms", Quantile(latencies, 0.95));
  report.Set("host_ns_per_sim_cycle", Quantile(round_ns_per_cycle, 0.5));
  report.Set("sim_ms", sim.exec_ms);
  report.Set("peak_rss_mb", PeakRssMb());

  report.Set("sim.cycles", static_cast<double>(sim.cycles));
  report.Set("sim.warp_instructions", static_cast<double>(sim.instructions));
  report.Set("sim.stall_slots", static_cast<double>(sim.stall_slots));
  report.Set("sim.dram_bytes", static_cast<double>(sim.dram_bytes));
  report.Set("core.analyze_ms", Mean(analyze_ms));
  report.Set("fleet.makespan_cycles", static_cast<double>(sim.makespan_cycles));
  report.Set("fleet.comm_messages", static_cast<double>(sim.messages));
  report.Set("fleet.comm_bytes", static_cast<double>(sim.comm_bytes));
  report.Set("fleet.boundary_stall_cycles",
             static_cast<double>(sim.boundary_stall_cycles));
  report.Set("fleet.device_host_ms", Mean(device_host_ms));
  report.Set("fleet.failed_partitions",
             static_cast<double>(sim.failed_partitions));
  report.Set("fleet.rows_reexecuted", static_cast<double>(sim.rows_reexecuted));
  report.Set("fleet.useful_row_ratio",
             static_cast<double>(sim.rows_solved) /
                 static_cast<double>(sim.rows_solved + sim.rows_reexecuted));
  report.Set("fleet.device_rung_recoveries",
             static_cast<double>(sim.device_rungs));
  report.Set("fleet.host_rung_recoveries", static_cast<double>(sim.host_rungs));
  report.Set("bench.forward_subst_ms", Mean(forward_ms));
  ReportTraceOverhead(traced_ms, untraced_ms, report);
}

}  // namespace perfbench
