// Dispatch-equivalence suite for the threaded interpreter core.
//
// The threaded-dispatch / batch-vectorized core (sim/machine.cpp) is an
// observational-equivalence refactor: it must produce bit-identical simulated
// cycles, counters, solutions, and trace/fault event streams to the legacy
// scalar core. The scalar loop is demoted to a test-only oracle — no public
// config selects it; this suite (and bench_interp's identity gate) reaches it
// through sim::Machine::set_scalar_core_for_test. The gate covers every
// Algorithm, lower AND upper factors, with a TraceSink attached and with a
// seeded FaultInjector attached. If the two cores ever disagree on a single
// cycle or a single bit of x, the oracle must stay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/solver.h"
#include "gen/banded.h"
#include "gen/level_structured.h"
#include "gen/random_lower.h"
#include "kernels/common.h"
#include "kernels/launch.h"
#include "matrix/triangular.h"
#include "sim/config.h"
#include "sim/disasm.h"
#include "sim/fault.h"
#include "sim/isa.h"
#include "sim/kernel.h"
#include "sim/machine.h"
#include "sim/memory.h"
#include "trace/sink.h"

namespace capellini {
namespace {

/// FNV-1a over the solution bytes: bit-identity, not tolerance.
std::uint64_t FnvChecksum(const std::vector<Val>& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Val v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::vector<Val> MakeB(Idx rows) {
  std::vector<Val> b(static_cast<std::size_t>(rows));
  for (Idx i = 0; i < rows; ++i) {
    b[static_cast<std::size_t>(i)] =
        1.0 + 0.25 * static_cast<double>(i % 17) -
        0.125 * static_cast<double>(i % 5);
  }
  return b;
}

/// Two shapes with different issue behaviour: a chained band (intra-warp
/// dependencies, spin-heavy) and an interleaved level structure (divergent,
/// stresses Two-Phase).
Csr TestMatrix(const std::string& name) {
  if (name == "banded_chain") {
    return MakeBanded({.rows = 300, .bandwidth = 24, .fill = 0.6,
                       .force_chain = true, .seed = 11});
  }
  if (name == "interleaved") {
    return MakeLevelStructured({.num_levels = 5, .components_per_level = 40,
                                .avg_nnz_per_row = 2.5, .size_jitter = 0.3,
                                .interleave = true, .seed = 12});
  }
  return MakeRandomLower({.rows = 600, .avg_strict_nnz_per_row = 3.0,
                          .window = 0, .empty_row_fraction = 0.1,
                          .seed = 13});
}

SolverOptions MakeOptions() {
  SolverOptions options;
  options.device = sim::TinyTestDevice();
  options.host_threads = 2;  // deterministic host paths regardless of machine
  return options;
}

/// Flips the test-only core selector for one Solve and always restores the
/// production (threaded) core, so a failing EXPECT cannot leak the oracle
/// into later tests.
class ScopedScalarCore {
 public:
  explicit ScopedScalarCore(bool scalar) {
    sim::Machine::set_scalar_core_for_test(scalar);
  }
  ~ScopedScalarCore() { sim::Machine::set_scalar_core_for_test(false); }
};

struct RunRecord {
  Status status = Status::Ok();
  std::uint64_t x_checksum = 0;
  sim::LaunchStats stats;
};

RunRecord RunLower(Algorithm algorithm, const Csr& lower,
                   const std::vector<Val>& b, bool scalar,
                   trace::TraceSink* sink = nullptr,
                   sim::FaultInjector* injector = nullptr) {
  SolverOptions options = MakeOptions();
  options.kernel_options.trace_sink = sink;
  options.kernel_options.fault_injector = injector;
  Solver solver(lower, options);
  ScopedScalarCore core(scalar);
  auto result = solver.Solve(algorithm, b);
  RunRecord record;
  if (!result.ok()) {
    record.status = result.status();
    return record;
  }
  record.x_checksum = FnvChecksum(result->x);
  record.stats = result->device_stats;
  return record;
}

RunRecord RunUpper(Algorithm algorithm, const Csr& upper,
                   const std::vector<Val>& b, bool scalar) {
  ScopedScalarCore core(scalar);
  auto result = SolveUpperSystem(upper, b, algorithm, MakeOptions());
  RunRecord record;
  if (!result.ok()) {
    record.status = result.status();
    return record;
  }
  record.x_checksum = FnvChecksum(result->x);
  record.stats = result->device_stats;
  return record;
}

/// EXPECT bit-identical counters — every field, not just cycles, so a
/// refactor that, say, batches instruction accounting differently is caught
/// even when the schedule happens to match.
void ExpectStatsEqual(const sim::LaunchStats& a, const sim::LaunchStats& b,
                      const std::string& context) {
  EXPECT_EQ(a.cycles, b.cycles) << context;
  EXPECT_EQ(a.instructions, b.instructions) << context;
  EXPECT_EQ(a.lane_instructions, b.lane_instructions) << context;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << context;
  EXPECT_EQ(a.dram_transactions, b.dram_transactions) << context;
  EXPECT_EQ(a.issue_slots, b.issue_slots) << context;
  EXPECT_EQ(a.issue_used, b.issue_used) << context;
  EXPECT_EQ(a.stall_slots, b.stall_slots) << context;
  EXPECT_EQ(a.launches, b.launches) << context;
}

void ExpectRunsEqual(const RunRecord& scalar, const RunRecord& threaded,
                     const std::string& context) {
  ASSERT_EQ(scalar.status.code(), threaded.status.code()) << context;
  EXPECT_EQ(scalar.x_checksum, threaded.x_checksum) << context;
  ExpectStatsEqual(scalar.stats, threaded.stats, context);
}

const std::vector<Algorithm>& AllSolvingAlgorithms() {
  // Everything except the deadlocking strawman, which gets its own test.
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kSerialCpu,   Algorithm::kLevelSetCpu,
      Algorithm::kSyncFreeCpu, Algorithm::kLevelSet,
      Algorithm::kSyncFree,    Algorithm::kSyncFreeCsr,
      Algorithm::kCusparse,    Algorithm::kCapelliniTwoPhase,
      Algorithm::kCapellini,   Algorithm::kHybrid,
  };
  return algorithms;
}

TEST(InterpEquivalence, EveryAlgorithmOnLowerFactors) {
  for (const std::string& name : {std::string("banded_chain"),
                                  std::string("interleaved"),
                                  std::string("random")}) {
    const Csr lower = TestMatrix(name);
    const std::vector<Val> b = MakeB(lower.rows());
    for (const Algorithm algorithm : AllSolvingAlgorithms()) {
      const RunRecord scalar = RunLower(algorithm, lower, b, true);
      const RunRecord threaded = RunLower(algorithm, lower, b, false);
      ExpectRunsEqual(scalar, threaded,
                      std::string(AlgorithmName(algorithm)) + " on " + name);
    }
  }
}

TEST(InterpEquivalence, EveryAlgorithmOnUpperFactors) {
  const Csr lower = TestMatrix("banded_chain");
  const Csr upper = ReverseSystem(lower);
  const std::vector<Val> b = MakeB(upper.rows());
  for (const Algorithm algorithm : AllSolvingAlgorithms()) {
    const RunRecord scalar = RunUpper(algorithm, upper, b, true);
    const RunRecord threaded = RunUpper(algorithm, upper, b, false);
    ExpectRunsEqual(scalar, threaded,
                    std::string(AlgorithmName(algorithm)) + " on upper");
  }
}

/// Collects the per-PC issue histogram the suite compares across cores.
class HistogramSink : public trace::TraceSink {
 public:
  void OnIssue(const trace::IssueInfo& info) override {
    key_ = key_ * 1099511628211ull ^
           (static_cast<std::uint64_t>(info.cycle) * 131 +
            static_cast<std::uint64_t>(info.pc));
    ++histogram_[info.pc];
    ++issues_;
  }
  const std::map<std::int32_t, std::uint64_t>& histogram() const {
    return histogram_;
  }
  std::uint64_t issues() const { return issues_; }
  /// Order-sensitive digest of the (cycle, pc) stream — the histogram alone
  /// would accept a reordered schedule.
  std::uint64_t stream_key() const { return key_; }

 private:
  std::map<std::int32_t, std::uint64_t> histogram_;
  std::uint64_t issues_ = 0;
  std::uint64_t key_ = 1469598103934665603ull;
};

TEST(InterpEquivalence, TraceSinkSeesIdenticalStream) {
  // An attached sink disables run fusion in the threaded core, so every
  // instruction gets its per-issue hook at what would have been the
  // fused-run boundary. The contract under test: (1) the threaded core's
  // hooked stream is order-identical to the scalar oracle's, and
  // (2) attaching a sink does not perturb timing relative to the sink-free
  // threaded run — fusion is schedule-neutral.
  const Csr lower = TestMatrix("banded_chain");
  const std::vector<Val> b = MakeB(lower.rows());
  for (const Algorithm algorithm :
       {Algorithm::kCapellini, Algorithm::kLevelSet,
        Algorithm::kCapelliniTwoPhase}) {
    HistogramSink scalar_sink;
    HistogramSink threaded_sink;
    const RunRecord scalar =
        RunLower(algorithm, lower, b, true, &scalar_sink);
    const RunRecord threaded =
        RunLower(algorithm, lower, b, false, &threaded_sink);
    const RunRecord bare = RunLower(algorithm, lower, b, false);
    const std::string context = AlgorithmName(algorithm);
    ExpectRunsEqual(scalar, threaded, context);
    ExpectRunsEqual(scalar, bare, context + " (sink-free)");
    EXPECT_EQ(scalar_sink.issues(), threaded_sink.issues()) << context;
    EXPECT_EQ(scalar_sink.histogram(), threaded_sink.histogram()) << context;
    EXPECT_EQ(scalar_sink.stream_key(), threaded_sink.stream_key()) << context;
    EXPECT_GT(scalar_sink.issues(), 0u) << context;
  }
}

TEST(InterpEquivalence, SeededFaultInjectorIdentical) {
  // The injector's PRNG streams advance once per opportunity (per issued
  // warp, per lane-store, per stall). The threaded core runs WITH an
  // injector attached — so batching must consume exactly the same
  // opportunity stream or the fault schedule diverges. Timing-only and
  // value-corrupting kinds together: bit-identical x proves the same stores
  // were flipped; bit-identical cycles prove the same warps were parked.
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.bitflip_store_rate = 0.01;
  plan.stuck_warp_rate = 0.002;
  plan.mem_delay_rate = 0.01;
  plan.stuck_cycles = 40;
  plan.mem_delay_cycles = 25;

  const Csr lower = TestMatrix("banded_chain");
  const std::vector<Val> b = MakeB(lower.rows());
  for (const Algorithm algorithm :
       {Algorithm::kCapellini, Algorithm::kSyncFreeCsr}) {
    sim::FaultInjector scalar_injector(plan);
    sim::FaultInjector threaded_injector(plan);
    const RunRecord scalar =
        RunLower(algorithm, lower, b, true, nullptr, &scalar_injector);
    const RunRecord threaded =
        RunLower(algorithm, lower, b, false, nullptr, &threaded_injector);
    const std::string context =
        std::string(AlgorithmName(algorithm)) + " with faults";
    ExpectRunsEqual(scalar, threaded, context);
    const sim::FaultCounts sc = scalar_injector.counts();
    const sim::FaultCounts tc = threaded_injector.counts();
    for (int kind = 0; kind < sim::kNumFaultKinds; ++kind) {
      EXPECT_EQ(sc.injected[static_cast<std::size_t>(kind)],
                tc.injected[static_cast<std::size_t>(kind)])
          << context << " kind " << kind;
    }
    EXPECT_GT(sc.total(), 0u) << context << ": plan rates too low to bite";
  }
}

TEST(InterpEquivalence, NaiveDeadlockIdenticalDump) {
  // The watchdog dump includes the trip cycle and a PC histogram built from
  // the ARCHITECTURAL pc (pc - skip for a warp mid-drain): identical message
  // text is a strong gate on both.
  const Csr chain = MakeBidiagonal(96);
  const std::vector<Val> b = MakeB(chain.rows());
  SolverOptions options = MakeOptions();
  options.device.no_progress_cycles = 30'000;

  Solver scalar_solver(chain, options);
  Solver threaded_solver(chain, options);
  auto scalar = [&] {
    ScopedScalarCore core(true);
    return scalar_solver.Solve(Algorithm::kCapelliniNaive, b);
  }();
  auto threaded = threaded_solver.Solve(Algorithm::kCapelliniNaive, b);
  ASSERT_FALSE(scalar.ok());
  ASSERT_FALSE(threaded.ok());
  EXPECT_EQ(scalar.status().code(), StatusCode::kDeadlock);
  EXPECT_EQ(scalar.status().code(), threaded.status().code());
  EXPECT_EQ(scalar.status().message(), threaded.status().message());
}

// --- No-progress fast-forward ---------------------------------------------
//
// A deadlocked launch jumps whole periods of its frozen spin. Every case runs
// the threaded core (fast-forward on) against the scalar oracle (always the
// cycle-by-cycle path) on a caller-owned machine and demands the same status
// text, counters, solution, publish cycles and fault counts; the machine's
// skipped-cycle count shows whether the jump engaged.

struct MachineRun {
  Status status = Status::Ok();
  std::uint64_t x_checksum = 0;
  sim::LaunchStats stats;
  std::vector<std::uint64_t> publish_cycles;
  sim::FaultCounts faults;
  std::uint64_t skipped = 0;
};

void ExpectMachineRunsEqual(const MachineRun& scalar,
                            const MachineRun& threaded,
                            const std::string& context) {
  ASSERT_EQ(scalar.status.code(), threaded.status.code()) << context;
  EXPECT_EQ(scalar.status.message(), threaded.status.message()) << context;
  EXPECT_EQ(scalar.x_checksum, threaded.x_checksum) << context;
  ExpectStatsEqual(scalar.stats, threaded.stats, context);
  EXPECT_EQ(scalar.publish_cycles, threaded.publish_cycles) << context;
  EXPECT_EQ(scalar.faults.injected, threaded.faults.injected) << context;
  EXPECT_EQ(scalar.skipped, 0u) << context << ": the oracle never jumps";
}

/// The deadlocking naive kernel over `lower`, uploaded the way the solve
/// drivers lay a CSR problem out.
MachineRun RunNaive(const Csr& lower, const std::vector<Val>& b,
                    const sim::DeviceConfig& device, bool scalar) {
  sim::DeviceMemory memory;
  sim::Machine machine(device, &memory);
  const auto rows = static_cast<std::uint64_t>(lower.rows());
  std::vector<std::int64_t> params(kernels::kNumParams, 0);
  params[kernels::kParamM] = lower.rows();
  const sim::DevicePtr row_ptr = memory.AllocArray<Idx>(rows + 1);
  const sim::DevicePtr col_idx = memory.AllocArray<Idx>(lower.col_idx().size());
  const sim::DevicePtr val = memory.AllocArray<Val>(lower.val().size());
  const sim::DevicePtr rhs = memory.AllocArray<Val>(rows);
  const sim::DevicePtr x = memory.AllocArray<Val>(rows);
  const sim::DevicePtr flags = memory.AllocArray<std::int32_t>(rows);
  memory.CopyToDevice(row_ptr, lower.row_ptr());
  memory.CopyToDevice(col_idx, lower.col_idx());
  memory.CopyToDevice(val, lower.val());
  memory.CopyToDevice(rhs, std::span<const Val>(b));
  memory.Fill(x, rows * sizeof(Val), 0);
  memory.Fill(flags, rows * sizeof(std::int32_t), 0);
  params[kernels::kParamRowPtr] = static_cast<std::int64_t>(row_ptr);
  params[kernels::kParamColIdx] = static_cast<std::int64_t>(col_idx);
  params[kernels::kParamVal] = static_cast<std::int64_t>(val);
  params[kernels::kParamB] = static_cast<std::int64_t>(rhs);
  params[kernels::kParamX] = static_cast<std::int64_t>(x);
  params[kernels::kParamGetValue] = static_cast<std::int64_t>(flags);

  static const sim::Kernel kernel = kernels::BuildCapelliniNaiveKernel();
  ScopedScalarCore core(scalar);
  auto stats = machine.Launch(
      kernel, {.num_threads = lower.rows(), .threads_per_block = 64}, params);
  MachineRun run;
  run.skipped = machine.fast_forwarded_cycles();
  if (!stats.ok()) {
    run.status = stats.status();
    return run;
  }
  run.stats = *stats;
  return run;
}

/// The Writing-First range kernel over rows [row_begin, rows), as a fleet
/// device runs it.
MachineRun RunRange(const Csr& lower, const std::vector<Val>& b,
                    Idx row_begin,
                    const std::vector<kernels::RangeArrival>& arrivals,
                    const sim::DeviceConfig& device, bool scalar,
                    const sim::FaultPlan& plan = {},
                    trace::TraceSink* sink = nullptr) {
  sim::DeviceMemory memory;
  sim::Machine machine(device, &memory);
  sim::FaultInjector injector(plan);
  kernels::SolveOptions options;
  options.trace_sink = sink;
  options.fault_injector = plan.Enabled() ? &injector : nullptr;
  ScopedScalarCore core(scalar);
  auto result = kernels::SolveRangeOnDevice(
      kernels::DeviceAlgorithm::kCapelliniWritingFirst, lower, b, row_begin,
      lower.rows(), arrivals, machine, memory, options);
  MachineRun run;
  run.faults = injector.counts();
  run.skipped = machine.fast_forwarded_cycles();
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  run.x_checksum = FnvChecksum(result->x);
  run.stats = result->stats;
  run.publish_cycles = result->publish_cycles;
  return run;
}

sim::DeviceConfig WatchdogDevice(std::uint64_t no_progress_cycles) {
  sim::DeviceConfig device = sim::TinyTestDevice();
  device.no_progress_cycles = no_progress_cycles;
  return device;
}

/// The fleet's failure mode: a chain whose every flag publish is dropped.
sim::FaultPlan DropEveryPublish() {
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.drop_publish_rate = 1.0;
  return plan;
}

Csr ChainMatrix() {
  return MakeBanded({.rows = 256, .bandwidth = 4, .fill = 0.8, .seed = 3});
}

TEST(FastForward, NaiveDeadlockDumpMatchesOracle) {
  const Csr chain = MakeBidiagonal(96);
  const std::vector<Val> b = MakeB(chain.rows());
  const sim::DeviceConfig device = WatchdogDevice(30'000);
  const MachineRun scalar = RunNaive(chain, b, device, true);
  const MachineRun threaded = RunNaive(chain, b, device, false);
  EXPECT_EQ(scalar.status.code(), StatusCode::kDeadlock);
  ExpectMachineRunsEqual(scalar, threaded, "naive");
  EXPECT_GT(threaded.skipped, 0u);
}

TEST(FastForward, DroppedPublishDeadlockMatchesOracle) {
  const Csr lower = ChainMatrix();
  const std::vector<Val> b = MakeB(lower.rows());
  const sim::DeviceConfig device = WatchdogDevice(30'000);
  const MachineRun scalar =
      RunRange(lower, b, 0, {}, device, true, DropEveryPublish());
  const MachineRun threaded =
      RunRange(lower, b, 0, {}, device, false, DropEveryPublish());
  EXPECT_EQ(scalar.status.code(), StatusCode::kDeadlock);
  EXPECT_GT(scalar.faults.total(), 0u);
  ExpectMachineRunsEqual(scalar, threaded, "writing-first, drops");
  EXPECT_GT(threaded.skipped, 0u);
}

TEST(FastForward, TripWindowAcrossTwoToTheTwentyMatchesOracle) {
  // The watchdog trips past 2^20: every binade on the way needs its own
  // period detection, and the busy-until doubles must round as in the
  // cycle-by-cycle run on both sides of each power of two.
  const Csr chain = MakeBidiagonal(96);
  const std::vector<Val> b = MakeB(chain.rows());
  const sim::DeviceConfig device = WatchdogDevice(1'100'000);
  const MachineRun scalar = RunNaive(chain, b, device, true);
  const MachineRun threaded = RunNaive(chain, b, device, false);
  EXPECT_EQ(scalar.status.code(), StatusCode::kDeadlock);
  ExpectMachineRunsEqual(scalar, threaded, "naive, 2^20");
  EXPECT_GT(threaded.skipped, 1'000'000u);

  // A busier spin: every warp of the chain polls, so the L2 queue carries a
  // fractional backlog across the loop tops.
  const Csr lower = ChainMatrix();
  const std::vector<Val> rhs = MakeB(lower.rows());
  const MachineRun scalar_wf =
      RunRange(lower, rhs, 0, {}, device, true, DropEveryPublish());
  const MachineRun threaded_wf =
      RunRange(lower, rhs, 0, {}, device, false, DropEveryPublish());
  EXPECT_EQ(scalar_wf.status.code(), StatusCode::kDeadlock);
  ExpectMachineRunsEqual(scalar_wf, threaded_wf, "writing-first, 2^20");
  EXPECT_GT(threaded_wf.skipped, 1'000'000u);
}

TEST(FastForward, PendingArrivalsStopTheJumpAndTheLaunchCompletes) {
  // Rows of the upper half spin on remote flags that arrive long after the
  // last local progress. The jump must land before the arrival, and the
  // counters of the completed launch must include the skipped periods.
  const Csr lower = ChainMatrix();
  const ReferenceProblem problem = MakeReferenceProblem(lower, 9);
  const Idx row_begin = lower.rows() / 2;
  std::vector<kernels::RangeArrival> arrivals;
  for (Idx row = row_begin - 4; row < row_begin; ++row) {
    arrivals.push_back({row, problem.x_true[static_cast<std::size_t>(row)],
                        250'000u + 1'000u * static_cast<std::uint64_t>(row)});
  }
  const sim::DeviceConfig device = WatchdogDevice(30'000);
  const MachineRun scalar =
      RunRange(lower, problem.b, row_begin, arrivals, device, true);
  const MachineRun threaded =
      RunRange(lower, problem.b, row_begin, arrivals, device, false);
  ASSERT_TRUE(scalar.status.ok()) << scalar.status.ToString();
  EXPECT_GT(scalar.stats.cycles, 250'000u);
  ExpectMachineRunsEqual(scalar, threaded, "pending arrivals");
  EXPECT_GT(threaded.skipped, 0u);
}

TEST(FastForward, StandsDownForSinksAndPerIssueFaults) {
  const Csr lower = ChainMatrix();
  const std::vector<Val> b = MakeB(lower.rows());
  const sim::DeviceConfig device = WatchdogDevice(30'000);
  {
    HistogramSink scalar_sink;
    HistogramSink threaded_sink;
    const MachineRun scalar = RunRange(lower, b, 0, {}, device, true,
                                       DropEveryPublish(), &scalar_sink);
    const MachineRun threaded = RunRange(lower, b, 0, {}, device, false,
                                         DropEveryPublish(), &threaded_sink);
    ExpectMachineRunsEqual(scalar, threaded, "sink attached");
    EXPECT_EQ(threaded.skipped, 0u);
    EXPECT_EQ(scalar_sink.stream_key(), threaded_sink.stream_key());
  }
  sim::FaultPlan stuck = DropEveryPublish();
  stuck.stuck_warp_rate = 0.001;
  stuck.stuck_cycles = 40;
  sim::FaultPlan delayed = DropEveryPublish();
  delayed.mem_delay_rate = 0.01;
  delayed.mem_delay_cycles = 25;
  for (const auto& [name, plan] :
       {std::pair{"stuck warps", stuck}, std::pair{"mem delay", delayed}}) {
    const MachineRun scalar = RunRange(lower, b, 0, {}, device, true, plan);
    const MachineRun threaded = RunRange(lower, b, 0, {}, device, false, plan);
    EXPECT_EQ(scalar.status.code(), StatusCode::kDeadlock) << name;
    ExpectMachineRunsEqual(scalar, threaded, name);
    EXPECT_EQ(threaded.skipped, 0u) << name;
  }
}

// --- Predecode plumbing units -------------------------------------------

TEST(StraightLineRuns, StopsAtMemoryAndControl) {
  using sim::Instr;
  using sim::Op;
  std::vector<Instr> code;
  code.push_back(Instr{Op::kMovI, 0, 0, 0, 1, 0, 0.0});   // 0: run of 2
  code.push_back(Instr{Op::kAddI, 1, 0, 0, 2, 0, 0.0});   // 1: run of 1
  code.push_back(Instr{Op::kLd8F, 0, 0, 0, 0, 0, 0.0});   // 2: memory, run 0
  code.push_back(Instr{Op::kFAdd, 0, 0, 0, 0, 0, 0.0});   // 3: run of 2
  code.push_back(Instr{Op::kFence, 0, 0, 0, 0, 0, 0.0});  // 4: batchable
  code.push_back(Instr{Op::kBrnz, 0, 0, 0, 0, 5, 0.0});   // 5: control, run 0
  code.push_back(Instr{Op::kExit, 0, 0, 0, 0, 0, 0.0});   // 6: run 0
  const std::vector<std::uint16_t> runs = sim::StraightLineRuns(code);
  ASSERT_EQ(runs.size(), code.size());
  EXPECT_EQ(runs[0], 2);
  EXPECT_EQ(runs[1], 1);
  EXPECT_EQ(runs[2], 0);
  EXPECT_EQ(runs[3], 2);
  EXPECT_EQ(runs[4], 1);
  EXPECT_EQ(runs[5], 0);
  EXPECT_EQ(runs[6], 0);
}

TEST(KernelFingerprint, TracksContentNotName) {
  sim::KernelBuilder builder("fingerprint_a", 1);
  const int r = builder.R("r");
  builder.LdParam(r, 0);
  builder.AddI(r, r, 5);
  builder.Exit();
  sim::Kernel a = builder.Build();

  sim::Kernel renamed = a;
  renamed.name = "fingerprint_b";
  EXPECT_EQ(a.Fingerprint(), renamed.Fingerprint())
      << "the decode cache keys on content; a rename must not invalidate";

  sim::Kernel edited = a;
  edited.code[1].imm = 6;
  EXPECT_NE(a.Fingerprint(), edited.Fingerprint())
      << "any instruction edit must invalidate the decoded trace";
}

TEST(FormatDecodedKernel, AnnotatesFusedRuns) {
  sim::KernelBuilder builder("decoded_listing", 1);
  const int r = builder.R("r");
  builder.LdParam(r, 0);
  builder.AddI(r, r, 1);
  builder.MulI(r, r, 3);
  builder.Exit();
  const sim::Kernel kernel = builder.Build();
  const std::string listing = sim::FormatDecodedKernel(kernel);
  EXPECT_NE(listing.find("fused run"), std::string::npos) << listing;
}

}  // namespace
}  // namespace capellini
