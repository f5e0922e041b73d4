// Shared pieces of the benchmark: the run configuration, the independent
// output check (forward substitution written here, not taken from the
// library), in-memory request spans, and the result report.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "matrix/csr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using capellini::Csr;
using capellini::Idx;

double MsBetween(Clock::time_point from, Clock::time_point to);
double MsSince(Clock::time_point from);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (spans file, analysis caches).
  std::string run_dir;
  /// Worker threads a workload may start (never above the machine's cores).
  int threads = 4;
};

/// Every run completes at least this many timed operations, so at least ten
/// latency samples lie beyond the reported p95.
inline constexpr std::size_t kMinOps = 200;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 7;

/// True while the run should start another round: time is not up, too few
/// operations completed, or (traced runs) fewer than two rounds ran — a
/// traced run needs one traced and one untraced round to compare.
bool WantAnotherRound(const RunConfig& config, Clock::time_point start,
                      std::size_t ops_done, int rounds_done);
/// Traced runs alternate: even rounds traced, odd rounds untraced.
inline bool RoundTraced(const RunConfig& config, int round) {
  return config.trace && round % 2 == 0;
}

// --- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// --- Independent output check ----------------------------------------------

/// Relative tolerance of the solution check: max |x - ref| / max |ref|.
inline constexpr double kTolerance = 1e-9;

/// y = L x, row by row.
std::vector<double> MultiplyLower(const Csr& lower, std::span<const double> x);
/// Solves L x = b by row-oriented forward substitution (the diagonal is the
/// last entry of each row).
std::vector<double> ForwardSubstitute(const Csr& lower,
                                      std::span<const double> b);
/// max |x - ref| / max |ref|; +inf on a size mismatch or a non-finite entry.
double RelativeError(std::span<const double> x, std::span<const double> ref);
inline bool Accept(std::span<const double> x, std::span<const double> ref) {
  return RelativeError(x, ref) <= kTolerance;
}
/// The check's own test: a copy of `ref` with one entry moved by 1e-6 of the
/// vector's scale must be rejected. Returns true when it is.
bool CheckerRejectsPerturbed(std::span<const double> ref);

/// Seeded vector of uniform values in [lo, hi).
std::vector<double> RandomVector(std::size_t n, std::uint64_t seed, double lo,
                                 double hi);

/// Mixes a run seed with a stream label into an independent 64-bit seed.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

// --- Spans ------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // operation the span belongs to
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store, written out when the run ends. Thread-safe.
class Tracer {
 public:
  Tracer();
  std::uint64_t NextId();
  void Record(const SpanRecord& span);
  /// Per span name: summed self time (duration minus the part covered by
  /// child spans) in ms, and the number of spans.
  struct SelfTime {
    double total_ms = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;
  /// Writes every span as JSON (times in microseconds from tracer creation).
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer. A null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

// --- Report -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics every untraced run prints (the end-to-end set of BENCHMARK.json).
const std::vector<MetricDef>& EndToEndMetrics();
/// Metrics every traced run prints (the per-layer set of BENCHMARK.json).
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric value; the unit comes from the metric tables above.
  void Set(const std::string& name, double value);
  /// The recorded value, or NaN when the metric was not measured.
  double Get(const std::string& name) const;

  /// One attempted operation of `kind`; failed ones make the run incorrect.
  void Op(const std::string& kind, bool ok);
  /// An operation that probes a known fault of the program: counted in
  /// attempted and failed like any other, but a failure leaves the run
  /// correct, since the benchmark expects it.
  void KnownFaultOp(const std::string& kind, bool ok);
  /// An operation of set-up. Printed, and a failure makes the run
  /// incorrect, but not counted in attempted: those count whole rounds.
  void SetupOp(const std::string& kind, bool ok);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

  /// Marks the run incorrect with a reason (printed to stderr).
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  /// Per-kind operation lines, then the final JSON line, on stdout.
  void Print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  struct Ops {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Ops> ops_;
  std::map<std::string, Ops> setup_ops_;
  bool correct_ = true;
};

/// Median of a run's set-up repetitions, in seconds.
double MedianSetupSeconds(std::vector<double> setup_ms);

/// Sets trace.overhead_pct: median traced round over median untraced round,
/// minus 1. No-op unless the run had both kinds of round.
void ReportTraceOverhead(const std::vector<double>& traced_ms,
                         const std::vector<double>& untraced_ms,
                         Report& report);

/// Peak resident set size of this process, MB.
double PeakRssMb();

}  // namespace perfbench
