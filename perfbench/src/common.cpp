#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point from) { return MsBetween(from, Clock::now()); }

bool WantAnotherRound(const RunConfig& config, Clock::time_point start,
                      std::size_t ops_done, int rounds_done) {
  if (config.trace && rounds_done < 2) return true;
  return MsSince(start) < config.seconds * 1000.0 || ops_done < kMinOps;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> MultiplyLower(const Csr& lower, std::span<const double> x) {
  std::vector<double> y(static_cast<std::size_t>(lower.rows()), 0.0);
  const auto row_ptr = lower.row_ptr();
  const auto col = lower.col_idx();
  const auto val = lower.val();
  for (Idx i = 0; i < lower.rows(); ++i) {
    double sum = 0.0;
    for (Idx k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      sum += val[k] * x[static_cast<std::size_t>(col[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
  return y;
}

std::vector<double> ForwardSubstitute(const Csr& lower,
                                      std::span<const double> b) {
  std::vector<double> x(static_cast<std::size_t>(lower.rows()), 0.0);
  const auto row_ptr = lower.row_ptr();
  const auto col = lower.col_idx();
  const auto val = lower.val();
  for (Idx i = 0; i < lower.rows(); ++i) {
    const Idx diag = row_ptr[i + 1] - 1;
    double sum = b[static_cast<std::size_t>(i)];
    for (Idx k = row_ptr[i]; k < diag; ++k) {
      sum -= val[k] * x[static_cast<std::size_t>(col[k])];
    }
    x[static_cast<std::size_t>(i)] = sum / val[diag];
  }
  return x;
}

double RelativeError(std::span<const double> x, std::span<const double> ref) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (x.size() != ref.size()) return kInf;
  double max_diff = 0.0;
  double max_ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) return kInf;
    max_diff = std::max(max_diff, std::abs(x[i] - ref[i]));
    max_ref = std::max(max_ref, std::abs(ref[i]));
  }
  return max_ref > 0.0 ? max_diff / max_ref : max_diff;
}

bool CheckerRejectsPerturbed(std::span<const double> ref) {
  if (ref.empty()) return false;
  std::vector<double> bad(ref.begin(), ref.end());
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  bad[bad.size() / 2] += 1e-6 * std::max(scale, 1.0);
  return !Accept(bad, ref) && Accept(ref, ref);
}

std::vector<double> RandomVector(std::size_t n, std::uint64_t seed, double lo,
                                 double hi) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> v(n);
  for (double& e : v) e = dist(rng);
  return v;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- Spans ------------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRecord& span : spans_) {
    // Union of the child intervals, clipped to the span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const auto from = std::max(child->start, span.start);
        const auto to = std::min(child->end, span.end);
        if (from < to) covered.emplace_back(from, to);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = span.start;
    for (const auto& [from, to] : covered) {
      const auto begin = std::max(from, reach);
      if (to > begin) {
        covered_ms += MsBetween(begin, to);
        reach = to;
      }
    }
    SelfTime& self = out[span.name];
    self.total_ms += MsBetween(span.start, span.end) - covered_ms;
    ++self.count;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name,
                  MsBetween(origin_, s.start) * 1000.0,
                  MsBetween(origin_, s.end) * 1000.0,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent,
           std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->NextId();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  record_.start = Clock::now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end = Clock::now();
  tracer_->Record(record_);
}

// --- Report -----------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"solves_per_s", "1/s"},
      {"lat_p50_ms", "ms"},
      {"lat_p95_ms", "ms"},
      {"host_ns_per_sim_cycle", "ns"},
      {"sim_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m;
    static const char* const kAlgs[] = {"syncfree", "syncfree_csr", "cusparse",
                                        "levelset", "twophase",     "capellini",
                                        "hybrid"};
    static std::vector<std::string> names;  // owns the composed names
    names.reserve(3 * std::size(kAlgs));
    for (const char* prefix : {"sim.host_ns_per_cycle.",
                               "sim.host_ns_per_warp_instr.",
                               "sim.spin_instr_share."}) {
      for (const char* alg : kAlgs) names.push_back(std::string(prefix) + alg);
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      m.push_back({names[i].c_str(), i < 2 * std::size(kAlgs) ? "ns" : "ratio"});
    }
    const MetricDef rest[] = {
        {"sim.cycles", "cycles"},
        {"sim.warp_instructions", "count"},
        {"sim.stall_slots", "count"},
        {"sim.dram_bytes", "bytes"},
        {"sim_gflops_capellini", "GFLOPS"},
        {"sim_speedup_vs_syncfree", "x"},
        {"kernels.preprocessing_ms", "ms"},
        {"core.analyze_ms", "ms"},
        {"serve.submit_us_p50", "us"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p95", "ms"},
        {"serve.service_ms_p50", "ms"},
        {"serve.batch_occupancy", "req/launch"},
        {"serve.attempts_per_request", "ratio"},
        {"serve.cost_estimate_ratio", "ratio"},
        {"registry.register_ms_p50", "ms"},
        {"registry.evictions", "count"},
        {"registry.analysis_cache_hits", "count"},
        {"registry.resident_mb", "MB"},
        {"update_p50_ms", "ms"},
        {"update.analysis_ms_p50", "ms"},
        {"update.rows_releveled", "count"},
        {"update.delta_bytes", "bytes"},
        {"shard.requests_max_over_mean", "ratio"},
        {"fleet.makespan_cycles", "cycles"},
        {"fleet.comm_messages", "count"},
        {"fleet.comm_bytes", "bytes"},
        {"fleet.boundary_stall_cycles", "cycles"},
        {"fleet.device_host_ms", "ms"},
        {"fleet.failed_partitions", "count"},
        {"fleet.rows_reexecuted", "count"},
        {"fleet.useful_row_ratio", "ratio"},
        {"fleet.device_rung_recoveries", "count"},
        {"fleet.host_rung_recoveries", "count"},
        {"self_ms.gen", "ms"},
        {"self_ms.core.analyze", "ms"},
        {"self_ms.kernels.solve", "ms"},
        {"self_ms.registry.register", "ms"},
        {"self_ms.serve.submit", "ms"},
        {"self_ms.serve.wait", "ms"},
        {"self_ms.update.apply", "ms"},
        {"self_ms.fleet.solve", "ms"},
        {"self_ms.bench.check", "ms"},
        {"bench.forward_subst_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    m.insert(m.end(), std::begin(rest), std::end(rest));
    return m;
  }();
  return kMetrics;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::nan("") : it->second;
}

void Report::Op(const std::string& kind, bool ok) {
  Ops& ops = ops_[kind];
  ++ops.attempted;
  if (!ok) {
    ++ops.failed;
    correct_ = false;
  }
}

void Report::KnownFaultOp(const std::string& kind, bool ok) {
  Ops& ops = ops_[kind];
  ++ops.attempted;
  if (!ok) ++ops.failed;
}

void Report::SetupOp(const std::string& kind, bool ok) {
  Ops& ops = setup_ops_[kind];
  ++ops.attempted;
  if (!ok) {
    ++ops.failed;
    correct_ = false;
  }
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const auto& [kind, ops] : ops_) n += ops.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const auto& [kind, ops] : ops_) n += ops.failed;
  return n;
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

void Report::Print(bool trace) const {
  for (const auto& [kind, ops] : setup_ops_) {
    std::printf("set-up %-18s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
  }
  for (const auto& [kind, ops] : ops_) {
    std::printf("ops %-21s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted());
  json += ", \"failed\": " + std::to_string(failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    // Per-layer metrics whose layer does not run on this workload read 0.
    const auto it = values_.find(def.name);
    const double value = it == values_.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name,
                  std::isfinite(value) ? value : 0.0, def.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double MedianSetupSeconds(std::vector<double> setup_ms) {
  return Quantile(std::move(setup_ms), 0.5) / 1000.0;
}

void ReportTraceOverhead(const std::vector<double>& traced_ms,
                         const std::vector<double>& untraced_ms,
                         Report& report) {
  if (traced_ms.empty() || untraced_ms.empty()) return;
  report.Set("trace.overhead_pct",
             100.0 * (Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5) - 1.0));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
