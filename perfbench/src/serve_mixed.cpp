// serve_mixed: closed-loop traffic from one generator thread through
// fleet::ShardedSolveService (2 devices, 1 worker each), with zipf
// popularity over small-to-mid matrices (1.8k-8k rows), reliable verification, per-handle
// breakers and device health tracking on (no faults, so they never trip),
// streaming updates interleaved with the solves, and a registry byte budget
// below the working set so cold handles are evicted and re-registered.
//
// The traffic is the repository's own model: serve::GenerateZipfTrace for
// the solves and serve::InterleaveUpdates for the updates, which follow the
// traffic, with update::MakeRandomBatch drawing each update's edits.
//
// Every served solution is checked against forward substitution on the
// benchmark's own shadow copy of the matrix, pinned at Submit: an in-flight
// solve finishes on the epoch it was admitted on.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "core/solver.h"
#include "fleet/shard.h"
#include "gen/level_structured.h"
#include "serve/replay.h"
#include "update/delta.h"
#include "workloads.h"

namespace perfbench {
namespace {

using capellini::Algorithm;
using capellini::StatusCode;
using capellini::fleet::ShardedHandle;
using capellini::fleet::ShardedSolveService;
using capellini::serve::RequestTrace;
using capellini::serve::TraceEventKind;
using capellini::update::DeltaBatch;

constexpr int kDevices = 2;
constexpr std::size_t kMatrices = 10;
/// Popularity exponent of bench_serve, bench_fleet and examples/serve_replay.
constexpr double kZipfExponent = 1.1;
constexpr int kSolvesPerRound = 60;
/// Update mix of sptrsv_tool --update_trace: after a solve, an update of the
/// same matrix with probability 0.25; 6 edits each; half of them structural.
constexpr double kUpdateFraction = 0.25;
constexpr int kDeltasPerUpdate = 6;
constexpr double kStructuralFraction = 0.5;
/// Every round holds exactly this many updates (the expected count), so
/// every round attempts the same operations.
constexpr int kUpdatesPerRound = 15;
/// Each device's registry budget as a share of the whole working set: the
/// two devices together hold 70% of the bytes, about the hot ranks that take
/// 80% of zipf-1.1 traffic over 10 matrices, so the tail churns.
constexpr double kBudgetShare = 0.35;

/// Level-structured matrices across the granularity range, each well clear
/// of the recommender's crossover so every seed picks the same algorithm:
/// wide shallow levels get Capellini, narrow deeper ones SyncFree. Level
/// sizes are not jittered, so the seed changes which rows depend on which,
/// not how much work a matrix is.
Csr MakeServeMatrix(std::size_t index, std::uint64_t seed) {
  struct Shape {
    Idx levels;
    Idx beta;
    double alpha;
  };
  constexpr Shape kShapes[kMatrices] = {
      {8, 1000, 3.0}, {6, 400, 5.0}, {4, 1500, 2.2}, {10, 250, 4.0},
      {6, 600, 3.0},  {6, 1000, 3.0}, {6, 300, 5.0}, {4, 1000, 2.2},
      {5, 1200, 2.5}, {8, 300, 4.0},
  };
  capellini::LevelStructuredOptions o;
  o.num_levels = kShapes[index].levels;
  o.components_per_level = kShapes[index].beta;
  o.avg_nnz_per_row = kShapes[index].alpha;
  o.seed = seed;
  return capellini::MakeLevelStructured(o);
}

/// One round's events: a zipf trace with updates interleaved, drawn again
/// from the next seed until it holds exactly kUpdatesPerRound updates.
/// Popularity rotates: the matrix with the r-th most requests is relabelled
/// to matrix (round + r) % kMatrices, so over kMatrices rounds every matrix
/// takes every rank once. A round's cost rests on which matrices are hot (a
/// hot SyncFree matrix cannot coalesce); without the rotation a run's
/// medians would rest on which matrices the seed made hot.
RequestTrace RoundTrace(std::uint64_t seed, int round) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t s =
        MixSeed(seed, 3000 + (static_cast<std::uint64_t>(round) << 20) + k);
    RequestTrace trace = capellini::serve::GenerateZipfTrace(
        kSolvesPerRound, static_cast<int>(kMatrices), kZipfExponent, s);
    capellini::serve::InterleaveUpdates(trace, kUpdateFraction,
                                        kDeltasPerUpdate, kStructuralFraction, s);
    const auto updates = std::count_if(
        trace.requests.begin(), trace.requests.end(),
        [](const auto& r) { return r.kind == TraceEventKind::kUpdate; });
    if (updates != kUpdatesPerRound) continue;
    std::vector<int> solves(kMatrices, 0);
    for (const auto& r : trace.requests) {
      if (r.kind == TraceEventKind::kSolve) {
        ++solves[static_cast<std::size_t>(r.matrix)];
      }
    }
    std::vector<int> by_rank(kMatrices);
    std::iota(by_rank.begin(), by_rank.end(), 0);
    std::stable_sort(by_rank.begin(), by_rank.end(), [&](int a, int b) {
      return solves[static_cast<std::size_t>(a)] > solves[static_cast<std::size_t>(b)];
    });
    std::vector<int> label(kMatrices);
    for (std::size_t rank = 0; rank < kMatrices; ++rank) {
      label[static_cast<std::size_t>(by_rank[rank])] =
          static_cast<int>((static_cast<std::size_t>(round) + rank) % kMatrices);
    }
    for (auto& r : trace.requests) {
      r.matrix = label[static_cast<std::size_t>(r.matrix)];
    }
    return trace;
  }
}

/// The shadow copy's own update: rebuilds the CSR with the batch's edits
/// applied in order.
Csr ApplyEdits(const Csr& m, const DeltaBatch& batch) {
  using capellini::update::Delta;
  using capellini::update::DeltaKind;
  std::map<Idx, std::vector<const Delta*>> by_row;
  for (const Delta& d : batch.deltas()) by_row[d.row].push_back(&d);
  std::vector<Idx> row_ptr{0};
  std::vector<Idx> col_idx;
  std::vector<double> val;
  for (Idx r = 0; r < m.rows(); ++r) {
    std::map<Idx, double> row;
    const auto cols = m.RowCols(r);
    const auto vals = m.RowVals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) row[cols[k]] = vals[k];
    if (auto it = by_row.find(r); it != by_row.end()) {
      for (const Delta* d : it->second) {
        if (d->kind == DeltaKind::kErase) {
          row.erase(d->col);
        } else {
          row[d->col] = d->value;
        }
      }
    }
    for (const auto& [c, v] : row) {
      col_idx.push_back(c);
      val.push_back(v);
    }
    row_ptr.push_back(static_cast<Idx>(col_idx.size()));
  }
  return Csr(m.rows(), m.cols(), std::move(row_ptr), std::move(col_idx),
             std::move(val));
}

/// A known fault of the service (README.md, Output checks), probed once per
/// round, after the traffic ends, on inputs that do not depend on the seed.
/// With the worker held, a request is queued, the matrix is updated, and a
/// second request is queued. Both share (handle, algorithm), so the service
/// coalesces them into one launch on the first request's pre-update matrix.
/// Returns whether the second request was served on the updated matrix; a
/// wrong first request fails the run.
bool ProbeSolveAfterUpdate(Report& report) {
  capellini::LevelStructuredOptions o;
  o.num_levels = 4;
  o.components_per_level = 250;
  o.avg_nnz_per_row = 2.2;
  o.seed = 99;
  const Csr before = capellini::MakeLevelStructured(o);
  const DeltaBatch batch = capellini::update::MakeRandomBatch(before, 6, false, 5);
  const Csr after = ApplyEdits(before, batch);
  const std::vector<double> b = RandomVector(
      static_cast<std::size_t>(before.rows()), 77, -1.0, 1.0);

  capellini::serve::MatrixRegistry registry;
  capellini::serve::ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  options.reliable = true;
  capellini::serve::SolveService service(&registry, options);
  capellini::serve::RequestOptions request;
  request.algorithm = Algorithm::kCapellini;
  auto handle = registry.Register(Csr(before), "probe");
  if (!handle.ok()) {
    report.Fail("probe registration: " + handle.status().ToString());
    return false;
  }
  auto first = service.Submit(*handle, b, request);
  auto updated = service.ApplyDelta(*handle, batch);
  auto second = service.Submit(*handle, b, request);
  service.Start();
  if (!first.ok() || !updated.ok() || !second.ok()) {
    report.Fail("probe submit or update refused");
    return false;
  }
  const auto pre = first->get();
  const auto post = second->get();
  if (!pre.status.ok() || !Accept(pre.solve.x, ForwardSubstitute(before, b))) {
    report.Fail("probe: the pre-update request was served wrong");
  }
  return post.status.ok() && Accept(post.solve.x, ForwardSubstitute(after, b));
}

/// sim_ms: the mean simulated time of one round of the first rotation,
/// each request priced as a single-RHS solve of the sparsity pattern it was
/// served on, with the algorithm it was served with (`algorithms[round][k]`
/// for the round's k-th solve), so coalescing does not move it. Runs after
/// the traffic, so the pricing solves stay out of its time and memory: it
/// regenerates the matrices and replays the rotation's updates on its own
/// copies. A solve pins the epoch that the updates before it in trace order
/// made, so the replay meets the same patterns. Simulated time depends on
/// the pattern, not on the values, so a pattern is priced once.
double PriceRotation(std::uint64_t seed, int rotation,
                     const std::vector<std::vector<Algorithm>>& algorithms,
                     Report& report) {
  std::vector<std::shared_ptr<const Csr>> copies;
  std::vector<std::uint64_t> pattern;
  for (std::size_t m = 0; m < kMatrices; ++m) {
    copies.push_back(
        std::make_shared<const Csr>(MakeServeMatrix(m, MixSeed(seed, 10 + m))));
    pattern.push_back(m);
  }
  std::uint64_t next_pattern = kMatrices;
  std::map<std::pair<std::uint64_t, Algorithm>, double> prices;
  double total_ms = 0.0;
  for (int round = 0; round < rotation; ++round) {
    std::size_t k = 0;
    for (const auto& event : RoundTrace(seed, round).requests) {
      const auto m = static_cast<std::size_t>(event.matrix);
      if (event.kind == TraceEventKind::kUpdate) {
        const DeltaBatch batch = capellini::update::MakeRandomBatch(
            *copies[m], event.update_deltas, event.structural, event.seed);
        copies[m] = std::make_shared<const Csr>(ApplyEdits(*copies[m], batch));
        if (!batch.value_only()) pattern[m] = next_pattern++;
        continue;
      }
      const Algorithm algorithm =
          algorithms[static_cast<std::size_t>(round)][k++];
      auto [it, fresh] = prices.try_emplace({pattern[m], algorithm}, 0.0);
      if (fresh) {
        capellini::Solver solver{Csr(*copies[m])};
        const std::vector<double> b(static_cast<std::size_t>(copies[m]->rows()),
                                    1.0);
        auto solved = solver.Solve(algorithm, b);
        if (!solved.ok()) {
          report.Fail("pricing solve: " + solved.status().ToString());
        } else {
          it->second = solved->solve_ms;
        }
      }
      total_ms += it->second;
    }
  }
  return total_ms / rotation;
}

/// The service and everything registered on it, with the benchmark's shadow
/// copy of each matrix's current epoch.
struct Fleet {
  std::unique_ptr<ShardedSolveService> service;
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const Csr>> shadows;
  std::vector<ShardedHandle> handles;
};

struct Samples {
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> service_ms;
  std::vector<double> cost_ratio;
  std::vector<double> register_ms;
  std::vector<double> analyze_ms;
  std::vector<double> update_ms;
  std::vector<double> update_analysis_ms;
  std::vector<double> rows_releveled;
  std::vector<double> delta_bytes;
  std::vector<double> forward_ms;
  double attempts = 0.0;
  std::size_t requests = 0;
};

}  // namespace

void RunServeMixed(const RunConfig& config, Tracer* tracer, Report& report) {
  Samples samples;

  // Registers the matrix's current shadow epoch; false when refused.
  auto register_matrix = [&](Fleet& fleet, std::size_t m, Tracer* tr,
                             std::uint64_t parent) {
    const auto t0 = Clock::now();
    auto handle = [&] {
      Span span(tr, "registry.register", parent);
      return fleet.service->Register(Csr(*fleet.shadows[m]), fleet.names[m]);
    }();
    samples.register_ms.push_back(MsSince(t0));
    if (!handle.ok()) {
      report.Fail("register " + fleet.names[m] + ": " +
                  handle.status().ToString());
      return false;
    }
    fleet.handles[m] = *handle;
    auto entry = fleet.service->registry(handle->device).TryPeek(handle->handle);
    if (entry != nullptr) samples.analyze_ms.push_back(entry->analysis_ms);
    return true;
  };

  // Set-up: generate, start the service, register every matrix (cold).
  std::vector<double> setup_ms;
  Fleet fleet;
  capellini::fleet::ShardOptions options;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet = Fleet{};  // joins the previous service's workers
    const auto t0 = Clock::now();
    std::size_t working_set = 0;
    {
      Span span(tracer, "gen");
      for (std::size_t m = 0; m < kMatrices; ++m) {
        auto csr = std::make_shared<const Csr>(
            MakeServeMatrix(m, MixSeed(config.seed, 10 + m)));
        working_set += static_cast<std::size_t>(csr->rows() + 1) * 4 +
                       static_cast<std::size_t>(csr->nnz()) * 12 +
                       static_cast<std::size_t>(csr->rows()) * 8;
        fleet.shadows.push_back(std::move(csr));
        fleet.names.push_back("m" + std::to_string(m));
      }
    }
    options = capellini::fleet::ShardOptions{};
    options.num_devices = kDevices;
    options.device_byte_budget =
        static_cast<std::size_t>(kBudgetShare * static_cast<double>(working_set));
    options.service.workers = 1;
    options.service.reliable = true;
    options.service.breaker_threshold = 3;
    options.health.threshold = 3;
    fleet.service = std::make_unique<ShardedSolveService>(options);
    fleet.handles.resize(kMatrices);
    for (std::size_t m = 0; m < kMatrices; ++m) {
      report.SetupOp("registration", register_matrix(fleet, m, tracer, 0));
    }
    setup_ms.push_back(MsSince(t0));
  }
  for (std::size_t m = 0; m < kMatrices; ++m) {
    const auto& h = fleet.handles[m];
    auto entry = fleet.service->registry(h.device).TryPeek(h.handle);
    std::fprintf(stderr, "serve_mixed: %s rows %d nnz %lld %s\n",
                 fleet.names[m].c_str(), fleet.shadows[m]->rows(),
                 static_cast<long long>(fleet.shadows[m]->nnz()),
                 entry == nullptr
                     ? "(evicted)"
                     : capellini::AlgorithmName(entry->solver.Recommend()));
  }
  {
    const auto& m = *fleet.shadows.front();
    const auto b = RandomVector(static_cast<std::size_t>(m.rows()),
                                MixSeed(config.seed, 2), -1.0, 1.0);
    if (!CheckerRejectsPerturbed(ForwardSubstitute(m, b))) {
      report.Fail("the output check accepted a perturbed solution");
    }
  }
  // The closed loop keeps as many requests outstanding as the service can
  // have in its launches at once: every worker serving a full batch.
  const std::size_t window = static_cast<std::size_t>(
      kDevices * options.service.workers * options.service.max_batch);
  struct Pending {
    std::future<capellini::serve::ServeResult> future;
    std::shared_ptr<const Csr> shadow;  // the epoch pinned at Submit
    int round = 0;
    std::size_t slot = 0;  // the request's place among the round's solves
    std::vector<double> b;
    std::size_t matrix = 0;
    int device = 0;
    std::uint64_t request = 0;
    std::uint64_t root = 0;
    Tracer* tr = nullptr;
    Clock::time_point submitted;
    Clock::time_point submit_returned;
  };
  std::deque<Pending> pending;
  struct Launch {
    double host_ms = 0.0;
    std::uint64_t cycles = 0;
  };
  std::map<std::pair<int, std::uint64_t>, Launch> launches;  // per round
  // The algorithm each solve of the first rotation was served with.
  std::vector<std::vector<Algorithm>> algorithms;
  bool timed = true;  // current round's samples feed host-time figures

  // Collects every finished request; with `block`, waits for at least one.
  auto reap = [&](bool block) {
    while (true) {
      std::vector<std::pair<Pending, Clock::time_point>> done;
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done.emplace_back(std::move(*it), Clock::now());
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
      for (auto& [p, ready] : done) {
        capellini::serve::ServeResult result = p.future.get();
        if (p.tr != nullptr) {
          p.tr->Record({p.tr->NextId(), p.root, p.request, "serve.wait",
                        p.submit_returned, ready});
        }
        bool ok = result.status.ok() && result.verified;
        {
          Span check(p.tr, "bench.check", p.root, p.request);
          const auto t0 = Clock::now();
          const std::vector<double> ref = ForwardSubstitute(*p.shadow, p.b);
          samples.forward_ms.push_back(MsSince(t0));
          ok = ok && Accept(result.solve.x, ref);
        }
        if (p.tr != nullptr) {
          p.tr->Record({p.root, 0, p.request, "bench.request", p.submitted,
                        Clock::now()});
        }
        report.Op("solve", ok);
        if (!ok) {
          report.Fail("served solve " + std::to_string(p.request) +
                      " wrong or failed: " + result.status.ToString());
          continue;
        }
        const double latency = MsBetween(p.submitted, ready);
        const double service = std::max(latency - result.queue_wait_ms, 1e-6);
        Launch& launch = launches[{p.device, result.dequeue_seq}];
        launch.host_ms = std::max(launch.host_ms, service);
        launch.cycles = result.solve.device_stats.cycles;
        if (static_cast<std::size_t>(p.round) < algorithms.size()) {
          algorithms[static_cast<std::size_t>(p.round)][p.slot] = result.algorithm;
        }
        ++samples.requests;
        samples.attempts += result.attempts;
        if (timed) {
          samples.latency_ms.push_back(latency);
          samples.queue_wait_ms.push_back(result.queue_wait_ms);
          samples.service_ms.push_back(service);
          samples.cost_ratio.push_back(result.est_cost_ms / service);
        }
      }
      if (!done.empty() || !block || pending.empty()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  auto submit = [&](std::size_t m, std::uint64_t rhs_seed, int round,
                    std::size_t slot, std::uint64_t request, Tracer* tr) {
    Pending p;
    p.matrix = m;
    p.round = round;
    p.slot = slot;
    p.request = request;
    p.tr = tr;
    p.root = tr != nullptr ? tr->NextId() : 0;
    p.b = RandomVector(static_cast<std::size_t>(fleet.shadows[m]->rows()),
                       rhs_seed, -1.0, 1.0);
    p.submitted = Clock::now();
    for (int attempt = 0; attempt < 2; ++attempt) {
      p.shadow = fleet.shadows[m];
      p.device = fleet.handles[m].device;
      const auto t0 = Clock::now();
      auto future = [&] {
        Span span(tr, "serve.submit", p.root, request);
        return fleet.service->Submit(fleet.handles[m], p.b);
      }();
      if (timed) samples.submit_us.push_back(MsSince(t0) * 1000.0);
      if (future.ok()) {
        p.future = std::move(*future);
        p.submit_returned = Clock::now();
        pending.push_back(std::move(p));
        return;
      }
      // Evicted: register the current shadow epoch again, then resubmit.
      // The registration is part of this solve operation.
      if (future.status().code() != StatusCode::kNotFound || attempt == 1 ||
          !register_matrix(fleet, m, tr, p.root)) {
        report.Op("solve", false);
        report.Fail("submit " + fleet.names[m] + ": " +
                    future.status().ToString());
        return;
      }
    }
  };

  auto apply_update = [&](std::size_t m, const capellini::serve::TraceRequest& event,
                          std::uint64_t request, Tracer* tr) {
    // The repository's batch for this event, read back for the shadow copy.
    const DeltaBatch batch = capellini::update::MakeRandomBatch(
        *fleet.shadows[m], event.update_deltas, event.structural, event.seed);
    Span root(tr, "bench.update", 0, request);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto t0 = Clock::now();
      auto updated = [&] {
        Span span(tr, "update.apply", root.id(), request);
        return fleet.service->ApplyDelta(fleet.handles[m], batch);
      }();
      const double ms = MsSince(t0);
      if (updated.ok()) {
        report.Op("update", true);
        fleet.shadows[m] =
            std::make_shared<const Csr>(ApplyEdits(*fleet.shadows[m], batch));
        if (timed) samples.update_ms.push_back(ms);
        samples.update_analysis_ms.push_back(updated->analysis_ms);
        if (!batch.value_only()) {
          samples.rows_releveled.push_back(updated->rows_releveled);
        }
        samples.delta_bytes.push_back(static_cast<double>(updated->delta_bytes));
        return;
      }
      // Evicted: register again (part of this update operation), then retry.
      if (updated.status().code() != StatusCode::kNotFound || attempt == 1 ||
          !register_matrix(fleet, m, tr, root.id())) {
        report.Op("update", false);
        report.Fail("update " + fleet.names[m] + ": " +
                    updated.status().ToString());
        return;
      }
    }
  };

  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  // Untraced rounds' solves and seconds, and per round the host ns per
  // simulated cycle; the median damps a round slowed by other load.
  double timed_solves = 0.0;
  double timed_seconds = 0.0;
  std::vector<double> round_ns_per_cycle;
  std::size_t total_launches = 0;
  int rounds = 0;
  std::uint64_t next_request = 1;
  // A run makes whole rotations only, so every run serves the same mix of
  // hot matrices; traced runs alternate traced and untraced rotations.
  const int rotation = static_cast<int>(kMatrices);
  const int min_rounds = (config.trace ? 2 : 1) * rotation;
  const auto start = Clock::now();
  while (rounds < min_rounds || rounds % rotation != 0 ||
         WantAnotherRound(config, start, samples.requests, rounds)) {
    const bool traced = config.trace && (rounds / rotation) % 2 == 0;
    Tracer* tr = traced ? tracer : nullptr;
    timed = tr == nullptr;
    launches.clear();
    const RequestTrace trace = RoundTrace(config.seed, rounds);
    if (rounds < rotation) {
      algorithms.emplace_back(kSolvesPerRound, Algorithm::kCapellini);
    }
    std::size_t slot = 0;
    const std::size_t requests_before = samples.requests;
    const auto t0 = Clock::now();
    for (const auto& event : trace.requests) {
      const auto m = static_cast<std::size_t>(event.matrix);
      if (event.kind == TraceEventKind::kUpdate) {
        // Applied at once, while earlier requests for the matrix may still
        // be queued or running on the epoch they pinned.
        apply_update(m, event, next_request++, tr);
        continue;
      }
      // A request is not queued beside requests for an older epoch of its
      // matrix: the service would serve them in one launch on the older
      // epoch. That fault is probed on its own, once per round.
      while (std::any_of(pending.begin(), pending.end(), [&](const Pending& p) {
        return p.matrix == m && p.shadow != fleet.shadows[m];
      })) {
        reap(true);
      }
      while (pending.size() >= window) reap(true);
      submit(m, event.seed, rounds, slot++, next_request++, tr);
      reap(false);
    }
    while (!pending.empty()) reap(true);
    const double ms = MsSince(t0);
    (tr != nullptr ? traced_ms : untraced_ms).push_back(ms);

    double host_ns = 0.0;
    double cycles = 0.0;
    for (const auto& [key, launch] : launches) {
      host_ns += launch.host_ms * 1e6;
      cycles += static_cast<double>(launch.cycles);
    }
    if (timed) {
      timed_solves += static_cast<double>(samples.requests - requests_before);
      timed_seconds += ms / 1000.0;
      round_ns_per_cycle.push_back(host_ns / cycles);
    }
    total_launches += launches.size();
    ++rounds;
  }

  // Read before the benchmark's own work below, which is not the service's.
  report.Set("peak_rss_mb", PeakRssMb());
  for (int r = 0; r < rounds; ++r) {
    report.KnownFaultOp("solve_after_update", ProbeSolveAfterUpdate(report));
  }
  report.Set("sim_ms", PriceRotation(config.seed, rotation, algorithms, report));

  report.Set("setup_s", MedianSetupSeconds(setup_ms));
  report.Set("solves_per_s", timed_solves / timed_seconds);
  report.Set("lat_p50_ms", Quantile(samples.latency_ms, 0.50));
  report.Set("lat_p95_ms", Quantile(samples.latency_ms, 0.95));
  report.Set("host_ns_per_sim_cycle", Quantile(round_ns_per_cycle, 0.5));

  report.Set("core.analyze_ms", Mean(samples.analyze_ms));
  report.Set("serve.submit_us_p50", Quantile(samples.submit_us, 0.5));
  report.Set("serve.queue_wait_ms_p50", Quantile(samples.queue_wait_ms, 0.5));
  report.Set("serve.queue_wait_ms_p95", Quantile(samples.queue_wait_ms, 0.95));
  report.Set("serve.service_ms_p50", Quantile(samples.service_ms, 0.5));
  report.Set("serve.batch_occupancy", static_cast<double>(samples.requests) /
                                          static_cast<double>(total_launches));
  report.Set("serve.attempts_per_request",
             samples.attempts / static_cast<double>(samples.requests));
  report.Set("serve.cost_estimate_ratio", Quantile(samples.cost_ratio, 0.5));
  report.Set("registry.register_ms_p50", Quantile(samples.register_ms, 0.5));
  capellini::serve::RegistrySnapshot registry;
  std::vector<double> per_device;
  for (int d = 0; d < kDevices; ++d) {
    const auto snap = fleet.service->registry(d).Snapshot();
    registry.evictions += snap.evictions;
    registry.analysis_cache_hits += snap.analysis_cache_hits;
    registry.resident_bytes += snap.resident_bytes;
    per_device.push_back(
        static_cast<double>(fleet.service->stats(d).totals().requests));
  }
  report.Set("registry.evictions",
             static_cast<double>(registry.evictions) / rounds);
  report.Set("registry.analysis_cache_hits",
             static_cast<double>(registry.analysis_cache_hits) / rounds);
  report.Set("registry.resident_mb",
             static_cast<double>(registry.resident_bytes) / (1024.0 * 1024.0));
  report.Set("update_p50_ms", Quantile(samples.update_ms, 0.5));
  report.Set("update.analysis_ms_p50",
             Quantile(samples.update_analysis_ms, 0.5));
  report.Set("update.rows_releveled", Mean(samples.rows_releveled));
  report.Set("update.delta_bytes", Mean(samples.delta_bytes));
  report.Set("shard.requests_max_over_mean",
             *std::max_element(per_device.begin(), per_device.end()) /
                 Mean(per_device));
  report.Set("bench.forward_subst_ms", Mean(samples.forward_ms));
  ReportTraceOverhead(traced_ms, untraced_ms, report);
  fleet.service->Shutdown();
}

}  // namespace perfbench
