#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/verify.h"
#include "kernels/launch.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace capellini::serve {
namespace {

/// Algorithms with a k-right-hand-side kernel (kernels/mrhs.cpp). Everything
/// else is served per-request.
bool HasMrhsForm(Algorithm algorithm) {
  return algorithm == Algorithm::kCapellini ||
         algorithm == Algorithm::kSyncFreeCsr;
}

kernels::MrhsAlgorithm ToMrhsAlgorithm(Algorithm algorithm) {
  return algorithm == Algorithm::kCapellini
             ? kernels::MrhsAlgorithm::kCapelliniMrhs
             : kernels::MrhsAlgorithm::kSyncFreeMrhs;
}

double ElapsedMs(std::chrono::steady_clock::time_point begin,
                 std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

std::string RetryAfterHint(double retry_ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " — retry after ~%.1f ms",
                std::max(0.0, retry_ms));
  return buf;
}

}  // namespace

ServiceOptions SolveService::DeterministicOptions() {
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 1;
  return options;
}

SolveService::SolveService(MatrixRegistry* registry, ServiceOptions options)
    : registry_(registry), options_(options) {
  CAPELLINI_CHECK_MSG(registry_ != nullptr, "service needs a registry");
  options_.workers = std::max(1, options_.workers);
  options_.max_batch = std::clamp(options_.max_batch, 1, 6);
  paused_ = options_.start_paused;
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  worker_done_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    worker_done_.push_back(pool_->Submit([this] { WorkerLoop(); }));
  }
}

SolveService::~SolveService() { Shutdown(); }

void SolveService::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

Expected<UpdateReport> SolveService::ApplyDelta(
    MatrixHandle handle, const update::DeltaBatch& batch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      stats_.RecordUpdateRejection();
      return FailedPrecondition("service is shut down");
    }
  }
  // The registry swap does not touch the service queue: requests admitted
  // before this point pinned their EntryRef and finish on the old epoch.
  Expected<UpdateReport> report = registry_->ApplyDelta(handle, batch);
  if (!report.ok()) {
    stats_.RecordUpdateRejection();
    return report.status();
  }
  stats_.RecordUpdate(*report, report->name);
  return report;
}

void SolveService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ && worker_done_.empty()) return;
    shutdown_ = true;
    paused_ = false;  // accepted work still drains
  }
  cv_.notify_all();
  for (std::future<void>& done : worker_done_) done.get();
  worker_done_.clear();
  pool_.reset();
}

double SolveService::QueuedCostMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_cost_ms_;
}

Expected<std::future<ServeResult>> SolveService::Submit(
    MatrixHandle handle, std::vector<Val> b, RequestOptions options) {
  // Peek, not Acquire: LRU promotion and cache-hit accounting must only
  // happen for admitted requests — a rejected spammer must not be able to
  // refresh its entry and evict well-behaved residents.
  auto peeked = registry_->Peek(handle);
  if (!peeked.ok()) return peeked.status();
  const MatrixRegistry::EntryRef& entry = *peeked;
  if (b.size() != static_cast<std::size_t>(entry->solver.matrix().rows())) {
    return InvalidArgument(
        "b has " + std::to_string(b.size()) + " entries, matrix '" +
        entry->name + "' has " +
        std::to_string(entry->solver.matrix().rows()) + " rows");
  }

  Request request;
  request.handle = handle;
  request.entry = entry;
  request.b = std::move(b);
  // Memoized analysis makes the default a cache hit, never a re-analysis.
  request.algorithm = options.algorithm.has_value()
                          ? *options.algorithm
                          : entry->solver.Recommend();
  request.enqueue_time = Clock::now();
  const double deadline_ms = options.deadline_ms.has_value()
                                 ? *options.deadline_ms
                                 : options_.default_deadline_ms;
  request.deadline =
      deadline_ms > 0.0
          ? request.enqueue_time +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms))
          : Clock::time_point::max();
  request.deadline_budget_ms = deadline_ms > 0.0 ? deadline_ms : -1.0;
  request.est_cost_ms = entry->cost.EstimateMs();
  std::future<ServeResult> future = request.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      stats_.RecordRejection();
      return FailedPrecondition("service is shut down");
    }
    if (queue_.size() >= options_.max_queue) {
      stats_.RecordRejection();
      // Hint: time until one slot frees at the current drain rate.
      const double per_slot_ms =
          queued_cost_ms_ / static_cast<double>(queue_.size()) /
          static_cast<double>(options_.workers);
      return ResourceExhausted(
          "queue full (" + std::to_string(options_.max_queue) +
          " pending requests)" + RetryAfterHint(per_slot_ms));
    }
    if (options_.max_queue_cost_ms > 0.0 && !queue_.empty() &&
        queued_cost_ms_ + request.est_cost_ms > options_.max_queue_cost_ms) {
      stats_.RecordRejection();
      // Hint: time until enough queued work drains that this request fits.
      const double excess =
          queued_cost_ms_ + request.est_cost_ms - options_.max_queue_cost_ms;
      char ledger[96];
      std::snprintf(ledger, sizeof ledger,
                    "estimated queued cost %.3f ms + %.3f ms exceeds budget "
                    "%.3f ms",
                    queued_cost_ms_, request.est_cost_ms,
                    options_.max_queue_cost_ms);
      return ResourceExhausted(
          ledger +
          RetryAfterHint(excess / static_cast<double>(options_.workers)));
    }
    request.seq = next_seq_++;
    queued_cost_ms_ += request.est_cost_ms;
    if (EnqueueLocked(std::move(request))) stats_.RecordReorder();
  }
  registry_->Promote(handle);
  cv_.notify_one();
  return future;
}

bool SolveService::EnqueueLocked(Request request) {
  if (options_.policy == QueuePolicy::kFifo || queue_.empty() ||
      queue_.back().deadline <= request.deadline) {
    queue_.push_back(std::move(request));
    return false;
  }
  // EDF: stable insert before the first strictly-later deadline. Ties keep
  // arrival order, so a deadline-free workload is served in exact FIFO
  // order — the determinism-mode contract.
  auto it = std::upper_bound(
      queue_.begin(), queue_.end(), request.deadline,
      [](const Clock::time_point& deadline, const Request& queued) {
        return deadline < queued.deadline;
      });
  queue_.insert(it, std::move(request));
  return true;
}

std::vector<SolveService::Request> SolveService::PopGroupLocked() {
  std::vector<Request> group;
  group.push_back(std::move(queue_.front()));
  queue_.pop_front();
  // Copy the match keys: push_back below may reallocate the vector.
  const MatrixHandle handle = group.front().handle;
  const Algorithm algorithm = group.front().algorithm;
  // The epoch the leader pinned at Submit: a request queued on the other
  // side of an ApplyDelta must not be solved on the leader's matrix.
  const MatrixRegistry::Entry* const entry = group.front().entry.get();
  const Clock::time_point leader_deadline = group.front().deadline;
  if (options_.max_batch > 1 && HasMrhsForm(algorithm)) {
    for (auto it = queue_.begin();
         it != queue_.end() &&
         group.size() < static_cast<std::size_t>(options_.max_batch);) {
      const bool key_match = it->handle == handle &&
                             it->algorithm == algorithm &&
                             it->entry.get() == entry;
      // Deadline compatibility: joining the leader's launch must not pull a
      // far-future request ahead of tighter work elsewhere in the queue.
      const bool deadline_compatible =
          options_.coalesce_window_ms <= 0.0 ||
          std::chrono::duration<double, std::milli>(it->deadline -
                                                    leader_deadline)
                  .count() <= options_.coalesce_window_ms;
      if (key_match && deadline_compatible) {
        group.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const std::uint64_t dequeue_seq = next_dequeue_seq_++;
  for (Request& request : group) {
    request.dequeue_seq = dequeue_seq;
    queued_cost_ms_ -= request.est_cost_ms;
  }
  // Sweep float drift so a long-lived ledger cannot wedge admission.
  queued_cost_ms_ = queue_.empty() ? 0.0 : std::max(0.0, queued_cost_ms_);
  return group;
}

void SolveService::WorkerLoop() {
  for (;;) {
    std::vector<Request> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return (!paused_ && !queue_.empty()) || (shutdown_ && queue_.empty());
      });
      if (queue_.empty()) return;  // shutdown with a drained queue
      group = PopGroupLocked();
    }
    ServeGroup(std::move(group));
  }
}

void SolveService::ServeGroup(std::vector<Request> group) {
  // The ONE dequeue timestamp for this group: solo, batched, and expired
  // paths all measure queue_wait_ms from it, so the three agree.
  const Clock::time_point dequeue_time = Clock::now();

  // Expired requests complete with a clean Status without burning a launch.
  std::vector<Request> live;
  live.reserve(group.size());
  for (Request& request : group) {
    if (dequeue_time > request.deadline) {
      ServeResult result;
      result.status = DeadlineExceeded(
          "request expired after " +
          std::to_string(ElapsedMs(request.enqueue_time, dequeue_time)) +
          " ms in queue");
      result.algorithm = request.algorithm;
      result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
      result.dequeue_seq = request.dequeue_seq;
      result.est_cost_ms = request.est_cost_ms;
      stats_.RecordRequest(
          {.handle = request.handle,
           .name = request.entry->name,
           .outcome = ServiceStats::Outcome::kExpired,
           .code = StatusCode::kDeadlineExceeded,
           .batch_size = 1,
           .queue_wait_ms = result.queue_wait_ms,
           .solve_ms = 0.0,
           .deadline_budget_ms = request.deadline_budget_ms,
           .est_cost_ms = request.est_cost_ms});
      request.promise.set_value(std::move(result));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  const MatrixRegistry::Entry& entry = *live.front().entry;

  // Circuit breaker: one decision per dequeued group (it is one handle).
  switch (BreakerAdmit(live.front().handle)) {
    case BreakerDecision::kShortCircuit:
      // Open, fast-fail mode: complete without burning a launch.
      for (Request& request : live) {
        ServeResult result;
        result.status = ResourceExhausted("circuit breaker open for '" +
                                          entry.name + "' — failing fast");
        result.algorithm = request.algorithm;
        result.batch_size = 1;
        result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
        result.dequeue_seq = request.dequeue_seq;
        result.est_cost_ms = request.est_cost_ms;
        stats_.RecordBreakerShortCircuit();
        FinishRequest(request, entry, std::move(result), 1,
                      /*report_breaker=*/false);
      }
      return;
    case BreakerDecision::kFallback:
      // Open, host-fallback mode: the serial CPU solver is immune to the
      // device faults that opened the breaker. Its outcome says nothing
      // about device health, so it does not feed the breaker.
      for (Request& request : live) {
        stats_.RecordBreakerShortCircuit();
        stats_.RecordBatch(1);
        request.algorithm = Algorithm::kSerialCpu;
        ServeSolo(request, entry, dequeue_time, /*report_breaker=*/false);
      }
      return;
    case BreakerDecision::kProbe:
      stats_.RecordBreakerProbe();
      break;  // run the full path; the outcome closes or re-opens
    case BreakerDecision::kAllow:
      break;
  }

  if (live.size() >= 2) {
    stats_.RecordBatch(static_cast<int>(live.size()));
    ServeBatched(live, entry, dequeue_time);
    return;
  }
  stats_.RecordBatch(1);
  ServeSolo(live.front(), entry, dequeue_time, /*report_breaker=*/true);
}

void SolveService::ServeSolo(Request& request,
                             const MatrixRegistry::Entry& entry,
                             Clock::time_point dequeue_time,
                             bool report_breaker) {
  ServeResult result;
  result.algorithm = request.algorithm;
  result.batch_size = 1;
  result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
  result.dequeue_seq = request.dequeue_seq;
  result.est_cost_ms = request.est_cost_ms;

  if (options_.reliable) {
    ReliableOptions reliable_options;
    reliable_options.verify.residual_bound = options_.residual_bound;
    reliable_options.ladder = RetryLadderFor(entry);
    auto reliable =
        entry.solver.SolveReliable(request.algorithm, request.b,
                                   reliable_options);
    if (reliable.ok()) {
      result.attempts = static_cast<int>(reliable->attempts.size());
      result.residual = reliable->attempts.back().residual;
      result.verified = reliable->verified;
      result.algorithm = reliable->final_algorithm;
      if (reliable->verified) {
        result.solve = std::move(reliable->solve);
        entry.cost.Observe(result.solve.solve_ms);
      } else {
        result.status = DataLoss("no rung of the retry ladder verified '" +
                                 entry.name + "'");
      }
    } else {
      result.status = reliable.status();
    }
  } else {
    // The exact Solver::Solve call the one-shot path makes — this identity
    // is the determinism-mode contract.
    auto solved = entry.solver.Solve(request.algorithm, request.b);
    if (solved.ok()) {
      result.solve = std::move(*solved);
      entry.cost.Observe(result.solve.solve_ms);
    } else {
      result.status = solved.status();
    }
  }
  FinishRequest(request, entry, std::move(result), 1, report_breaker);
}

void SolveService::FinishRequest(Request& request,
                                 const MatrixRegistry::Entry& entry,
                                 ServeResult result, int batch_size,
                                 bool report_breaker) {
  const StatusCode code = result.status.code();
  stats_.RecordRequest(
      {.handle = request.handle,
       .name = entry.name,
       .outcome = result.status.ok() ? ServiceStats::Outcome::kOk
                                     : ServiceStats::Outcome::kFailed,
       .code = code,
       .batch_size = batch_size,
       .queue_wait_ms = result.queue_wait_ms,
       .solve_ms = result.solve.solve_ms,
       .deadline_budget_ms = request.deadline_budget_ms,
       .est_cost_ms = request.est_cost_ms});
  if (report_breaker) {
    BreakerReport(request.handle, code);
    // Same gating as the breaker: host-fallback serves say nothing about the
    // device path, so external health observers never see them either.
    if (options_.outcome_listener) options_.outcome_listener(request.handle, code);
  }
  request.promise.set_value(std::move(result));
}

SolveService::BreakerDecision SolveService::BreakerAdmit(MatrixHandle handle) {
  if (options_.breaker_threshold <= 0 && options_.breaker_window <= 0) {
    return BreakerDecision::kAllow;
  }
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  Breaker& breaker = breakers_[handle];
  switch (breaker.state) {
    case Breaker::State::kClosed:
      return BreakerDecision::kAllow;
    case Breaker::State::kOpen:
      if (breaker.open_skips >= options_.breaker_cooldown) {
        breaker.state = Breaker::State::kHalfOpen;
        return BreakerDecision::kProbe;
      }
      ++breaker.open_skips;
      break;
    case Breaker::State::kHalfOpen:
      // A probe is in flight; keep deflecting until it reports.
      break;
  }
  return options_.breaker_mode == BreakerMode::kFastFail
             ? BreakerDecision::kShortCircuit
             : BreakerDecision::kFallback;
}

void SolveService::BreakerReport(MatrixHandle handle, StatusCode code) {
  if (options_.breaker_threshold <= 0 && options_.breaker_window <= 0) return;
  // Only device-health signals move the breaker: the watchdog (kDeadlock)
  // and failed verification (kDataLoss). Everything else — including a
  // plain OK — is evidence the device path works.
  const bool failure =
      code == StatusCode::kDeadlock || code == StatusCode::kDataLoss;
  std::lock_guard<std::mutex> lock(breaker_mutex_);
  Breaker& breaker = breakers_[handle];
  switch (breaker.state) {
    case Breaker::State::kClosed: {
      bool trip = false;
      if (options_.breaker_threshold > 0) {
        if (!failure) {
          breaker.consecutive_failures = 0;
        } else if (++breaker.consecutive_failures >=
                   options_.breaker_threshold) {
          trip = true;
        }
      }
      if (options_.breaker_window > 0) {
        const auto window =
            static_cast<std::size_t>(options_.breaker_window);
        breaker.window.push_back(failure);
        while (breaker.window.size() > window) breaker.window.pop_front();
        if (breaker.window.size() == window) {
          // Open on failure RATE: intermittent faults (say 1 in 3 solves
          // deadlocks) never run up a consecutive streak but still poison
          // the handle. A partial window never trips — W requests of
          // evidence first.
          const auto failures = static_cast<double>(
              std::count(breaker.window.begin(), breaker.window.end(), true));
          const double rate =
              std::clamp(options_.breaker_rate,
                         std::numeric_limits<double>::min(), 1.0);
          if (failures >= rate * static_cast<double>(window)) trip = true;
        }
      }
      if (trip) {
        breaker.state = Breaker::State::kOpen;
        breaker.open_skips = 0;
        breaker.consecutive_failures = 0;
        breaker.window.clear();  // each open needs fresh evidence
        stats_.RecordBreakerOpen();
      }
      break;
    }
    case Breaker::State::kHalfOpen:
      if (failure) {
        breaker.state = Breaker::State::kOpen;
        breaker.open_skips = 0;
        stats_.RecordBreakerProbeFailure();
        stats_.RecordBreakerOpen();  // re-opened by a failed probe
      } else {
        breaker.state = Breaker::State::kClosed;
        breaker.consecutive_failures = 0;
        breaker.window.clear();
      }
      break;
    case Breaker::State::kOpen:
      break;  // stale report from a launch that began before the open
  }
}

void SolveService::ServeBatched(std::vector<Request>& group,
                                const MatrixRegistry::Entry& entry,
                                Clock::time_point dequeue_time) {
  // `dequeue_time` is ServeGroup's single stamp: re-stamping here would fold
  // deadline filtering and B-assembly time into queue_wait_ms and disagree
  // with the solo path.
  const auto n = static_cast<std::size_t>(entry.solver.matrix().rows());
  const int k = static_cast<int>(group.size());

  // Column-major n x k B: column r is request r's right-hand side.
  std::vector<Val> b(n * static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    std::copy(group[static_cast<std::size_t>(r)].b.begin(),
              group[static_cast<std::size_t>(r)].b.end(),
              b.begin() + static_cast<std::size_t>(r) * n);
  }

  const SolverOptions& solver_options = entry.solver.options();
  auto solved = kernels::SolveMrhsOnDevice(
      ToMrhsAlgorithm(group.front().algorithm), entry.solver.matrix(), b, k,
      solver_options.device, solver_options.kernel_options);
  // One launch, one cost observation: the point of coalescing is that k
  // systems cost one structure walk, and the admission model prices the
  // launch, not the request count.
  if (solved.ok()) entry.cost.Observe(solved->exec_ms);

  for (int r = 0; r < k; ++r) {
    Request& request = group[static_cast<std::size_t>(r)];
    ServeResult result;
    result.algorithm = request.algorithm;
    result.batch_size = k;
    result.queue_wait_ms = ElapsedMs(request.enqueue_time, dequeue_time);
    result.dequeue_seq = request.dequeue_seq;
    result.est_cost_ms = request.est_cost_ms;
    bool needs_rescue = !solved.ok();
    if (solved.ok()) {
      result.solve.x.assign(
          solved->x.begin() + static_cast<std::size_t>(r) * n,
          solved->x.begin() + static_cast<std::size_t>(r + 1) * n);
      // Launch-level metrics are shared by the whole group: the point of
      // coalescing is that k systems cost one structure walk.
      result.solve.solve_ms = solved->exec_ms;
      result.solve.preprocessing_ms = solved->preprocessing_ms;
      result.solve.gflops = solved->gflops;
      result.solve.bandwidth_gbs = solved->bandwidth_gbs;
      result.solve.device_stats = solved->stats;
      if (options_.reliable) {
        // Per-column verification: a fault can corrupt one column of the
        // shared launch while the other k-1 are fine.
        VerifyOptions verify_options;
        verify_options.residual_bound = options_.residual_bound;
        const Verification check = VerifySolution(
            entry.solver.matrix(), request.b, result.solve.x, verify_options);
        result.residual = check.residual;
        result.verified = check.passed;
        needs_rescue = !check.passed;
      }
    } else {
      result.status = solved.status();
    }
    if (needs_rescue && options_.reliable) {
      // Rescue the column solo through the full retry ladder; the shared
      // launch (whether failed outright or merely unverified) counts as one
      // spent attempt.
      ReliableOptions reliable_options;
      reliable_options.verify.residual_bound = options_.residual_bound;
      reliable_options.ladder = RetryLadderFor(entry);
      auto rescued = entry.solver.SolveReliable(request.algorithm, request.b,
                                                reliable_options);
      if (rescued.ok()) {
        result.attempts = 1 + static_cast<int>(rescued->attempts.size());
        result.residual = rescued->attempts.back().residual;
        result.verified = rescued->verified;
        result.algorithm = rescued->final_algorithm;
        if (rescued->verified) {
          result.status = Status::Ok();
          result.solve = std::move(rescued->solve);
        } else {
          result.status = DataLoss("no rung of the retry ladder verified '" +
                                   entry.name + "'");
        }
      } else {
        result.status = rescued.status();
      }
    }
    FinishRequest(request, entry, std::move(result), k,
                  /*report_breaker=*/true);
  }
}

std::vector<Algorithm> SolveService::RetryLadderFor(
    const MatrixRegistry::Entry& entry) const {
  if (options_.ladder_cost_threshold_ms <= 0.0) return {};  // default ladder
  if (entry.cost.EstimateMs() >= options_.ladder_cost_threshold_ms) {
    // Expensive handle: re-running it through the fast device rung just to
    // watch it fail again costs more than going straight to the rungs that
    // structurally terminate (per-level launches, then the fault-immune
    // host solver).
    return {Algorithm::kLevelSet, Algorithm::kSerialCpu};
  }
  return DefaultRetryLadder();
}

}  // namespace capellini::serve
