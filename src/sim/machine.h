// The SIMT interpreter: executes kernels on the simulated device.
//
// Execution model (the mechanisms the paper's analysis depends on):
//  * Warps of 32 lanes execute in lock step. Divergent branches are
//    serialized with a reconvergence stack (explicit reconvergence PCs from
//    the kernel author). A lane that busy-waits therefore blocks the lanes
//    parked at the reconvergence point — exactly the deadlock of Challenge 1.
//  * Each SM issues `issue_per_cycle` warp-instructions per cycle, round-robin
//    over its ready resident warps. Warps stalled on memory do not issue.
//  * Residency: at most max_warps_per_sm warps per SM. Thread blocks are
//    dispatched IN ORDER as slots free — the invariant the synchronization-
//    free algorithms rely on (a row only waits on earlier rows, which are
//    resident or finished).
//  * Global memory: per warp memory instruction, the distinct 32-byte sectors
//    touched by the active lanes become DRAM transactions; transactions queue
//    on device bandwidth and complete after the configured latency. Loads and
//    atomics stall the warp until completion; stores are fire-and-forget.
//    Values are read/written at issue time (sequentially consistent), so
//    timing and data never race in the simulation.
//  * Watchdogs: a cycle limit plus a no-progress detector (no store, atomic,
//    warp completion or dispatch for N cycles) that converts intra-warp
//    busy-wait deadlocks into a reportable error. A no-progress phase whose
//    whole machine state provably repeats is fast-forwarded by whole periods
//    to just before the trip, so the error is the exact one without the
//    spin (see Launch and DESIGN.md §4g).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/counters.h"
#include "sim/kernel.h"
#include "sim/memory.h"
#include "support/status.h"
#include "trace/sink.h"

namespace capellini::sim {

class FaultInjector;  // sim/fault.h

/// Kernel launch geometry.
struct LaunchDims {
  std::int64_t num_threads = 0;     // total threads (rounded up to warps)
  int threads_per_block = 256;      // dispatch granularity
};

/// A write scheduled to land in device memory at a given simulated cycle —
/// the fleet layer's model of a peer device publishing a boundary x-value:
/// the f64 solution component and the i32 get_value flag become visible
/// together once the simulated clock reaches `cycle`, so consumer rows spin
/// on the flag exactly as they would on an on-device producer. An address of
/// 0 skips that half (0 is below the allocation base, never a real address).
struct ExternalStore {
  std::uint64_t cycle = 0;
  std::uint64_t f64_addr = 0;
  double f64_value = 0.0;
  std::uint64_t i32_addr = 0;
  std::int32_t i32_value = 0;
};

/// First publish cycle per element of one i32 flag array, filled by the
/// machine on every MarkPublish-annotated lane store to `[base, base + 4 *
/// first_cycle.size())` — dropped publishes included, since the store issued
/// even though its value never landed (read the flags to learn which did).
/// A plain record instead of a TraceSink, so recording costs neither run
/// fusion nor the no-progress fast-forward.
struct PublishRecord {
  std::uint64_t base = 0;
  /// UINT64_MAX until the element's first publish; then its launch cycle.
  std::vector<std::uint64_t> first_cycle;
};

class Machine {
 public:
  Machine(DeviceConfig config, DeviceMemory* memory);

  const DeviceConfig& config() const { return config_; }

  /// Attaches an execution-trace observer (nullptr = tracing off, the
  /// default). The sink sees dispatches, warp lifetimes, issues, memory
  /// stalls, publishes and deadlock dumps; it never affects timing — stats
  /// and solutions are identical with and without a sink.
  void set_trace_sink(trace::TraceSink* sink) { trace_ = sink; }

  /// Attaches a fault injector (nullptr = injection off, the default). The
  /// same seam contract as the trace sink: with no injector — or an attached
  /// injector whose rates are all zero — timing, counters and memory contents
  /// are bit-identical to an untouched machine. See sim/fault.h for the
  /// hazards it can inject.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Attaches a publish record (nullptr = off, the default). Not owned; the
  /// machine only writes first_cycle entries still at UINT64_MAX.
  void set_publish_record(PublishRecord* record) { publish_ = record; }

  /// Schedules peer-device writes for the NEXT launch only (cleared when that
  /// launch ends). Stores are applied when the simulated clock first reaches
  /// their cycle; each application counts as forward progress, and the
  /// no-progress watchdog will not trip while arrivals are still pending —
  /// a warp legitimately spinning on a remote flag is not a deadlock.
  void set_external_stores(std::vector<ExternalStore> stores) {
    ext_ = std::move(stores);
  }

  /// Runs `kernel` to completion and returns its counters.
  /// Fails with StatusCode::kDeadlock when the watchdog trips.
  Expected<LaunchStats> Launch(const Kernel& kernel, LaunchDims dims,
                               std::span<const std::int64_t> params);

  /// Test-only: routes subsequent launches through the legacy scalar core
  /// instead of the threaded dispatcher. The scalar loop survives solely as
  /// the reference oracle interp_equivalence_test and bench_interp's
  /// identity gate compare the threaded core against; no production path
  /// selects it (there is deliberately no public config knob). Process-wide
  /// so the oracle can be flipped around a Solve without plumbing test state
  /// through SolverOptions.
  static void set_scalar_core_for_test(bool scalar);

  /// Simulated cycles the last launch skipped by fast-forwarding a periodic
  /// no-progress phase (0 when it never engaged). Observation only: the
  /// launch's result and counters are those of the cycle-by-cycle run.
  std::uint64_t fast_forwarded_cycles() const { return ff_skipped_; }

 private:
  // The threaded core's opcode handlers live in machine.cpp as static
  // members of Interp; they touch the same private state the scalar switch
  // does.
  friend struct Interp;

  struct Frame {
    std::int32_t reconv_pc;
    std::int32_t other_pc;
    std::uint32_t other_mask;
  };

  struct Warp {
    std::int32_t pc = 0;
    std::uint32_t active = 0;
    std::int64_t base_tid = 0;
    std::int64_t block_id = 0;
    bool alive = false;
    // Issue-slot credit for a pre-executed straight-line run (threaded core
    // only). When the dispatcher executes a run of n batchable instructions
    // in one host step it sets skip = n - 1; the next n - 1 times this warp
    // is popped from the ready queue, the slot is charged and skip
    // decremented WITHOUT executing anything, so the simulated issue
    // schedule is cycle-identical to stepping one instruction at a time.
    // The architectural PC during the drain is pc - skip.
    std::uint16_t skip = 0;
    std::vector<Frame> stack;
    // Register-major (SoA) register files: element [reg * 32 + lane]. All 32
    // values of one register are contiguous, so a converged op is a unit-
    // stride 32-wide loop the compiler can vectorize.
    std::vector<std::int64_t> r;  // kNumIntRegs * 32
    std::vector<double> f;        // kNumFltRegs * 32
    // Spin-poll fast path: a converged warp spinning on a poll load re-issues
    // the same per-lane addresses every iteration, so the deduplicated sector
    // list is cached here, keyed by (pc, active mask, addresses). The address
    // comparison makes the cache self-validating; accounting is unchanged —
    // only the O(lanes x sectors) dedup scan is skipped.
    std::int32_t poll_pc = -1;
    std::uint32_t poll_mask = 0;
    std::uint8_t poll_count = 0;
    std::uint8_t poll_num_sectors = 0;
    std::array<std::uint64_t, 32> poll_addresses;
    std::array<std::uint64_t, 32> poll_sectors;
  };

  /// Fixed-capacity FIFO of warp-pool indices — the SM's round-robin issue
  /// queue. A resident warp is in at most one queue (ready or wake) at a
  /// time, so capacity is bounded by max_warps_per_sm; the power-of-two ring
  /// replaces the std::deque that dominated the issue loop's host time.
  class ReadyRing {
   public:
    void Reset(int capacity) {
      std::size_t size = 1;
      while (size < static_cast<std::size_t>(capacity)) size <<= 1;
      if (buffer_.size() != size) buffer_.assign(size, 0);
      mask_ = static_cast<std::uint32_t>(size - 1);
      head_ = 0;
      count_ = 0;
    }
    bool empty() const { return count_ == 0; }
    void push_back(int warp) {
      buffer_[(head_ + count_) & mask_] = warp;
      ++count_;
    }
    int pop_front() {
      const int warp = buffer_[head_];
      head_ = (head_ + 1) & mask_;
      --count_;
      return warp;
    }
    std::uint32_t size() const { return count_; }
    /// The i-th warp from the front (issue order).
    int operator[](std::uint32_t i) const {
      return buffer_[(head_ + i) & mask_];
    }

   private:
    std::vector<std::int32_t> buffer_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
    std::uint32_t mask_ = 0;
  };

  struct Sm {
    std::vector<int> free_slots;       // indices into warp pool
    ReadyRing ready;                   // warps ready to issue
    int resident = 0;
  };

  // One step of one warp on the legacy scalar core (per-step switch over
  // Op). No production path reaches it anymore: trace-attached and
  // CAPELLINI_TRACE=1 runs go through the threaded core with run fusion
  // disabled (per-issue hooks fire at what would have been the fused-run
  // boundaries). The scalar loop is kept only as the equivalence oracle,
  // selected by set_scalar_core_for_test.
  void ExecuteInstruction(int warp_index, int sm_index);

  // One dispatch of one warp on the threaded core: either a fused
  // straight-line run (batchable ops executed across all lanes over the SoA
  // register views, remaining issue slots charged via Warp::skip) or a
  // single step through the instruction's handler pointer.
  void ExecuteThreaded(int warp_index, int sm_index);

  // Reconvergence bookkeeping (see DESIGN.md / header comment).
  void SyncAtReconv(Warp& warp);
  void UnwindIfEmpty(Warp& warp, int sm_index);

  // Memory transaction accounting result: completion cycle plus the detail
  // the tracing layer attributes stalls with.
  struct MemTxn {
    std::uint64_t ready_at = 0;
    std::uint32_t transactions = 0;
    std::uint32_t misses = 0;
    // Backlog found on the L2/DRAM queues (bandwidth-bound share of the wait).
    std::uint64_t queue_cycles = 0;
  };
  MemTxn AccountMemory(std::span<const std::uint64_t> addresses,
                       std::size_t count, int width_bytes,
                       bool is_atomic = false);
  // The two halves of AccountMemory: the duplicate-sector scan and the
  // queue/latency accounting. Split so the spin-poll fast path can reuse a
  // cached sector list and skip the scan. Takes the sector size as a shift
  // (sector_bytes is constrained to a power of two) — the per-lane divide
  // was a measurable share of interpreter time.
  static std::size_t DedupSectors(const std::uint64_t* addresses,
                                  std::size_t count, int sector_shift,
                                  std::uint64_t* sectors);
  // `all_touched` promises every sector is already in the L2 bitmap (a
  // poll-cache hit: the cache is filled only after its sectors were
  // touched, it is reset at warp dispatch and the bitmap at launch), so the
  // TouchSector walk is skipped and every sector counts as a hit.
  MemTxn AccountSectors(const std::uint64_t* sectors, std::size_t num_sectors,
                        bool is_atomic, bool all_touched = false);

  // L2 sector tracking (infinite capacity; see DeviceConfig comment).
  bool TouchSector(std::uint64_t sector);

  void FinishWarp(int warp_index, int sm_index);

  // Fills the publish record for one MarkPublish store's lane addresses.
  void RecordPublishes(const std::uint64_t* addresses, std::size_t count);

  std::int64_t& RegI(Warp& warp, int lane, int reg) {
    return warp.r[static_cast<std::size_t>(reg) * 32 +
                  static_cast<std::size_t>(lane)];
  }
  double& RegF(Warp& warp, int lane, int reg) {
    return warp.f[static_cast<std::size_t>(reg) * 32 +
                  static_cast<std::size_t>(lane)];
  }

  // Read-only launch context threaded through the handler functions (the
  // scalar core reads the same data off the Machine members directly).
  struct ExecCtx {
    const std::int64_t* params;
    std::int64_t grid_threads;
    std::int64_t threads_per_block;
  };
  struct DecodedInstr;
  // Converged-warp handler: executes one batchable op across the lanes of
  // `warp` over the SoA register views. The FULL variant loops all 32 lanes
  // unconditionally; the masked variant iterates the active mask.
  using AluFn = void (*)(Warp& warp, const Instr& instr, const ExecCtx& ctx);
  // Generic single-step handler: executes one instruction (memory, control
  // flow, or a non-fusable ALU step) and returns the next PC. Memory
  // completion lands in `mem` exactly as in the scalar core.
  using StepFn = std::int32_t (*)(Machine& m, Warp& warp,
                                  const DecodedInstr& d, int sm_index,
                                  MemTxn& mem, const ExecCtx& ctx);

  DeviceConfig config_;
  /// log2(config_.sector_bytes), precomputed once: DedupSectors maps a lane
  /// address to its sector with a shift instead of a 64-bit divide.
  int sector_shift_ = 5;
  /// config_.BytesPerCycle() / L2BytesPerCycle(), computed once at
  /// construction: each is an FP divide AccountSectors would otherwise
  /// re-derive per memory transaction (hundreds of millions per solve).
  /// Cached values are the exact same doubles, so timing is unchanged.
  double dram_bytes_per_cycle_ = 1.0;
  double l2_bytes_per_cycle_ = 1.0;
  DeviceMemory* memory_;
  // CAPELLINI_TRACE=1 per-instruction stderr dump, read once at construction.
  bool debug_trace_ = false;

  // Per-launch state.
  const Kernel* kernel_ = nullptr;
  // Predecoded copy of the kernel: each instruction fused with its per-PC
  // annotation bits (spin region / spin head / publish), its straight-line
  // run length, and its handler pointers, so the issue loop reads one table
  // and never switches on Op. Two handler streams per decoded kernel — the
  // full-mask (converged) AluFn and the masked AluFn — cover the two warp
  // shapes a batch can run under; warps with identical control shape share
  // the stream.
  struct DecodedInstr {
    Instr instr;
    std::uint8_t flags = 0;
    // Number of consecutive batchable (IsStraightLineOp) instructions
    // starting at this PC; 0 for non-batchable ops. A run executes in one
    // dispatch on the threaded core.
    std::uint16_t run = 0;
    AluFn alu_full = nullptr;
    AluFn alu_masked = nullptr;
    StepFn step = nullptr;
  };
  // A decoded handler stream, cached across launches and validated by the
  // kernel's content fingerprint (see Kernel::Fingerprint). Invalidation
  // mirrors the old per-launch predecode: content change => rebuild.
  struct DecodedKernel {
    std::uint64_t fingerprint = 0;
    std::vector<DecodedInstr> code;
    // Bit r set = some instruction writes integer (float) register r.
    std::uint32_t written_int = 0;
    std::uint32_t written_flt = 0;
  };
  // Returns the cached decode for `kernel`, building or rebuilding it if the
  // pointer is new or the fingerprint no longer matches.
  const DecodedKernel* DecodeKernel(const Kernel& kernel);
  static void BuildDecoded(const Kernel& kernel, std::uint64_t fingerprint,
                           DecodedKernel& out);

  std::vector<std::pair<const Kernel*, std::unique_ptr<DecodedKernel>>>
      decode_cache_;
  const DecodedKernel* decoded_ = nullptr;  // decode of the current launch
  std::vector<std::int64_t> params_;
  std::int64_t grid_threads_ = 0;
  int threads_per_block_ = 256;

  std::vector<Warp> warp_pool_;
  std::vector<Sm> sms_;
  // (ready_at, warp, sm) parking for memory-stalled warps. Every load that
  // completes past cycle+1 parks here and is popped exactly once — hundreds
  // of millions of entries per solve — so this is a calendar wheel (one
  // bucket per cycle mod kWakeWheel, O(1) park/wake) instead of a priority
  // queue (O(log stalled) with a cache-missy heap). Entries beyond the
  // wheel horizon overflow into a small heap and re-enter the wheel as the
  // horizon advances. Pop order is identical to the old priority queue:
  // cycle stepping and exact-min fast-forward make drains monotonic in
  // ready_at (each bucket holds exactly one time), and a bucket is sorted
  // by (warp, sm) before delivery — a warp parks at most once, so this
  // reproduces the heap's (ready_at, warp, sm) order bit-for-bit.
  using WakeEntry = std::tuple<std::uint64_t, int, int>;
  static constexpr std::uint64_t kWakeWheel = 4096;  // power of two
  std::vector<std::vector<std::pair<int, int>>> wake_wheel_;  // (warp, sm)
  std::vector<std::uint64_t> wake_wheel_bits_;  // bucket occupancy bitmap
  std::size_t wake_wheel_count_ = 0;
  std::priority_queue<WakeEntry, std::vector<WakeEntry>, std::greater<>>
      wake_far_;

  bool WakePending() const {
    return wake_wheel_count_ != 0 || !wake_far_.empty();
  }
  void WakePush(std::uint64_t ready_at, int warp, int sm) {
    if (ready_at >= cycle_ + kWakeWheel) {
      wake_far_.push(WakeEntry{ready_at, warp, sm});
      return;
    }
    const std::uint64_t b = ready_at & (kWakeWheel - 1);
    wake_wheel_[b].emplace_back(warp, sm);
    wake_wheel_bits_[b >> 6] |= 1ull << (b & 63);
    ++wake_wheel_count_;
  }
  void WakeReset();
  std::uint64_t NextWakeTime() const;

  std::uint64_t cycle_ = 0;
  double dram_busy_until_ = 0.0;
  double l2_busy_until_ = 0.0;
  std::uint64_t last_progress_cycle_ = 0;
  std::int64_t alive_warps_ = 0;
  /// Set by FinishWarp; Launch's issue loop re-attempts block dispatch only
  /// when a slot actually freed (a failed dispatch scan is stateless, so
  /// skipping it never changes the schedule).
  bool sm_slots_freed_ = false;
  /// One bit per SM, set while that SM's ready ring is non-empty. The issue
  /// scan walks set bits in ascending SM order (countr_zero), which visits
  /// exactly the SMs the full sweep would have issued from, in the same
  /// order — spin-heavy phases wake only a handful of warps per cycle, so
  /// this skips the (num_sms - few) guaranteed-stalled SM visits.
  std::vector<std::uint64_t> ready_sm_mask_;
  /// SMs with resident > 0; idle-but-resident SMs charge their issue slots
  /// as stalls in closed form instead of being visited.
  int resident_sm_count_ = 0;

  void MarkSmReady(int sm_index) {
    ready_sm_mask_[static_cast<std::size_t>(sm_index) >> 6] |=
        1ull << (sm_index & 63);
  }
  LaunchStats stats_;
  std::vector<std::uint64_t> l2_sectors_;  // bitmap, one bit per sector
  // Indices of l2_sectors_ words that are nonzero, so a re-launch clears
  // O(touched) words instead of std::fill over the whole bitmap.
  std::vector<std::size_t> l2_touched_words_;

  // Tracing (see trace/sink.h). The per-PC spin/publish annotations the sink
  // consumes live in decoded_->code[pc].flags.
  trace::TraceSink* trace_ = nullptr;
  int launch_index_ = -1;

  // Fault injection (see sim/fault.h). Null = off; every hook site is one
  // pointer test.
  FaultInjector* faults_ = nullptr;

  // Test-only core selector (see set_scalar_core_for_test).
  static std::atomic<bool> scalar_core_for_test_;

  // Scheduled peer-device writes (sorted by cycle at Launch; applied by the
  // main loop). ext_next_ is the first not-yet-applied entry.
  std::vector<ExternalStore> ext_;
  std::size_t ext_next_ = 0;

  PublishRecord* publish_ = nullptr;

  // --- No-progress fast-forward (see Launch, DESIGN.md §4g) ---------------
  // The machine state at one main-loop top, relative to cycle_: everything
  // the rest of the launch depends on while memory is frozen (no store,
  // atomic or arrival). Only the anchor is kept; the probe compares the
  // live state against it in place.
  struct Snapshot {
    // Registers are copied only once the rest of the state has repeated.
    bool with_regs = false;
    std::uint64_t cycle = 0;
    std::uint64_t last_progress = 0;
    // Unchanged between two snapshots <=> no sector was touched for the
    // first time, i.e. the L2 bitmap did not change.
    std::uint64_t dram_bytes = 0;
    double l2_offset = 0.0;    // busy-until minus cycle_, clamped at 0
    double dram_offset = 0.0;
    bool slots_freed = false;
    LaunchStats stats;
    std::vector<std::uint64_t> ready_mask;
    std::vector<std::int64_t> control;  // VisitControl's values
    std::vector<WakeEntry> wake;        // (ready_at - cycle_, warp, sm), sorted
    std::vector<std::uint64_t> regs;    // VisitLiveRegs' values
  };
  // Feeds `emit` the alive warps' pc, skip, active mask and reconvergence
  // stack, then each SM's ready ring in issue order; stops (false) as soon
  // as `emit` returns false.
  template <typename Emit>
  bool VisitControl(Emit&& emit) const;
  // Feeds `emit` the bits of every register value that can still change:
  // the live lanes of the rows the kernel writes, per alive warp; stops
  // (false) as soon as `emit` does.
  template <typename Emit>
  bool VisitLiveRegs(Emit&& emit) const;
  void CaptureWake(std::vector<WakeEntry>& wake) const;
  void CaptureAnchor(bool with_regs);
  bool MatchesAnchor();
  // Jumps whole periods from the current loop top, landing at least one
  // period short of `limit`; true = it jumped.
  bool FastForward(std::uint64_t period, std::uint64_t limit);
  // Called at each main-loop top of a no-progress phase; true = it jumped.
  bool ProbePeriod(std::uint64_t limit);

  Snapshot ff_anchor_;
  std::vector<WakeEntry> ff_wake_;  // the probe's wake entries
  bool ff_anchored_ = false;
  std::uint64_t ff_window_ = 0;    // Brent window: re-anchor after this
  std::uint64_t ff_period_ = 0;    // period the register anchor must confirm
  std::uint64_t ff_resume_ = 0;    // no probing before this cycle
  std::uint64_t ff_progress_ = 0;  // last_progress_cycle_ the probe is for
  std::uint64_t ff_skipped_ = 0;
};

}  // namespace capellini::sim
