#include "sim/machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "sim/disasm.h"
#include "sim/fault.h"

namespace capellini::sim {
namespace {

constexpr std::uint32_t kFullMask = 0xFFFFFFFFu;

int PopCount(std::uint32_t mask) { return std::popcount(mask); }

// Per-PC annotation bits fused into Machine::DecodedInstr::flags (built from
// the kernel's spin_regions / publish_pcs at launch).
constexpr std::uint8_t kPcInSpin = 1;
constexpr std::uint8_t kPcSpinHead = 2;
constexpr std::uint8_t kPcPublish = 4;

// Register file an instruction writes through operand `a`: 1 = integer,
// 2 = float, 0 = none (stores and control flow).
int WrittenFile(Op op) {
  switch (op) {
    case Op::kNop:
    case Op::kSt4:
    case Op::kSt8I:
    case Op::kSt8F:
    case Op::kBrnz:
    case Op::kBrz:
    case Op::kJmp:
    case Op::kFence:
    case Op::kExit:
      return 0;
    case Op::kLd8F:
    case Op::kAtomAddF8:
    case Op::kFMovI:
    case Op::kFMov:
    case Op::kFAdd:
    case Op::kFSub:
    case Op::kFMul:
    case Op::kFDiv:
    case Op::kFFma:
    case Op::kShflDownF:
      return 2;
    default:
      return 1;
  }
}

// Applies `fn(lane)` to every set lane. The full-mask case — the steady state
// of converged warps, spin-polling warps above all — takes a straight-line
// 0..31 loop instead of the bit-scan, which is the interpreter's hottest
// inner loop.
template <typename Fn>
inline void ForActive(std::uint32_t mask, Fn&& fn) {
  if (mask == kFullMask) {
    for (int lane = 0; lane < 32; ++lane) fn(lane);
    return;
  }
  while (mask) {
    const int lane = std::countr_zero(mask);
    mask &= mask - 1;
    fn(lane);
  }
}

}  // namespace

std::atomic<bool> Machine::scalar_core_for_test_{false};

void Machine::set_scalar_core_for_test(bool scalar) {
  scalar_core_for_test_.store(scalar, std::memory_order_relaxed);
}

Machine::Machine(DeviceConfig config, DeviceMemory* memory)
    : config_(std::move(config)),
      memory_(memory),
      debug_trace_(std::getenv("CAPELLINI_TRACE") != nullptr) {
  CAPELLINI_CHECK(memory_ != nullptr);
  CAPELLINI_CHECK_MSG(config_.warp_size == 32,
                      "the interpreter is specialized for 32-lane warps");
  CAPELLINI_CHECK(config_.num_sms > 0 && config_.max_warps_per_sm > 0);
  CAPELLINI_CHECK_MSG(
      config_.sector_bytes > 0 &&
          (config_.sector_bytes & (config_.sector_bytes - 1)) == 0,
      "sector_bytes must be a power of two");
  sector_shift_ = 0;
  while ((1 << sector_shift_) < config_.sector_bytes) ++sector_shift_;
  wake_wheel_.resize(kWakeWheel);
  wake_wheel_bits_.assign(kWakeWheel / 64, 0);
  dram_bytes_per_cycle_ = config_.BytesPerCycle();
  l2_bytes_per_cycle_ = config_.L2BytesPerCycle();
}

void Machine::WakeReset() {
  if (wake_wheel_count_ != 0) {
    for (std::size_t word = 0; word < wake_wheel_bits_.size(); ++word) {
      std::uint64_t bits = wake_wheel_bits_[word];
      while (bits != 0) {
        wake_wheel_[(word << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits))]
            .clear();
        bits &= bits - 1;
      }
      wake_wheel_bits_[word] = 0;
    }
    wake_wheel_count_ = 0;
  }
  wake_far_ = {};
}

std::uint64_t Machine::NextWakeTime() const {
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  if (wake_wheel_count_ != 0) {
    // All wheel times lie in (cycle_, cycle_ + kWakeWheel), so the first
    // occupied bucket at or after residue cycle_+1 (wrapping) is the min.
    const std::uint64_t mask = kWakeWheel - 1;
    const std::uint64_t start = (cycle_ + 1) & mask;
    const std::size_t words = wake_wheel_bits_.size();
    for (std::size_t i = 0; i <= words; ++i) {
      const std::size_t word = ((start >> 6) + i) % words;
      std::uint64_t bits = wake_wheel_bits_[word];
      if (i == 0) bits &= ~0ull << (start & 63);
      if (bits == 0) continue;
      const std::uint64_t b =
          (static_cast<std::uint64_t>(word) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      const std::uint64_t delta = (b - cycle_) & mask;
      next = cycle_ + (delta == 0 ? kWakeWheel : delta);
      break;
    }
  }
  if (!wake_far_.empty()) {
    next = std::min(next, std::get<0>(wake_far_.top()));
  }
  return next;
}

bool Machine::TouchSector(std::uint64_t sector) {
  const std::size_t word = static_cast<std::size_t>(sector >> 6);
  const std::uint64_t bit = 1ull << (sector & 63);
  if (word >= l2_sectors_.size()) l2_sectors_.resize(word + 1024, 0);
  const std::uint64_t prev = l2_sectors_[word];
  if (prev == 0) l2_touched_words_.push_back(word);
  l2_sectors_[word] = prev | bit;
  return (prev & bit) != 0;
}

std::size_t Machine::DedupSectors(const std::uint64_t* addresses,
                                  std::size_t count, int sector_shift,
                                  std::uint64_t* sectors) {
  std::size_t num_sectors = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // An access may straddle a sector boundary only if misaligned; all our
    // kernels access naturally aligned 4/8-byte values, so one sector each.
    const std::uint64_t s = addresses[i] >> sector_shift;
    // Consecutive lanes overwhelmingly hit the sector the previous lane
    // appended; checking it first makes the common case O(1) per lane.
    if (num_sectors != 0 && sectors[num_sectors - 1] == s) continue;
    bool seen = false;
    for (std::size_t k = 0; k < num_sectors; ++k) {
      if (sectors[k] == s) {
        seen = true;
        break;
      }
    }
    if (!seen) sectors[num_sectors++] = s;
  }
  return num_sectors;
}

Machine::MemTxn Machine::AccountSectors(const std::uint64_t* sectors,
                                        std::size_t num_sectors,
                                        bool is_atomic, bool all_touched) {
  const std::uint64_t sector_bytes =
      static_cast<std::uint64_t>(config_.sector_bytes);
  std::uint64_t misses = 0;
  if (!all_touched) {
    for (std::size_t k = 0; k < num_sectors; ++k) {
      if (!TouchSector(sectors[k])) ++misses;
    }
  }
  stats_.dram_transactions += num_sectors;
  stats_.dram_bytes += misses * sector_bytes;

  MemTxn txn;
  txn.transactions = static_cast<std::uint32_t>(num_sectors);
  txn.misses = static_cast<std::uint32_t>(misses);
  // Backlog in front of this request = the bandwidth-bound share of its wait;
  // captured before the queues advance. Only sinks consume it, so only pay
  // for it when one is attached.
  if (trace_) {
    const double now = static_cast<double>(cycle_);
    double backlog = std::max(0.0, l2_busy_until_ - now);
    if (misses > 0) backlog += std::max(0.0, dram_busy_until_ - now);
    txn.queue_cycles = static_cast<std::uint64_t>(backlog);
  }

  // Every transaction queues on L2 throughput. Atomics occupy the L2 for a
  // full read-modify-write; hits (typically busy-wait polls of resident
  // lines) cost a fraction of a sector (see DeviceConfig::l2_hit_cost_divisor).
  const std::uint64_t hits = num_sectors - misses;
  double cost_sectors = static_cast<double>(misses) +
                        static_cast<double>(hits) / config_.l2_hit_cost_divisor;
  if (is_atomic) cost_sectors *= config_.atomic_cost_multiplier;
  const double l2_start =
      std::max(l2_busy_until_, static_cast<double>(cycle_));
  l2_busy_until_ = l2_start + cost_sectors *
                                  static_cast<double>(sector_bytes) /
                                  l2_bytes_per_cycle_;
  const std::uint64_t l2_done =
      static_cast<std::uint64_t>(l2_busy_until_) +
      static_cast<std::uint64_t>(config_.l2_hit_latency_cycles);
  if (misses == 0) {
    txn.ready_at = l2_done;
    return txn;
  }

  // Misses additionally queue on DRAM bandwidth and pay DRAM latency.
  const double dram_start =
      std::max(dram_busy_until_, static_cast<double>(cycle_));
  dram_busy_until_ = dram_start +
                     static_cast<double>(misses * sector_bytes) /
                         dram_bytes_per_cycle_;
  const std::uint64_t dram_done =
      static_cast<std::uint64_t>(dram_busy_until_) +
      static_cast<std::uint64_t>(config_.dram_latency_cycles);
  txn.ready_at = std::max(l2_done, dram_done);
  return txn;
}

Machine::MemTxn Machine::AccountMemory(std::span<const std::uint64_t> addresses,
                                       std::size_t count, int width_bytes,
                                       bool is_atomic) {
  (void)width_bytes;
  // Distinct sectors among the active lanes' accesses = transactions.
  std::uint64_t sectors[64];
  const std::size_t num_sectors =
      DedupSectors(addresses.data(), count, sector_shift_, sectors);
  return AccountSectors(sectors, num_sectors, is_atomic);
}

void Machine::SyncAtReconv(Warp& warp) {
  while (!warp.stack.empty() &&
         warp.pc == warp.stack.back().reconv_pc) {
    Frame& top = warp.stack.back();
    if (top.other_pc != top.reconv_pc && top.other_mask != 0) {
      // The other side has not run yet: park the arrived lanes, switch.
      std::swap(warp.active, top.other_mask);
      const std::int32_t pending_pc = top.other_pc;
      top.other_pc = top.reconv_pc;
      warp.pc = pending_pc;
    } else {
      // Both sides arrived (or the other side is empty): merge and pop.
      warp.active |= top.other_mask;
      warp.stack.pop_back();
    }
  }
}

void Machine::UnwindIfEmpty(Warp& warp, int sm_index) {
  while (warp.active == 0 && !warp.stack.empty()) {
    const Frame top = warp.stack.back();
    warp.stack.pop_back();
    warp.active = top.other_mask;
    warp.pc = top.other_pc;
  }
  if (warp.active == 0) {
    (void)sm_index;
    warp.alive = false;
  }
}

void Machine::FinishWarp(int warp_index, int sm_index) {
  Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
  if (trace_) {
    trace_->OnWarpFinish(cycle_, sm_index,
                         warp_index - sm_index * config_.max_warps_per_sm,
                         warp.base_tid);
  }
  warp.alive = false;
  Sm& sm = sms_[static_cast<std::size_t>(sm_index)];
  sm.free_slots.push_back(warp_index);
  --sm.resident;
  if (sm.resident == 0) --resident_sm_count_;
  --alive_warps_;
  sm_slots_freed_ = true;
  last_progress_cycle_ = cycle_;
}

void Machine::RecordPublishes(const std::uint64_t* addresses,
                              std::size_t count) {
  std::vector<std::uint64_t>& first = publish_->first_cycle;
  for (std::size_t i = 0; i < count; ++i) {
    if (addresses[i] < publish_->base) continue;
    const std::uint64_t index = (addresses[i] - publish_->base) / 4;
    if (index < first.size() && first[index] == UINT64_MAX) {
      first[index] = cycle_;
    }
  }
}

void Machine::ExecuteInstruction(int warp_index, int sm_index) {
  Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
  if (!warp.stack.empty()) SyncAtReconv(warp);
  CAPELLINI_CHECK(warp.active != 0);
  CAPELLINI_CHECK(warp.pc >= 0 &&
                  warp.pc < static_cast<std::int32_t>(decoded_->code.size()));

  const DecodedInstr& decoded = decoded_->code[static_cast<std::size_t>(warp.pc)];
  const Instr& instr = decoded.instr;
  const std::uint8_t pc_flags = decoded.flags;
  // Debug tracing (CAPELLINI_TRACE=1): one line per issued instruction.
  if (debug_trace_) {
    std::fprintf(stderr,
                 "cyc=%llu warp=%d pc=%d op=%d active=%08x stack=%zu\n",
                 static_cast<unsigned long long>(cycle_), warp_index, warp.pc,
                 static_cast<int>(instr.op), warp.active, warp.stack.size());
  }
  ++stats_.instructions;
  stats_.lane_instructions += static_cast<std::uint64_t>(PopCount(warp.active));

  if (trace_) {
    trace::IssueInfo issue;
    issue.cycle = cycle_;
    issue.sm = sm_index;
    issue.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
    issue.base_tid = warp.base_tid;
    issue.pc = warp.pc;
    issue.active = warp.active;
    issue.divergent = !warp.stack.empty();
    issue.in_spin = (pc_flags & kPcInSpin) != 0;
    issue.spin_head = (pc_flags & kPcSpinHead) != 0;
    trace_->OnIssue(issue);
  }

  std::int32_t next_pc = warp.pc + 1;
  MemTxn mem;  // ready_at == 0 => ready immediately
  bool is_atomic_op = false;

  const std::uint32_t active = warp.active;
  switch (instr.op) {
    case Op::kNop:
      break;
    case Op::kMovI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = instr.imm;
      });
      break;
    case Op::kMov:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b);
      });
      break;
    case Op::kAdd:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) + RegI(warp, lane, instr.c);
      });
      break;
    case Op::kAddI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) + instr.imm;
      });
      break;
    case Op::kSub:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) - RegI(warp, lane, instr.c);
      });
      break;
    case Op::kMul:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) * RegI(warp, lane, instr.c);
      });
      break;
    case Op::kMulI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) * instr.imm;
      });
      break;
    case Op::kAndI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) & instr.imm;
      });
      break;
    case Op::kShlI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) << instr.imm;
      });
      break;
    case Op::kShrI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) = RegI(warp, lane, instr.b) >> instr.imm;
      });
      break;
    case Op::kSetLt:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) < RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetLe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) <= RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetEq:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) == RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetNe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) != RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetGe:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) >= RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetGt:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) > RegI(warp, lane, instr.c) ? 1 : 0;
      });
      break;
    case Op::kSetLtI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) < instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetGeI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) >= instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetEqI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) == instr.imm ? 1 : 0;
      });
      break;
    case Op::kSetNeI:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            RegI(warp, lane, instr.b) != instr.imm ? 1 : 0;
      });
      break;
    case Op::kS2R: {
      const auto special = static_cast<Special>(instr.b);
      ForActive(active, [&](int lane) {
        std::int64_t value = 0;
        switch (special) {
          case Special::kGlobalTid:
            value = warp.base_tid + lane;
            break;
          case Special::kLane:
            value = lane;
            break;
          case Special::kWarpId:
            value = (warp.base_tid + lane) / 32;
            break;
          case Special::kBlockId:
            value = warp.block_id;
            break;
          case Special::kThreadInBlock:
            value = warp.base_tid + lane -
                    warp.block_id * static_cast<std::int64_t>(threads_per_block_);
            break;
          case Special::kGridThreads:
            value = grid_threads_;
            break;
        }
        RegI(warp, lane, instr.a) = value;
      });
      break;
    }
    case Op::kLdParam:
      ForActive(active, [&](int lane) {
        RegI(warp, lane, instr.a) =
            params_[static_cast<std::size_t>(instr.imm)];
      });
      break;
    case Op::kLd4:
    case Op::kLd8I:
    case Op::kLd8F: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.b));
        addresses[count++] = addr;
        if (instr.op == Op::kLd4) {
          RegI(warp, lane, instr.a) = memory_->LoadI32(addr);
        } else if (instr.op == Op::kLd8I) {
          RegI(warp, lane, instr.a) = memory_->LoadI64(addr);
        } else {
          RegF(warp, lane, instr.a) = memory_->LoadF64(addr);
        }
      });
      // Spin-poll fast path: a warp spinning on this load issues the same
      // address set every iteration, so reuse its cached sector list and
      // skip the dedup scan. The accounting (AccountSectors) is identical.
      if ((pc_flags & kPcInSpin) != 0 && warp.poll_pc == warp.pc &&
          warp.poll_mask == active &&
          warp.poll_count == static_cast<std::uint8_t>(count) &&
          std::equal(addresses, addresses + count,
                     warp.poll_addresses.begin())) {
        mem = AccountSectors(warp.poll_sectors.data(), warp.poll_num_sectors,
                             /*is_atomic=*/false);
      } else {
        std::uint64_t sectors[64];
        const std::size_t num_sectors =
            DedupSectors(addresses, count, sector_shift_, sectors);
        mem = AccountSectors(sectors, num_sectors, /*is_atomic=*/false);
        if ((pc_flags & kPcInSpin) != 0) {
          warp.poll_pc = warp.pc;
          warp.poll_mask = active;
          warp.poll_count = static_cast<std::uint8_t>(count);
          warp.poll_num_sectors = static_cast<std::uint8_t>(num_sectors);
          std::copy(addresses, addresses + count,
                    warp.poll_addresses.begin());
          std::copy(sectors, sectors + num_sectors,
                    warp.poll_sectors.begin());
        }
      }
      break;
    }
    case Op::kSt4:
    case Op::kSt8I:
    case Op::kSt8F: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.a));
        addresses[count++] = addr;
        // Dropped publish: the annotated store vanishes before reaching
        // memory. Bandwidth below is still accounted — the transaction
        // happened, the value didn't land — which is how the real hazard
        // manifests (and how the no-progress watchdog later catches it).
        if (faults_ && (pc_flags & kPcPublish) != 0 &&
            faults_->DropPublish(warp.base_tid + lane)) {
          return;
        }
        if (instr.op == Op::kSt4) {
          memory_->StoreI32(addr,
                            static_cast<std::int32_t>(RegI(warp, lane, instr.b)));
        } else if (instr.op == Op::kSt8I) {
          memory_->StoreI64(addr, RegI(warp, lane, instr.b));
        } else {
          double value = RegF(warp, lane, instr.b);
          if (faults_) faults_->MaybeFlipStoreBit(value, warp.base_tid + lane);
          memory_->StoreF64(addr, value);
        }
      });
      // Stores are fire-and-forget: account bandwidth, do not stall.
      (void)AccountMemory(addresses, count, MemoryWidth(instr.op));
      last_progress_cycle_ = cycle_;
      if (publish_ && (pc_flags & kPcPublish) != 0) {
        RecordPublishes(addresses, count);
      }
      if (trace_ && (pc_flags & kPcPublish) != 0) {
        trace::PublishInfo publish;
        publish.cycle = cycle_;
        publish.sm = sm_index;
        publish.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
        for (std::size_t i = 0; i < count; ++i) {
          publish.addr = addresses[i];
          trace_->OnPublish(publish);
        }
      }
      break;
    }
    case Op::kAtomAddF8:
    case Op::kAtomAddI4: {
      std::uint64_t addresses[32];
      std::size_t count = 0;
      // Lanes are serialized by hardware on address conflicts; the simulator
      // applies them in lane order, which is one legal serialization.
      ForActive(active, [&](int lane) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(RegI(warp, lane, instr.b));
        addresses[count++] = addr;
        if (instr.op == Op::kAtomAddF8) {
          const double old = memory_->LoadF64(addr);
          RegF(warp, lane, instr.a) = old;
          memory_->StoreF64(addr, old + RegF(warp, lane, instr.c));
        } else {
          const std::int32_t old = memory_->LoadI32(addr);
          RegI(warp, lane, instr.a) = old;
          memory_->StoreI32(
              addr, old + static_cast<std::int32_t>(RegI(warp, lane, instr.c)));
        }
      });
      mem = AccountMemory(addresses, count, MemoryWidth(instr.op),
                          /*is_atomic=*/true);
      is_atomic_op = true;
      last_progress_cycle_ = cycle_;
      if (trace_) {
        trace_->OnAtomic(cycle_, sm_index,
                         warp_index - sm_index * config_.max_warps_per_sm,
                         mem.transactions);
      }
      break;
    }
    case Op::kFMovI:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) = instr.fimm;
      });
      break;
    case Op::kFMov:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) = RegF(warp, lane, instr.b);
      });
      break;
    case Op::kFAdd:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) + RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFSub:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) - RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFMul:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) * RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFDiv:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) =
            RegF(warp, lane, instr.b) / RegF(warp, lane, instr.c);
      });
      break;
    case Op::kFFma:
      ForActive(active, [&](int lane) {
        RegF(warp, lane, instr.a) +=
            RegF(warp, lane, instr.b) * RegF(warp, lane, instr.c);
      });
      break;
    case Op::kShflDownF: {
      // Read the source values of ALL lanes first (lock-step exchange).
      double source[32];
      for (int lane = 0; lane < 32; ++lane) {
        source[lane] = RegF(warp, lane, instr.b);
      }
      ForActive(active, [&](int lane) {
        const int src_lane = lane + static_cast<int>(instr.imm);
        RegF(warp, lane, instr.a) =
            src_lane < 32 ? source[src_lane] : source[lane];
      });
      break;
    }
    case Op::kBrnz:
    case Op::kBrz: {
      std::uint32_t taken = 0;
      ForActive(active, [&](int lane) {
        const bool nz = RegI(warp, lane, instr.a) != 0;
        const bool takes = (instr.op == Op::kBrnz) ? nz : !nz;
        if (takes) taken |= 1u << lane;
      });
      const std::uint32_t fall = active & ~taken;
      if (taken == 0) {
        // all fall through: next_pc already pc + 1
      } else if (fall == 0) {
        next_pc = static_cast<std::int32_t>(instr.imm);
      } else {
        // Divergence: run the fall-through side first; park the taken side.
        const auto reconv = static_cast<std::int32_t>(instr.imm2);
        const auto target = static_cast<std::int32_t>(instr.imm);
        // Merge with an existing frame when a loop re-diverges to the same
        // (reconv, target): keeps the stack O(nesting), not O(iterations).
        if (!warp.stack.empty() &&
            warp.stack.back().reconv_pc == reconv &&
            warp.stack.back().other_pc == target) {
          warp.stack.back().other_mask |= taken;
        } else {
          warp.stack.push_back(Frame{reconv, target, taken});
        }
        warp.active = fall;
      }
      break;
    }
    case Op::kJmp:
      next_pc = static_cast<std::int32_t>(instr.imm);
      break;
    case Op::kFence:
      // Memory is sequentially consistent in the simulator; the fence is a
      // 1-cycle ordering no-op kept for faithful instruction counts.
      break;
    case Op::kExit:
      warp.active = 0;
      break;
  }

  warp.pc = next_pc;
  UnwindIfEmpty(warp, sm_index);
  if (!warp.alive) {
    FinishWarp(warp_index, sm_index);
    return;
  }

  // Delayed memory response: the completion slips further out. Timing-only —
  // the value was already read at issue (sequential consistency holds).
  if (faults_ && mem.ready_at != 0) {
    mem.ready_at += faults_->ExtraMemDelay(warp.base_tid);
  }

  Sm& sm = sms_[static_cast<std::size_t>(sm_index)];
  if (mem.ready_at > cycle_ + 1) {
    if (trace_) {
      trace::MemStallInfo stall;
      stall.cycle = cycle_;
      stall.ready_at = mem.ready_at;
      stall.sm = sm_index;
      stall.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
      stall.base_tid = warp.base_tid;
      stall.queue_cycles = mem.queue_cycles;
      stall.transactions = mem.transactions;
      stall.dram_misses = mem.misses;
      stall.is_atomic = is_atomic_op;
      stall.in_spin = (pc_flags & kPcInSpin) != 0;
      trace_->OnMemStall(stall);
    }
    WakePush(mem.ready_at, warp_index, sm_index);
  } else {
    sm.ready.push_back(warp_index);
    MarkSmReady(sm_index);
  }
}

// ---------------------------------------------------------------------------
// Threaded-dispatch core.
//
// Each decoded instruction carries handler pointers instead of being switched
// on per step. Batchable (IsStraightLineOp) instructions get two AluFn
// variants — one specialized for a fully converged warp (unconditional 0..31
// loops over the SoA register rows, which GCC/Clang vectorize), one iterating
// the active mask — and the dispatcher executes a whole straight-line run
// through them in one host step. Memory and control-flow ops get a StepFn
// that is a verbatim transcription of the corresponding scalar switch case.
//
// Equivalence argument (gated by tests/interp_equivalence_test): batchable
// ops touch only the issuing warp's registers, so pre-executing a run cannot
// be observed by any other warp or by memory; the saved issue slots are
// re-charged one per pop via Warp::skip, so every warp issues on exactly the
// same cycles, every memory op executes at the same cycle in the same global
// order (same L2/DRAM queue evolution, same values), and the fault hooks
// consume their PRNG streams in the same sequence.
// ---------------------------------------------------------------------------
struct Interp {
  using Warp = Machine::Warp;
  using Ctx = Machine::ExecCtx;
  using DI = Machine::DecodedInstr;
  using MemTxn = Machine::MemTxn;

  // SoA register rows: all 32 lanes of one register, contiguous.
  static std::int64_t* RI(Warp& w, int reg) {
    return w.r.data() + static_cast<std::size_t>(reg) * 32;
  }
  static double* RF(Warp& w, int reg) {
    return w.f.data() + static_cast<std::size_t>(reg) * 32;
  }

  template <bool FULL, typename Fn>
  static inline void Lanes(std::uint32_t mask, Fn&& fn) {
    if constexpr (FULL) {
      for (int lane = 0; lane < 32; ++lane) fn(lane);
    } else {
      while (mask) {
        const int lane = std::countr_zero(mask);
        mask &= mask - 1;
        fn(lane);
      }
    }
  }

  template <Op OP, bool FULL>
  static void Alu(Warp& w, const Instr& in, const Ctx& ctx) {
    (void)ctx;
    const std::uint32_t mask = w.active;
    if constexpr (OP == Op::kNop || OP == Op::kFence) {
      // kFence: memory is sequentially consistent in the simulator; a
      // 1-cycle ordering no-op kept for faithful instruction counts.
      (void)w;
      (void)in;
      (void)mask;
    } else if constexpr (OP == Op::kMovI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = imm; });
    } else if constexpr (OP == Op::kMov) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane]; });
    } else if constexpr (OP == Op::kAdd) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] + c[lane]; });
    } else if constexpr (OP == Op::kAddI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] + imm; });
    } else if constexpr (OP == Op::kSub) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] - c[lane]; });
    } else if constexpr (OP == Op::kMul) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] * c[lane]; });
    } else if constexpr (OP == Op::kMulI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] * imm; });
    } else if constexpr (OP == Op::kAndI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] & imm; });
    } else if constexpr (OP == Op::kShlI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] << imm; });
    } else if constexpr (OP == Op::kShrI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] >> imm; });
    } else if constexpr (OP == Op::kSetLt) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] < c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetLe) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask,
                  [&](int lane) { a[lane] = b[lane] <= c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetEq) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask,
                  [&](int lane) { a[lane] = b[lane] == c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetNe) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask,
                  [&](int lane) { a[lane] = b[lane] != c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetGe) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask,
                  [&](int lane) { a[lane] = b[lane] >= c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetGt) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t* c = RI(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] > c[lane] ? 1 : 0; });
    } else if constexpr (OP == Op::kSetLtI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] < imm ? 1 : 0; });
    } else if constexpr (OP == Op::kSetGeI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] >= imm ? 1 : 0; });
    } else if constexpr (OP == Op::kSetEqI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] == imm ? 1 : 0; });
    } else if constexpr (OP == Op::kSetNeI) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t* b = RI(w, in.b);
      const std::int64_t imm = in.imm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] != imm ? 1 : 0; });
    } else if constexpr (OP == Op::kS2R) {
      std::int64_t* a = RI(w, in.a);
      switch (static_cast<Special>(in.b)) {
        case Special::kGlobalTid:
          Lanes<FULL>(mask, [&](int lane) { a[lane] = w.base_tid + lane; });
          break;
        case Special::kLane:
          Lanes<FULL>(mask, [&](int lane) { a[lane] = lane; });
          break;
        case Special::kWarpId:
          Lanes<FULL>(mask,
                      [&](int lane) { a[lane] = (w.base_tid + lane) / 32; });
          break;
        case Special::kBlockId:
          Lanes<FULL>(mask, [&](int lane) { a[lane] = w.block_id; });
          break;
        case Special::kThreadInBlock:
          Lanes<FULL>(mask, [&](int lane) {
            a[lane] =
                w.base_tid + lane - w.block_id * ctx.threads_per_block;
          });
          break;
        case Special::kGridThreads:
          Lanes<FULL>(mask, [&](int lane) { a[lane] = ctx.grid_threads; });
          break;
      }
    } else if constexpr (OP == Op::kLdParam) {
      std::int64_t* a = RI(w, in.a);
      const std::int64_t value = ctx.params[static_cast<std::size_t>(in.imm)];
      Lanes<FULL>(mask, [&](int lane) { a[lane] = value; });
    } else if constexpr (OP == Op::kFMovI) {
      double* a = RF(w, in.a);
      const double imm = in.fimm;
      Lanes<FULL>(mask, [&](int lane) { a[lane] = imm; });
    } else if constexpr (OP == Op::kFMov) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane]; });
    } else if constexpr (OP == Op::kFAdd) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      const double* c = RF(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] + c[lane]; });
    } else if constexpr (OP == Op::kFSub) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      const double* c = RF(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] - c[lane]; });
    } else if constexpr (OP == Op::kFMul) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      const double* c = RF(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] * c[lane]; });
    } else if constexpr (OP == Op::kFDiv) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      const double* c = RF(w, in.c);
      Lanes<FULL>(mask, [&](int lane) { a[lane] = b[lane] / c[lane]; });
    } else if constexpr (OP == Op::kFFma) {
      double* a = RF(w, in.a);
      const double* b = RF(w, in.b);
      const double* c = RF(w, in.c);
      // Written as x + y*z like the scalar core; with contraction disabled
      // (default -std=c++20 -O3, no -ffast-math) both evaluate the same
      // mul-then-add double rounding.
      Lanes<FULL>(mask, [&](int lane) { a[lane] += b[lane] * c[lane]; });
    } else if constexpr (OP == Op::kShflDownF) {
      // Read the source values of ALL lanes first (lock-step exchange).
      double source[32];
      const double* b = RF(w, in.b);
      for (int lane = 0; lane < 32; ++lane) source[lane] = b[lane];
      double* a = RF(w, in.a);
      const int delta = static_cast<int>(in.imm);
      Lanes<FULL>(mask, [&](int lane) {
        const int src_lane = lane + delta;
        a[lane] = src_lane < 32 ? source[src_lane] : source[lane];
      });
    } else {
      static_assert(OP == Op::kNop, "op is not batchable");
    }
  }

  // Single-step fallback for a batchable op that cannot batch (divergent
  // stack, or a run of length accounted elsewhere): same handlers, one
  // instruction.
  static std::int32_t StepAlu(Machine&, Warp& w, const DI& d, int,
                              MemTxn&, const Ctx& ctx) {
    if (w.active == kFullMask) {
      d.alu_full(w, d.instr, ctx);
    } else {
      d.alu_masked(w, d.instr, ctx);
    }
    return w.pc + 1;
  }

  template <Op OP>
  static std::int32_t StepLoad(Machine& m, Warp& w, const DI& d, int,
                               MemTxn& mem, const Ctx&) {
    const Instr& in = d.instr;
    const std::uint32_t active = w.active;
    std::uint64_t addresses[32];
    std::size_t count = 0;
    const std::int64_t* baddr = RI(w, in.b);
    ForActive(active, [&](int lane) {
      const std::uint64_t addr = static_cast<std::uint64_t>(baddr[lane]);
      addresses[count++] = addr;
      if constexpr (OP == Op::kLd4) {
        RI(w, in.a)[lane] = m.memory_->LoadI32(addr);
      } else if constexpr (OP == Op::kLd8I) {
        RI(w, in.a)[lane] = m.memory_->LoadI64(addr);
      } else {
        RF(w, in.a)[lane] = m.memory_->LoadF64(addr);
      }
    });
    // Spin-poll fast path — same cache, same accounting as the scalar core.
    // A hit's sectors were all touched when the cache was filled, so the
    // L2 bitmap walk is skipped (the scalar oracle keeps it, which is how
    // the equivalence suite checks that the misses are provably 0).
    if ((d.flags & kPcInSpin) != 0 && w.poll_pc == w.pc &&
        w.poll_mask == active &&
        w.poll_count == static_cast<std::uint8_t>(count) &&
        std::equal(addresses, addresses + count, w.poll_addresses.begin())) {
      mem = m.AccountSectors(w.poll_sectors.data(), w.poll_num_sectors,
                             /*is_atomic=*/false, /*all_touched=*/true);
    } else {
      std::uint64_t sectors[64];
      const std::size_t num_sectors =
          Machine::DedupSectors(addresses, count, m.sector_shift_, sectors);
      mem = m.AccountSectors(sectors, num_sectors, /*is_atomic=*/false);
      if ((d.flags & kPcInSpin) != 0) {
        w.poll_pc = w.pc;
        w.poll_mask = active;
        w.poll_count = static_cast<std::uint8_t>(count);
        w.poll_num_sectors = static_cast<std::uint8_t>(num_sectors);
        std::copy(addresses, addresses + count, w.poll_addresses.begin());
        std::copy(sectors, sectors + num_sectors, w.poll_sectors.begin());
      }
    }
    return w.pc + 1;
  }

  template <Op OP>
  static std::int32_t StepStore(Machine& m, Warp& w, const DI& d,
                                int sm_index, MemTxn&, const Ctx&) {
    const Instr& in = d.instr;
    std::uint64_t addresses[32];
    std::size_t count = 0;
    const std::int64_t* aaddr = RI(w, in.a);
    ForActive(w.active, [&](int lane) {
      const std::uint64_t addr = static_cast<std::uint64_t>(aaddr[lane]);
      addresses[count++] = addr;
      // Dropped publish: see the scalar core — bandwidth is accounted, the
      // value does not land.
      if (m.faults_ && (d.flags & kPcPublish) != 0 &&
          m.faults_->DropPublish(w.base_tid + lane)) {
        return;
      }
      if constexpr (OP == Op::kSt4) {
        m.memory_->StoreI32(addr,
                            static_cast<std::int32_t>(RI(w, in.b)[lane]));
      } else if constexpr (OP == Op::kSt8I) {
        m.memory_->StoreI64(addr, RI(w, in.b)[lane]);
      } else {
        double value = RF(w, in.b)[lane];
        if (m.faults_) m.faults_->MaybeFlipStoreBit(value, w.base_tid + lane);
        m.memory_->StoreF64(addr, value);
      }
    });
    // Stores are fire-and-forget: account bandwidth, do not stall.
    (void)m.AccountMemory(addresses, count, MemoryWidth(OP));
    m.last_progress_cycle_ = m.cycle_;
    if (m.publish_ != nullptr && (d.flags & kPcPublish) != 0) {
      m.RecordPublishes(addresses, count);
    }
    if (m.trace_ != nullptr && (d.flags & kPcPublish) != 0) {
      const int warp_index = static_cast<int>(&w - m.warp_pool_.data());
      trace::PublishInfo publish;
      publish.cycle = m.cycle_;
      publish.sm = sm_index;
      publish.warp_slot = warp_index - sm_index * m.config_.max_warps_per_sm;
      for (std::size_t i = 0; i < count; ++i) {
        publish.addr = addresses[i];
        m.trace_->OnPublish(publish);
      }
    }
    return w.pc + 1;
  }

  template <Op OP>
  static std::int32_t StepAtomic(Machine& m, Warp& w, const DI& d,
                                 int sm_index, MemTxn& mem, const Ctx&) {
    const Instr& in = d.instr;
    std::uint64_t addresses[32];
    std::size_t count = 0;
    const std::int64_t* baddr = RI(w, in.b);
    // Lane-order serialization, as in the scalar core.
    ForActive(w.active, [&](int lane) {
      const std::uint64_t addr = static_cast<std::uint64_t>(baddr[lane]);
      addresses[count++] = addr;
      if constexpr (OP == Op::kAtomAddF8) {
        const double old = m.memory_->LoadF64(addr);
        RF(w, in.a)[lane] = old;
        m.memory_->StoreF64(addr, old + RF(w, in.c)[lane]);
      } else {
        const std::int32_t old = m.memory_->LoadI32(addr);
        RI(w, in.a)[lane] = old;
        m.memory_->StoreI32(
            addr, old + static_cast<std::int32_t>(RI(w, in.c)[lane]));
      }
    });
    mem = m.AccountMemory(addresses, count, MemoryWidth(OP),
                          /*is_atomic=*/true);
    m.last_progress_cycle_ = m.cycle_;
    if (m.trace_ != nullptr) {
      const int warp_index = static_cast<int>(&w - m.warp_pool_.data());
      m.trace_->OnAtomic(m.cycle_, sm_index,
                         warp_index - sm_index * m.config_.max_warps_per_sm,
                         mem.transactions);
    }
    return w.pc + 1;
  }

  template <Op OP>
  static std::int32_t StepBranch(Machine&, Warp& w, const DI& d, int,
                                 MemTxn&, const Ctx&) {
    const Instr& in = d.instr;
    const std::uint32_t active = w.active;
    std::uint32_t taken = 0;
    const std::int64_t* pred = RI(w, in.a);
    ForActive(active, [&](int lane) {
      const bool nz = pred[lane] != 0;
      const bool takes = (OP == Op::kBrnz) ? nz : !nz;
      if (takes) taken |= 1u << lane;
    });
    const std::uint32_t fall = active & ~taken;
    if (taken == 0) return w.pc + 1;
    if (fall == 0) return static_cast<std::int32_t>(in.imm);
    // Divergence: run the fall-through side first; park the taken side,
    // merging with an existing frame when a loop re-diverges to the same
    // (reconv, target).
    const auto reconv = static_cast<std::int32_t>(in.imm2);
    const auto target = static_cast<std::int32_t>(in.imm);
    if (!w.stack.empty() && w.stack.back().reconv_pc == reconv &&
        w.stack.back().other_pc == target) {
      w.stack.back().other_mask |= taken;
    } else {
      w.stack.push_back(Machine::Frame{reconv, target, taken});
    }
    w.active = fall;
    return w.pc + 1;
  }

  static std::int32_t StepJmp(Machine&, Warp&, const DI& d, int, MemTxn&,
                              const Ctx&) {
    return static_cast<std::int32_t>(d.instr.imm);
  }

  static std::int32_t StepExit(Machine&, Warp& w, const DI&, int, MemTxn&,
                               const Ctx&) {
    w.active = 0;
    return w.pc + 1;
  }

  // Fills the handler pointers for one decoded instruction.
  static void Assign(Machine::DecodedInstr& d) {
#define CAPELLINI_ALU_HANDLER(OPNAME)            \
  case Op::OPNAME:                               \
    d.alu_full = &Alu<Op::OPNAME, true>;         \
    d.alu_masked = &Alu<Op::OPNAME, false>;      \
    d.step = &StepAlu;                           \
    break;
    switch (d.instr.op) {
      CAPELLINI_ALU_HANDLER(kNop)
      CAPELLINI_ALU_HANDLER(kMovI)
      CAPELLINI_ALU_HANDLER(kMov)
      CAPELLINI_ALU_HANDLER(kAdd)
      CAPELLINI_ALU_HANDLER(kAddI)
      CAPELLINI_ALU_HANDLER(kSub)
      CAPELLINI_ALU_HANDLER(kMul)
      CAPELLINI_ALU_HANDLER(kMulI)
      CAPELLINI_ALU_HANDLER(kAndI)
      CAPELLINI_ALU_HANDLER(kShlI)
      CAPELLINI_ALU_HANDLER(kShrI)
      CAPELLINI_ALU_HANDLER(kSetLt)
      CAPELLINI_ALU_HANDLER(kSetLe)
      CAPELLINI_ALU_HANDLER(kSetEq)
      CAPELLINI_ALU_HANDLER(kSetNe)
      CAPELLINI_ALU_HANDLER(kSetGe)
      CAPELLINI_ALU_HANDLER(kSetGt)
      CAPELLINI_ALU_HANDLER(kSetLtI)
      CAPELLINI_ALU_HANDLER(kSetGeI)
      CAPELLINI_ALU_HANDLER(kSetEqI)
      CAPELLINI_ALU_HANDLER(kSetNeI)
      CAPELLINI_ALU_HANDLER(kS2R)
      CAPELLINI_ALU_HANDLER(kLdParam)
      CAPELLINI_ALU_HANDLER(kFMovI)
      CAPELLINI_ALU_HANDLER(kFMov)
      CAPELLINI_ALU_HANDLER(kFAdd)
      CAPELLINI_ALU_HANDLER(kFSub)
      CAPELLINI_ALU_HANDLER(kFMul)
      CAPELLINI_ALU_HANDLER(kFDiv)
      CAPELLINI_ALU_HANDLER(kFFma)
      CAPELLINI_ALU_HANDLER(kShflDownF)
      CAPELLINI_ALU_HANDLER(kFence)
      case Op::kLd4:
        d.step = &StepLoad<Op::kLd4>;
        break;
      case Op::kLd8I:
        d.step = &StepLoad<Op::kLd8I>;
        break;
      case Op::kLd8F:
        d.step = &StepLoad<Op::kLd8F>;
        break;
      case Op::kSt4:
        d.step = &StepStore<Op::kSt4>;
        break;
      case Op::kSt8I:
        d.step = &StepStore<Op::kSt8I>;
        break;
      case Op::kSt8F:
        d.step = &StepStore<Op::kSt8F>;
        break;
      case Op::kAtomAddF8:
        d.step = &StepAtomic<Op::kAtomAddF8>;
        break;
      case Op::kAtomAddI4:
        d.step = &StepAtomic<Op::kAtomAddI4>;
        break;
      case Op::kBrnz:
        d.step = &StepBranch<Op::kBrnz>;
        break;
      case Op::kBrz:
        d.step = &StepBranch<Op::kBrz>;
        break;
      case Op::kJmp:
        d.step = &StepJmp;
        break;
      case Op::kExit:
        d.step = &StepExit;
        break;
    }
#undef CAPELLINI_ALU_HANDLER
  }
};

void Machine::ExecuteThreaded(int warp_index, int sm_index) {
  Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
  if (!warp.stack.empty()) SyncAtReconv(warp);
  CAPELLINI_CHECK(warp.active != 0);
  CAPELLINI_CHECK(warp.pc >= 0 &&
                  warp.pc < static_cast<std::int32_t>(decoded_->code.size()));

  const DecodedInstr* code = decoded_->code.data();
  const DecodedInstr& head = code[static_cast<std::size_t>(warp.pc)];
  const ExecCtx ctx{params_.data(), grid_threads_, threads_per_block_};

  // Per-issue observers — an attached TraceSink or the CAPELLINI_TRACE=1
  // dump — want a hook on every instruction, so run fusion is disabled while
  // one is attached: each instruction of a run becomes its own dispatch at
  // what would have been the fused-run boundary. Fusion is schedule-neutral
  // by construction (the skip credit charges exactly the slots the unfused
  // issues would have), so disabling it changes neither the cycle count nor
  // any counter — the "a sink never affects timing" contract holds.
  const bool hooked = trace_ != nullptr || debug_trace_;

  if (head.run != 0 && warp.stack.empty() && !hooked) {
    // Fused straight-line run: execute every batchable instruction from
    // here in one dispatch over the SoA register rows (no re-entry into the
    // dispatch loop between them), then charge the n-1 remaining issue
    // slots through Warp::skip. With an empty stack no instruction in the
    // run can touch the reconvergence machinery, memory, or control flow,
    // so nothing outside this warp's register file can observe the batch.
    const int n = head.run;
    stats_.instructions += static_cast<std::uint64_t>(n);
    stats_.lane_instructions += static_cast<std::uint64_t>(n) *
                                static_cast<std::uint64_t>(PopCount(warp.active));
    const DecodedInstr* d = &head;
    if (warp.active == kFullMask) {
      for (int i = 0; i < n; ++i) {
        d[i].alu_full(warp, d[i].instr, ctx);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        d[i].alu_masked(warp, d[i].instr, ctx);
      }
    }
    warp.pc += n;
    warp.skip = static_cast<std::uint16_t>(n - 1);
    sms_[static_cast<std::size_t>(sm_index)].ready.push_back(warp_index);
    MarkSmReady(sm_index);
    return;
  }

  // Debug tracing (CAPELLINI_TRACE=1): same line format as the scalar core.
  if (debug_trace_) {
    std::fprintf(stderr,
                 "cyc=%llu warp=%d pc=%d op=%d active=%08x stack=%zu\n",
                 static_cast<unsigned long long>(cycle_), warp_index, warp.pc,
                 static_cast<int>(head.instr.op), warp.active,
                 warp.stack.size());
  }
  ++stats_.instructions;
  stats_.lane_instructions += static_cast<std::uint64_t>(PopCount(warp.active));

  if (trace_) {
    trace::IssueInfo issue;
    issue.cycle = cycle_;
    issue.sm = sm_index;
    issue.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
    issue.base_tid = warp.base_tid;
    issue.pc = warp.pc;
    issue.active = warp.active;
    issue.divergent = !warp.stack.empty();
    issue.in_spin = (head.flags & kPcInSpin) != 0;
    issue.spin_head = (head.flags & kPcSpinHead) != 0;
    trace_->OnIssue(issue);
  }

  MemTxn mem;  // ready_at == 0 => ready immediately
  warp.pc = head.step(*this, warp, head, sm_index, mem, ctx);
  UnwindIfEmpty(warp, sm_index);
  if (!warp.alive) {
    FinishWarp(warp_index, sm_index);
    return;
  }

  // Delayed memory response: timing-only, as in the scalar core.
  if (faults_ && mem.ready_at != 0) {
    mem.ready_at += faults_->ExtraMemDelay(warp.base_tid);
  }
  if (mem.ready_at > cycle_ + 1) {
    if (trace_) {
      trace::MemStallInfo stall;
      stall.cycle = cycle_;
      stall.ready_at = mem.ready_at;
      stall.sm = sm_index;
      stall.warp_slot = warp_index - sm_index * config_.max_warps_per_sm;
      stall.base_tid = warp.base_tid;
      stall.queue_cycles = mem.queue_cycles;
      stall.transactions = mem.transactions;
      stall.dram_misses = mem.misses;
      stall.is_atomic = head.instr.op == Op::kAtomAddF8 ||
                        head.instr.op == Op::kAtomAddI4;
      stall.in_spin = (head.flags & kPcInSpin) != 0;
      trace_->OnMemStall(stall);
    }
    WakePush(mem.ready_at, warp_index, sm_index);
  } else {
    sms_[static_cast<std::size_t>(sm_index)].ready.push_back(warp_index);
    MarkSmReady(sm_index);
  }
}

const Machine::DecodedKernel* Machine::DecodeKernel(const Kernel& kernel) {
  const std::uint64_t fingerprint = kernel.Fingerprint();
  for (auto& entry : decode_cache_) {
    if (entry.first != &kernel) continue;
    // Same pointer, changed content (rebuilt or mutated kernel): rebuild the
    // stream, exactly as the old per-launch predecode would have.
    if (entry.second->fingerprint != fingerprint) {
      BuildDecoded(kernel, fingerprint, *entry.second);
    }
    return entry.second.get();
  }
  // Bound the cache: kernels are few (one per algorithm variant), so this
  // trips only for pathological churn; clearing is always safe because
  // decoded_ is re-looked-up at every Launch.
  if (decode_cache_.size() >= 64) decode_cache_.clear();
  decode_cache_.emplace_back(&kernel, std::make_unique<DecodedKernel>());
  BuildDecoded(kernel, fingerprint, *decode_cache_.back().second);
  return decode_cache_.back().second.get();
}

void Machine::BuildDecoded(const Kernel& kernel, std::uint64_t fingerprint,
                           DecodedKernel& out) {
  out.fingerprint = fingerprint;
  const std::size_t n = kernel.code.size();
  out.code.assign(n, DecodedInstr{});
  for (std::size_t pc = 0; pc < n; ++pc) {
    out.code[pc].instr = kernel.code[pc];
    Interp::Assign(out.code[pc]);
  }
  for (const auto& [begin, end] : kernel.spin_regions) {
    for (std::int32_t pc = begin; pc < end; ++pc) {
      out.code[static_cast<std::size_t>(pc)].flags |= kPcInSpin;
    }
    out.code[static_cast<std::size_t>(begin)].flags |= kPcSpinHead;
  }
  for (const std::int32_t pc : kernel.publish_pcs) {
    out.code[static_cast<std::size_t>(pc)].flags |= kPcPublish;
  }
  const std::vector<std::uint16_t> runs = StraightLineRuns(kernel.code);
  for (std::size_t pc = 0; pc < n; ++pc) out.code[pc].run = runs[pc];
  out.written_int = 0;
  out.written_flt = 0;
  for (const Instr& instr : kernel.code) {
    const int file = WrittenFile(instr.op);
    if (file == 1) out.written_int |= 1u << instr.a;
    if (file == 2) out.written_flt |= 1u << instr.a;
  }
}

// ---------------------------------------------------------------------------
// No-progress fast-forward.
//
// A launch that has made no progress (no store, atomic, warp finish, block
// dispatch or arrival) has frozen memory, so everything that decides its
// future is the Snapshot state: registers and control state of the alive
// warps, the issue queues, the wake entries and the L2/DRAM busy-until
// values relative to cycle_ (plus the L2 bitmap, unchanged while no sector
// is touched for the first time). If that state at cycle c2 equals the state
// at an earlier loop top c1, the launch repeats the stretch [c1, c2) with
// period P = c2 - c1 — every step is a function of the state alone, with one
// exception: the busy-until doubles round. Inside one binade [2^b, 2^(b+1))
// (b < 52) every integer is a multiple of the ulp with an even quotient, so
// adding a shift S to a busy-until value and to every later sum rounds to
// exactly the shifted result, and floor/max commute with the shift; the jump
// therefore never leaves the anchor's binade. The counters advance by k times
// the per-period delta. The jump stops at least one period short of every
// event the period cannot see: the watchdog trip, max_cycles, the next
// external store and the binade's end, after which the period is detected
// again. The dump and counters are those of the cycle-by-cycle run.
// ---------------------------------------------------------------------------
namespace {

// No-progress cycles before the probe starts looking for a period: far below
// any real watchdog, and past the tail of the last progress's memory traffic.
constexpr std::uint64_t kFastForwardAfter = 4096;
// Brent-style anchor windows (in cycles): re-anchor and double when no match
// turned up within the window; give up until progress past the cap.
constexpr std::uint64_t kFirstWindow = 64;
constexpr std::uint64_t kMaxWindow = 1u << 16;

// A busy-until value relative to `cycle`, clamped at 0: an idle queue's
// exact value never matters again, since cycle_ only grows.
double BusyOffset(double busy_until, std::uint64_t cycle) {
  const double now = static_cast<double>(cycle);
  return busy_until > now ? busy_until - now : 0.0;
}

}  // namespace

template <typename Emit>
bool Machine::VisitControl(Emit&& emit) const {
  for (const Warp& warp : warp_pool_) {
    if (!warp.alive) continue;
    if (!emit(warp.pc) || !emit(warp.skip) || !emit(warp.active) ||
        !emit(static_cast<std::int64_t>(warp.stack.size()))) {
      return false;
    }
    for (const Frame& frame : warp.stack) {
      if (!emit(frame.reconv_pc) || !emit(frame.other_pc) ||
          !emit(frame.other_mask)) {
        return false;
      }
    }
  }
  for (const Sm& sm : sms_) {
    const std::uint32_t size = sm.ready.size();
    if (!emit(size)) return false;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (!emit(sm.ready[i])) return false;
    }
  }
  return true;
}

void Machine::CaptureWake(std::vector<WakeEntry>& wake) const {
  // At a loop top every wheel entry lies in [cycle_, cycle_ + kWakeWheel).
  wake.clear();
  for (std::size_t word = 0; word < wake_wheel_bits_.size(); ++word) {
    std::uint64_t bits = wake_wheel_bits_[word];
    while (bits != 0) {
      const std::uint64_t b =
          (static_cast<std::uint64_t>(word) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::uint64_t offset = (b - cycle_) & (kWakeWheel - 1);
      for (const auto& [warp, sm] : wake_wheel_[b]) {
        wake.emplace_back(offset, warp, sm);
      }
    }
  }
  for (auto far = wake_far_; !far.empty(); far.pop()) {
    const auto& [ready_at, warp, sm] = far.top();
    wake.emplace_back(ready_at - cycle_, warp, sm);
  }
  std::sort(wake.begin(), wake.end());
}

void Machine::CaptureAnchor(bool with_regs) {
  Snapshot& s = ff_anchor_;
  s.with_regs = with_regs;
  s.cycle = cycle_;
  s.last_progress = last_progress_cycle_;
  s.dram_bytes = stats_.dram_bytes;
  s.l2_offset = BusyOffset(l2_busy_until_, cycle_);
  s.dram_offset = BusyOffset(dram_busy_until_, cycle_);
  s.slots_freed = sm_slots_freed_;
  s.stats = stats_;
  s.ready_mask = ready_sm_mask_;
  s.control.clear();
  VisitControl([&](std::int64_t v) {
    s.control.push_back(v);
    return true;
  });
  CaptureWake(s.wake);
  s.regs.clear();
  if (with_regs) {
    std::size_t values = 0;
    VisitLiveRegs([&](std::uint64_t) {
      ++values;
      return true;
    });
    s.regs.reserve(values);
    VisitLiveRegs([&](std::uint64_t bits) {
      s.regs.push_back(bits);
      return true;
    });
  }
  ff_anchored_ = true;
}

template <typename Emit>
bool Machine::VisitLiveRegs(Emit&& emit) const {
  // A register row no instruction of the kernel writes keeps its launch-
  // start value, and a lane in neither the active mask nor a parked frame
  // has exited for good: only the live lanes of written rows can change.
  for (const Warp& warp : warp_pool_) {
    if (!warp.alive) continue;
    std::uint32_t live = warp.active;
    for (const Frame& frame : warp.stack) live |= frame.other_mask;
    const auto rows = [&](const auto* file, std::uint32_t written) {
      for (; written != 0; written &= written - 1) {
        const auto* row = file + 32 * std::countr_zero(written);
        for (std::uint32_t m = live; m != 0; m &= m - 1) {
          if (!emit(std::bit_cast<std::uint64_t>(row[std::countr_zero(m)]))) {
            return false;
          }
        }
      }
      return true;
    };
    if (!rows(warp.r.data(), decoded_->written_int) ||
        !rows(warp.f.data(), decoded_->written_flt)) {
      return false;
    }
  }
  return true;
}

bool Machine::MatchesAnchor() {
  const Snapshot& a = ff_anchor_;
  // Cheapest tests first, then the control state in place: most loop tops
  // of a spin differ in a busy offset or in the first warp's pc.
  if (last_progress_cycle_ != a.last_progress ||
      stats_.dram_bytes != a.dram_bytes || sm_slots_freed_ != a.slots_freed ||
      BusyOffset(l2_busy_until_, cycle_) != a.l2_offset ||
      BusyOffset(dram_busy_until_, cycle_) != a.dram_offset ||
      wake_wheel_count_ + wake_far_.size() != a.wake.size() ||
      ready_sm_mask_ != a.ready_mask) {
    return false;
  }
  std::size_t at = 0;
  if (!VisitControl([&](std::int64_t v) {
        return at < a.control.size() && a.control[at++] == v;
      }) ||
      at != a.control.size()) {
    return false;
  }
  CaptureWake(ff_wake_);
  if (ff_wake_ != a.wake) return false;
  if (!a.with_regs) return true;
  // Registers bit for bit (the alive set is the anchor's: no warp finished).
  std::size_t reg = 0;
  return VisitLiveRegs([&](std::uint64_t bits) {
           return reg < a.regs.size() && a.regs[reg++] == bits;
         }) &&
         reg == a.regs.size();
}

bool Machine::ProbePeriod(std::uint64_t limit) {
  if (ff_progress_ != last_progress_cycle_) {
    ff_progress_ = last_progress_cycle_;
    ff_anchored_ = false;
    ff_window_ = kFirstWindow;
    ff_resume_ = 0;
  }
  if (cycle_ < ff_resume_) return false;
  if (!ff_anchored_) {
    CaptureAnchor(/*with_regs=*/false);
    return false;
  }
  const std::uint64_t period = cycle_ - ff_anchor_.cycle;
  if (MatchesAnchor()) {
    if (ff_anchor_.with_regs) return FastForward(period, limit);
    // The state without registers repeats. Only now copy the registers (a
    // working launch rarely gets this far, so it never pays for the copy),
    // and confirm the whole state one period on.
    ff_period_ = period;
    CaptureAnchor(/*with_regs=*/true);
    return false;
  }
  const bool give_up = ff_anchor_.with_regs ? period >= ff_period_
                                            : period >= kMaxWindow;
  if (give_up) {
    ff_anchored_ = false;
    ff_resume_ = std::numeric_limits<std::uint64_t>::max();
  } else if (!ff_anchor_.with_regs && period >= ff_window_) {
    ff_window_ *= 2;
    CaptureAnchor(/*with_regs=*/false);
  }
  return false;
}

bool Machine::FastForward(std::uint64_t period, std::uint64_t limit) {
  ff_anchored_ = false;
  ff_window_ = kFirstWindow;
  const int binade = std::bit_width(ff_anchor_.cycle) - 1;
  if (binade >= 52) {
    ff_resume_ = std::numeric_limits<std::uint64_t>::max();
    return false;
  }
  // Every cycle and busy-until value up to the landing point stays below the
  // anchor's binade end: busy-until values never exceed cycle_ + reach.
  const std::uint64_t binade_end = 1ull << (binade + 1);
  const std::uint64_t reach =
      static_cast<std::uint64_t>(std::ceil(
          std::max(BusyOffset(l2_busy_until_, cycle_),
                   BusyOffset(dram_busy_until_, cycle_)))) +
      1;
  const std::uint64_t binade_limit =
      binade_end > reach ? binade_end - reach : 0;
  const std::uint64_t bound = std::min(limit, binade_limit);
  // After the landing point comes the next binade's period (resume at its
  // start) or nothing to gain before the next progress.
  ff_resume_ = binade_limit < limit
                   ? binade_end
                   : std::numeric_limits<std::uint64_t>::max();
  // Land on cycle_ + k * period with at least one period left before bound.
  if (bound < cycle_ + 2 * period) return false;
  const std::uint64_t k = (bound - cycle_) / period - 1;
  const std::uint64_t shift = k * period;

  const double now = static_cast<double>(cycle_);
  if (l2_busy_until_ > now) l2_busy_until_ += static_cast<double>(shift);
  if (dram_busy_until_ > now) dram_busy_until_ += static_cast<double>(shift);
  cycle_ += shift;
  // ff_wake_ holds the entries relative to the pre-jump cycle.
  WakeReset();
  for (const auto& [offset, warp, sm] : ff_wake_) {
    WakePush(cycle_ + offset, warp, sm);
  }
  const LaunchStats& before = ff_anchor_.stats;
  for (auto field : {&LaunchStats::instructions, &LaunchStats::lane_instructions,
                     &LaunchStats::dram_bytes, &LaunchStats::dram_transactions,
                     &LaunchStats::issue_slots, &LaunchStats::issue_used,
                     &LaunchStats::stall_slots}) {
    stats_.*field += k * (stats_.*field - before.*field);
  }
  ff_skipped_ += shift;
  return true;
}

Expected<LaunchStats> Machine::Launch(const Kernel& kernel, LaunchDims dims,
                                      std::span<const std::int64_t> params) {
  if (dims.num_threads <= 0) {
    return InvalidArgument("launch with no threads");
  }
  if (static_cast<int>(params.size()) != kernel.num_params) {
    return InvalidArgument("kernel " + kernel.name + " expects " +
                           std::to_string(kernel.num_params) + " params, got " +
                           std::to_string(params.size()));
  }
  if (dims.threads_per_block <= 0 || dims.threads_per_block % 32 != 0) {
    return InvalidArgument("threads_per_block must be a positive multiple of 32");
  }
  if (dims.threads_per_block / 32 > config_.max_warps_per_sm) {
    return InvalidArgument(
        "threads_per_block exceeds the SM's resident-warp capacity (" +
        std::to_string(config_.max_warps_per_sm * 32) + " threads)");
  }

  kernel_ = &kernel;
  params_.assign(params.begin(), params.end());
  grid_threads_ = dims.num_threads;
  threads_per_block_ = dims.threads_per_block;
  stats_ = LaunchStats{};
  stats_.launches = 1;
  cycle_ = 0;
  dram_busy_until_ = 0.0;
  l2_busy_until_ = 0.0;
  last_progress_cycle_ = 0;
  alive_warps_ = 0;
  sm_slots_freed_ = false;
  WakeReset();
  // Peer-device arrivals are applied in cycle order; they are consumed by
  // this launch only (cleared on every exit path below).
  std::sort(ext_.begin(), ext_.end(),
            [](const ExternalStore& a, const ExternalStore& b) {
              return a.cycle < b.cycle;
            });
  ext_next_ = 0;
  struct ExtClear {
    Machine* machine;
    ~ExtClear() {
      machine->ext_.clear();
      machine->ext_next_ = 0;
    }
  } ext_clear{this};
  // Lazy bitmap reset: only the words the previous launch touched are
  // nonzero, so re-launch cost is O(touched), not O(address space).
  for (const std::size_t word : l2_touched_words_) l2_sectors_[word] = 0;
  l2_touched_words_.clear();

  // Decoded handler stream: cached across launches, keyed by kernel pointer
  // and validated by content fingerprint (see DecodeKernel).
  decoded_ = DecodeKernel(kernel);

  // Core selection: the threaded dispatcher is the only production core.
  // An attached TraceSink (or the CAPELLINI_TRACE=1 debug dump) disables run
  // fusion inside it so every instruction gets its per-issue hook (see
  // ExecuteThreaded). The legacy scalar switch survives solely as the
  // equivalence oracle behind the test-only hook below
  // (interp_equivalence_test, bench_interp's identity gate).
  const bool use_threaded =
      !scalar_core_for_test_.load(std::memory_order_relaxed);
  // The no-progress fast-forward stands down where the spin itself is the
  // observable: per-issue hooks (a sink, CAPELLINI_TRACE), the scalar oracle
  // (the equivalence suite compares against the exact path), and injected
  // faults that consume a decision per issue or per load.
  const bool fast_forward =
      use_threaded && trace_ == nullptr && !debug_trace_ &&
      (faults_ == nullptr || (faults_->plan().stuck_warp_rate <= 0.0 &&
                              faults_->plan().mem_delay_rate <= 0.0));
  ff_anchored_ = false;
  ff_progress_ = std::numeric_limits<std::uint64_t>::max();
  ff_skipped_ = 0;

  ++launch_index_;
  if (trace_) {
    trace::LaunchInfo info;
    info.launch_index = launch_index_;
    info.kernel_name = kernel.name.c_str();
    info.num_threads = dims.num_threads;
    info.threads_per_block = dims.threads_per_block;
    info.params = params_.data();
    info.num_params = static_cast<int>(params_.size());
    trace_->OnLaunchBegin(info);
  }

  const int warps_per_block = dims.threads_per_block / 32;
  const std::int64_t num_blocks =
      (dims.num_threads + dims.threads_per_block - 1) / dims.threads_per_block;

  // Warp pool & SM slots (allocations reused across launches when the device
  // dims are unchanged; the per-SM loop below resets all mutable state).
  const int pool_per_sm = config_.max_warps_per_sm;
  const std::size_t pool_size =
      static_cast<std::size_t>(config_.num_sms) *
      static_cast<std::size_t>(pool_per_sm);
  if (warp_pool_.size() != pool_size) {
    warp_pool_.assign(pool_size, Warp{});
    for (Warp& warp : warp_pool_) {
      warp.r.assign(32 * kNumIntRegs, 0);
      warp.f.assign(32 * kNumFltRegs, 0.0);
    }
  }
  if (sms_.size() != static_cast<std::size_t>(config_.num_sms)) {
    sms_.resize(static_cast<std::size_t>(config_.num_sms));
  }
  for (int s = 0; s < config_.num_sms; ++s) {
    Sm& sm = sms_[static_cast<std::size_t>(s)];
    sm.free_slots.clear();
    for (int k = pool_per_sm - 1; k >= 0; --k) {
      sm.free_slots.push_back(s * pool_per_sm + k);
    }
    sm.ready.Reset(pool_per_sm);
    sm.resident = 0;
  }
  ready_sm_mask_.assign(
      (static_cast<std::size_t>(config_.num_sms) + 63) / 64, 0);
  resident_sm_count_ = 0;

  std::int64_t next_block = 0;
  int dispatch_sm = 0;

  // Assigns queued blocks, in block order, to SMs with enough free slots.
  auto dispatch = [&] {
    int sms_tried = 0;
    while (next_block < num_blocks && sms_tried < config_.num_sms) {
      Sm& sm = sms_[static_cast<std::size_t>(dispatch_sm)];
      if (static_cast<int>(sm.free_slots.size()) < warps_per_block) {
        dispatch_sm = (dispatch_sm + 1) % config_.num_sms;
        ++sms_tried;
        continue;
      }
      const std::int64_t block = next_block++;
      if (trace_) trace_->OnBlockDispatch(cycle_, block, dispatch_sm);
      const std::int64_t block_first_tid =
          block * static_cast<std::int64_t>(dims.threads_per_block);
      for (int w = 0; w < warps_per_block; ++w) {
        const std::int64_t base_tid = block_first_tid + 32ll * w;
        if (base_tid >= dims.num_threads) break;
        const int warp_index = sm.free_slots.back();
        sm.free_slots.pop_back();
        Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
        warp.pc = 0;
        warp.base_tid = base_tid;
        warp.block_id = block;
        warp.stack.clear();
        warp.skip = 0;
        warp.poll_pc = -1;
        const std::int64_t lanes_left = dims.num_threads - base_tid;
        warp.active = lanes_left >= 32
                          ? kFullMask
                          : (1u << lanes_left) - 1u;
        warp.alive = true;
        sm.ready.push_back(warp_index);
        MarkSmReady(dispatch_sm);
        if (sm.resident == 0) ++resident_sm_count_;
        ++sm.resident;
        ++alive_warps_;
        if (trace_) {
          trace_->OnWarpStart(
              cycle_, dispatch_sm,
              warp_index - dispatch_sm * config_.max_warps_per_sm, block,
              base_tid);
        }
      }
      last_progress_cycle_ = cycle_;
      dispatch_sm = (dispatch_sm + 1) % config_.num_sms;
      sms_tried = 0;  // made progress; rescan
    }
  };

  dispatch();

  while (alive_warps_ > 0 || next_block < num_blocks) {
    // Apply peer-device stores whose arrival cycle has been reached. Applied
    // before any warp issues this cycle, so a poll load at cycle >= arrival
    // observes the flag — the same ordering an on-device producer gives. Each
    // application is forward progress: a consumer legitimately spinning on a
    // remote flag is not a deadlock.
    while (ext_next_ < ext_.size() && ext_[ext_next_].cycle <= cycle_) {
      const ExternalStore& store = ext_[ext_next_++];
      if (store.f64_addr != 0) {
        memory_->StoreF64(store.f64_addr, store.f64_value);
      }
      if (store.i32_addr != 0) {
        memory_->StoreI32(store.i32_addr, store.i32_value);
      }
      last_progress_cycle_ = cycle_;
    }
    if (cycle_ > config_.max_cycles) {
      const std::string dump = "kernel " + kernel.name + " exceeded " +
                               std::to_string(config_.max_cycles) + " cycles";
      if (trace_) {
        trace_->OnDeadlock(cycle_, dump);
        trace_->OnLaunchEnd(cycle_ + config_.launch_overhead_cycles);
      }
      return DeadlockError(dump);
    }
    if (ext_next_ >= ext_.size() &&
        cycle_ - last_progress_cycle_ > config_.no_progress_cycles) {
      // Diagnose: where are the surviving warps parked? A busy-wait deadlock
      // shows up as most warps clustered at the spin loop's PCs.
      std::vector<int> pc_histogram(kernel.code.size(), 0);
      int alive = 0;
      for (const Warp& warp : warp_pool_) {
        if (!warp.alive) continue;
        ++alive;
        // Architectural PC: a warp mid-drain of a pre-executed run (threaded
        // core) has advanced pc past instructions whose issue slots are
        // still being charged; skip is 0 on the scalar core.
        ++pc_histogram[static_cast<std::size_t>(warp.pc - warp.skip)];
      }
      std::string hot_pcs;
      int listed = 0;
      for (std::size_t pc = 0; pc < pc_histogram.size(); ++pc) {
        if (pc_histogram[pc] == 0) continue;
        if (listed++ >= 4) break;
        if (!hot_pcs.empty()) hot_pcs += ", ";
        hot_pcs += "pc " + std::to_string(pc) + " x" +
                   std::to_string(pc_histogram[pc]);
      }
      const std::string dump =
          "kernel " + kernel.name +
          " made no forward progress (intra-warp busy-wait deadlock?) at cycle " +
          std::to_string(cycle_) + "; " + std::to_string(alive) +
          " warps alive (" + hot_pcs + ")";
      if (trace_) {
        trace_->OnDeadlock(cycle_, dump);
        trace_->OnLaunchEnd(cycle_ + config_.launch_overhead_cycles);
      }
      return DeadlockError(dump);
    }
    if (fast_forward && cycle_ - last_progress_cycle_ >= kFastForwardAfter) {
      // The first event a period cannot foresee: the next arrival (the
      // watchdog waits for it), else the watchdog trip; and max_cycles.
      const std::uint64_t next_event =
          ext_next_ < ext_.size()
              ? ext_[ext_next_].cycle
              : last_progress_cycle_ +
                    std::min(config_.no_progress_cycles,
                             std::numeric_limits<std::uint64_t>::max() -
                                 last_progress_cycle_);
      // A jump lands on a loop top of the cycle-by-cycle run: re-check it.
      if (ProbePeriod(std::min(next_event, config_.max_cycles))) continue;
    }

    // Far-parked warps whose wake time entered the wheel horizon.
    while (!wake_far_.empty() &&
           std::get<0>(wake_far_.top()) < cycle_ + kWakeWheel) {
      const WakeEntry entry = wake_far_.top();
      wake_far_.pop();
      const std::uint64_t b = std::get<0>(entry) & (kWakeWheel - 1);
      wake_wheel_[b].emplace_back(std::get<1>(entry), std::get<2>(entry));
      wake_wheel_bits_[b >> 6] |= 1ull << (b & 63);
      ++wake_wheel_count_;
    }
    // Wake memory-stalled warps whose loads completed. Exactly one bucket
    // can hold entries at time <= cycle_ (see wake_wheel_ invariants).
    {
      const std::uint64_t b = cycle_ & (kWakeWheel - 1);
      if ((wake_wheel_bits_[b >> 6] >> (b & 63)) & 1ull) {
        std::vector<std::pair<int, int>>& bucket = wake_wheel_[b];
        std::sort(bucket.begin(), bucket.end());
        for (const auto& [warp, sm] : bucket) {
          sms_[static_cast<std::size_t>(sm)].ready.push_back(warp);
          MarkSmReady(sm);
        }
        wake_wheel_count_ -= bucket.size();
        bucket.clear();
        wake_wheel_bits_[b >> 6] &= ~(1ull << (b & 63));
      }
    }

    // Re-attempt block dispatch only after a warp retired: dispatch fails
    // exactly when no SM has enough free slots, and a failed full scan
    // leaves dispatch_sm where it started (it advances num_sms times), so
    // skipping the guaranteed-failing re-scans is schedule-identical. For
    // grids larger than device residency this removes a full SM scan from
    // (nearly) every simulated cycle.
    if (next_block < num_blocks && sm_slots_freed_) {
      sm_slots_freed_ = false;
      dispatch();
    }

    // Issue scan. Every resident SM charges issue_per_cycle slots per cycle
    // whether or not it issues, so the total is closed-form; only SMs with a
    // non-empty ready ring (set bits, walked in ascending SM order — the
    // exact subset and order the full sweep would have issued from) are
    // visited, and stalls fall out as slots minus used.
    const std::uint64_t cycle_slots =
        static_cast<std::uint64_t>(config_.issue_per_cycle) *
        static_cast<std::uint64_t>(resident_sm_count_);
    stats_.issue_slots += cycle_slots;
    std::uint64_t used = 0;
    for (std::size_t word = 0; word < ready_sm_mask_.size(); ++word) {
      std::uint64_t bits = ready_sm_mask_[word];
      while (bits != 0) {
        const int s =
            static_cast<int>(word << 6) + std::countr_zero(bits);
        const std::uint64_t bit = bits & (~bits + 1);
        bits &= bits - 1;
        Sm& sm = sms_[static_cast<std::size_t>(s)];
        for (int k = 0; k < config_.issue_per_cycle; ++k) {
          // Nothing can refill a drained ring mid-loop except this SM's own
          // re-queues (wake/dispatch run before the scan), so empty means
          // the remaining slots of this SM-cycle are all stalls.
          if (sm.ready.empty()) break;
          const int warp_index = sm.ready.pop_front();
          // Stuck warp: parked instead of issuing — scheduling jitter, the
          // slot goes idle. The wake queue brings it back, so the
          // no-progress watchdog never confuses a stuck warp with a
          // deadlock.
          if (faults_) {
            const std::uint64_t stuck = faults_->StuckCycles(
                warp_pool_[static_cast<std::size_t>(warp_index)].base_tid);
            if (stuck != 0) {
              WakePush(cycle_ + stuck, warp_index, s);
              continue;
            }
          }
          Warp& warp = warp_pool_[static_cast<std::size_t>(warp_index)];
          if (warp.skip != 0) {
            // The instruction for this slot was pre-executed as part of a
            // straight-line run; charge the slot and keep the warp in the
            // round-robin, exactly as if it had issued one instruction.
            --warp.skip;
            sm.ready.push_back(warp_index);
          } else if (use_threaded) {
            ExecuteThreaded(warp_index, s);
          } else {
            ExecuteInstruction(warp_index, s);
          }
          ++used;
        }
        if (sm.ready.empty()) ready_sm_mask_[word] &= ~bit;
      }
    }
    stats_.issue_used += used;
    stats_.stall_slots += cycle_slots - used;
    const bool issued_any = used != 0;

    if (issued_any) {
      ++cycle_;
    } else if (WakePending()) {
      // Everything resident is stalled on memory: fast-forward.
      const std::uint64_t next = NextWakeTime();
      const std::uint64_t skip = next > cycle_ ? next - cycle_ : 1;
      const std::uint64_t slots =
          skip * static_cast<std::uint64_t>(config_.issue_per_cycle) *
          static_cast<std::uint64_t>(resident_sm_count_);
      stats_.issue_slots += slots;
      stats_.stall_slots += slots;
      cycle_ += skip;
    } else if (alive_warps_ > 0) {
      return InternalError("live warps with nothing ready and empty wake queue");
    } else {
      // Blocks remain but nothing resident: dispatch next iteration.
      ++cycle_;
    }
  }

  stats_.cycles = cycle_ + config_.launch_overhead_cycles;
  if (trace_) trace_->OnLaunchEnd(stats_.cycles);
  return stats_;
}

}  // namespace capellini::sim
