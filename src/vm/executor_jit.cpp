// Mixed-mode driver for the template-JIT backend (DESIGN.md §4h).
//
// run() under InterpKind::Jit runs compiled code natively and hands the
// reference loop (runReference) only what native code does not cover:
//
//  * profiling runs run on the counting variant of the compiled code
//    (jit.hpp), which increments the same per-instruction counters the
//    reference loop does; legs that run on the reference loop count into
//    the same row, so counts merge exactly;
//  * an armed injection runs natively too: the counting variant counts
//    into a watch row whose armed slot overflows on exactly the execution
//    that is due to fire. That execution leaves native code un-counted
//    through the ColdOp exit (the watch exit) and is single-stepped on the
//    reference loop, which fires the injection — so firing, traps and
//    Safeguard retries keep the oracle's semantics. A run that profiles
//    while armed keeps its armed window on the reference loop;
//  * ECC-armed and access-traced runs run natively: neither a
//    SECDED-shadowed page nor, while a trace sink is armed, any page enters
//    the software TLB (memory.hpp), so those accesses take the TLB-miss
//    helpers. A traced access is recorded there; a shadowed one exits
//    through ColdOp, and the reference loop's typed path verifies, corrects
//    or traps that one instruction;
//  * cold ops are single-stepped the same way, and a position with no
//    native entry (function below its compile threshold or without native
//    code, or a basic block that no longer fits the effective budget) is
//    burst-interpreted under a stopAt_ bound before the code cache is
//    probed again;
//  * native execution returns through the JitExit protocol, with the
//    position/count fields synced exactly as the reference loop keeps its
//    members, so trap hooks, checkpoints and ResumePoints observe identical
//    state.
//
// Every loop iteration makes progress: entryFor repeats the emitted
// block-fit check in C++, so whenever it hands out an entry native code
// retires at least one instruction or hands exactly one to the reference
// loop, and whenever it declines, the reference burst executes at least one.
#include "vm/executor.hpp"

#include <atomic>

#include "vm/jit.hpp"

namespace care::vm {

namespace {
// Reference burst length while a position has no native entry: long enough
// to amortize the bound bookkeeping, short enough to re-probe the code
// cache promptly once a callee compiles.
constexpr std::uint64_t kBurst = 65536;
// The watch slot starts `remaining` increments below the signed overflow.
constexpr std::uint64_t kWatchTop = 0x7fffffffffffffffull;
std::atomic<std::uint64_t> gInterpretedTotal{0};
} // namespace

std::uint64_t jitInterpretedTotal() {
  return gInterpretedTotal.load(std::memory_order_relaxed);
}

RunResult Executor::interpretLeg(std::uint64_t stop) {
  const std::uint64_t save = stopAt_;
  if (stop < stopAt_) stopAt_ = stop;
  // Tally what the leg retires: the count's advance plus whatever a trap
  // hook rewound inside it (a rollback re-executes on the reference loop).
  const std::uint64_t before = instrCount_, rewound = interpRewound_;
  const RunResult r = runReference();
  const std::uint64_t retired =
      instrCount_ + (interpRewound_ - rewound) - before;
  jitInterpInstrs_ += retired;
  gInterpretedTotal.fetch_add(retired, std::memory_order_relaxed);
  stopAt_ = save;
  return r;
}

std::uint64_t Executor::seedWatch() {
  if (watch_.empty()) watch_.assign(image_->profileSlots(), 0);
  watch_[watchSlot_] = 0;
  watchSlot_ = profileSlot(injLoc_);
  // Modular arithmetic keeps this exact for any remaining count.
  const std::uint64_t start = kWatchTop - (injNth_ - injSeen_) + 1;
  watch_[watchSlot_] = start;
  return start;
}

RunResult Executor::runJit() {
  JitImage& jimg = image_->jit();
  if (!jimg.usable()) {
    warnJitUnavailableOnce();
    return interpretLeg(~0ull);
  }

  RunResult res;
  JitContext ctx;
  // All pointers are members of this Executor (or member arrays of mem_),
  // so they stay valid even when a trap hook restoreCheckpoint()s: the
  // Memory move-assign reseats pages but not the TLB array addresses.
  ctx.g = st_.g;
  ctx.f = st_.f;
  const auto tlbs = mem_.jitTlbView();
  ctx.readTlb = tlbs.first;
  ctx.writeTlb = tlbs.second;
  ctx.mem = &mem_;
  ctx.output = &output_;
  ctx.jit = &jimg;

  for (;;) {
    const std::uint64_t stop = budget_ < stopAt_ ? budget_ : stopAt_;
    if (instrCount_ >= stop) {
      res.status = RunStatus::BudgetExceeded;
      res.instrCount = instrCount_;
      return res;
    }
    // Re-read every iteration: a trap hook or the injection callback may
    // have enabled profiling or (re)armed an injection. An injection armed
    // at a site outside the image can never fire and is not watched.
    const bool watching = injArmed_ && !profiling_ && inImage(injLoc_);
    const bool counting = profiling_ || watching;
    const void* entry =
        injArmed_ && profiling_
            ? nullptr // the counter row is taken: the window stays on ref
            : jimg.entryFor(curModule_, curFunc_, curInstr_, instrCount_,
                            stop, counting);
    if (!entry) {
      // Burst-interpret under a transient bound. An artificial stop shows
      // up as BudgetExceeded short of the real bound — re-probe the cache.
      const RunResult r =
          interpretLeg(stop - instrCount_ > kBurst ? instrCount_ + kBurst
                                                   : stop);
      if (r.status == RunStatus::BudgetExceeded &&
          r.instrCount < (budget_ < stopAt_ ? budget_ : stopAt_))
        continue;
      return r;
    }

    const std::uint64_t watchStart = watching ? seedWatch() : 0;
    ctx.prof = profiling_ ? profile_.data()
                          : watching ? watch_.data() : nullptr;
    ctx.ic = instrCount_;
    ctx.budget = stop;
    jimg.enter(ctx, entry);

    // Publish the exit state the way the reference loop keeps its members.
    instrCount_ = ctx.ic;
    curModule_ = ctx.module;
    curFunc_ = ctx.func;
    curInstr_ = ctx.instr;
    fn_ = &image_->function({curModule_, curFunc_, 0});
    const JitExit exit = static_cast<JitExit>(ctx.exitKind);

    if (watching) {
      // Completed executions of the armed site: the slot's advance, less an
      // attempt that left without completing — a trap at the site, or the
      // halt or barrier the reference loop returns from before its
      // injection check. The watch exit already un-counted its own.
      std::uint64_t seen = watch_[watchSlot_] - watchStart;
      const std::int32_t at = exit == JitExit::Yield ? ctx.instr - 1
                                                     : ctx.instr;
      if ((exit == JitExit::Trap || exit == JitExit::Done ||
           exit == JitExit::Yield) &&
          at == injLoc_.instr && ctx.func == injLoc_.func &&
          ctx.module == injLoc_.module)
        --seen;
      injSeen_ += seen;
    }

    switch (exit) {
    case JitExit::Done:
      res.status = RunStatus::Done;
      res.instrCount = instrCount_;
      res.exitCode = static_cast<std::int64_t>(st_.g[backend::kRet]);
      return res;

    case JitExit::Trap: {
      const Trap trap{static_cast<TrapKind>(ctx.trapKind), currentPC(),
                      ctx.trapAddr};
      if (trapHook_ && trapHook_(*this, trap) == TrapAction::Retry)
        continue; // members re-read at the loop top (the reference Retry)
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }

    case JitExit::BadPCInternal:
      // Fell or branched past the function end: hook-invisible, exactly
      // like the reference loop's bounds check.
      res.status = RunStatus::Trapped;
      res.trap = Trap{TrapKind::BadPC, currentPC(), 0};
      res.instrCount = instrCount_;
      return res;

    case JitExit::CrossJump: {
      // Ret to a PC the code cache would not resolve. A wild address is a
      // BadPC with an observe-only hook (Retry is meaningless for a lost
      // PC, as in the reference loop); a valid one continues at the top.
      const CodeLoc loc = image_->locate(ctx.retPC);
      if (loc.valid()) {
        jumpTo(loc);
        continue;
      }
      const Trap trap{TrapKind::BadPC, ctx.retPC, 0};
      if (trapHook_) (void)trapHook_(*this, trap);
      res.status = RunStatus::Trapped;
      res.trap = trap;
      res.instrCount = instrCount_;
      return res;
    }

    case JitExit::CrossEnter:
    case JitExit::Deopt:
      // Loop top decides: compile the callee, burst-interpret, or stop on
      // the exact budget boundary.
      continue;

    case JitExit::ColdOp: {
      // Single-step the rare op, the access to a SECDED-shadowed page or
      // the armed site's firing execution on the reference loop, then
      // resume natively at the next instruction.
      const RunResult r = interpretLeg(instrCount_ + 1);
      if (r.status == RunStatus::BudgetExceeded &&
          r.instrCount < (budget_ < stopAt_ ? budget_ : stopAt_))
        continue;
      return r;
    }

    case JitExit::Yield:
      res.status = RunStatus::Yielded;
      res.instrCount = instrCount_;
      return res;
    }

    // Unreachable: every JitExit either returned or continued.
    res.status = RunStatus::Trapped;
    res.trap = Trap{TrapKind::BadPC, 0, 0};
    res.instrCount = instrCount_;
    return res;
  }
}

} // namespace care::vm
