// Mixed-mode driver for the template-JIT backend (DESIGN.md §4h).
//
// run() under InterpKind::Jit alternates between native execution of
// compiled code and the fast interpreter:
//
//  * profiling runs run natively on the profiling variant of the compiled
//    code (jit.hpp), which increments the same per-instruction counters
//    the interpreter loops do; the legs below that do run on the fast
//    interpreter count into the same rows, so counts merge exactly. A
//    trap hook that enables profiling mid-run switches to the profiling
//    variant at the next native entry;
//  * access-traced runs stay on the fast interpreter entirely — they need
//    its per-access trace hook;
//  * ECC-armed runs run natively: a SECDED-shadowed page never enters the
//    software TLB (memory.hpp), so the only accesses that leave native
//    code are the ones that hit a shadowed page — the TLB-miss stub exits
//    through ColdOp and the interpreter's typed path verifies, corrects or
//    traps that one instruction;
//  * an armed injection runs only its armed window on the instrumented
//    fast loop (runFastImpl<true>): when the injection fires and disarms,
//    that loop syncs state and hands back (switchVariant), and the
//    post-fault remainder — most of every campaign trial — continues
//    natively under the same exact trap and budget semantics;
//  * a position with no native entry (function below its compile
//    threshold, interpret-only, or a basic block that no longer fits the
//    effective budget) is burst-interpreted under a stopAt_ bound, then
//    the code cache is probed again;
//  * native execution returns through the JitExit protocol, with the
//    position/count fields synced exactly like the interpreter's SYNC(),
//    so trap hooks, checkpoints and ResumePoints observe identical state.
//
// Every loop iteration makes progress: entryFor repeats the emitted
// block-fit check in C++, so whenever it hands out an entry the native
// block runs at least one instruction, and whenever it declines, the
// interpreter burst executes at least one.
#include "vm/executor.hpp"

#include <cstdio>
#include <cstdlib>

#include "vm/jit.hpp"

namespace care::vm {

namespace {
// Interpreter burst length while a position has no native entry: long
// enough to amortize the bound bookkeeping, short enough to re-probe the
// code cache promptly once a callee compiles.
constexpr std::uint64_t kBurst = 65536;
} // namespace

RunResult Executor::runJit() {
  // Every interpreter leg below goes through here, which tallies what it
  // retires: the count's advance plus whatever a trap hook rewound inside
  // the leg (a rollback re-executes on the interpreter).
  const auto interpret = [this](auto leg) {
    const std::uint64_t before = instrCount_, rewound = interpRewound_;
    const RunResult r = leg();
    jitInterpInstrs_ += instrCount_ + (interpRewound_ - rewound) - before;
    return r;
  };
  const auto fast = [this] { return runFast(); };

  // Access-traced memory needs a per-access hook the emitted templates
  // don't carry; the fast interpreter provides it with identical results.
  if (mem_.accessTraceActive()) return interpret(fast);

  JitImage& jimg = image_->jit();
  if (!jimg.usable()) {
    warnJitUnavailableOnce();
    return interpret(fast);
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
    // A trap hook may have armed an access trace mid-run; hand the rest of
    // the run over, like the plain fast-loop variant does. Profiling needs
    // no handoff: ctx.prof below picks the variant at every entry.
    if (mem_.accessTraceActive()) return interpret(fast);
    if (injArmed_) {
      // Armed window: the instrumented loop watches for the nth execution.
      // It returns with switchVariant set right after the injection fired
      // and disarmed, position and count synced — resume natively from
      // there. Any other return (budget, trap, done) ends the run exactly
      // as runFast() would.
      bool handoff = false;
      RunResult r =
          interpret([this, &handoff] { return runFastImpl<true>(&handoff); });
      if (handoff) continue;
      return r;
    }

    // Re-read every iteration: a trap hook may have enabled profiling,
    // which (re)allocates the counter row.
    ctx.prof = profiling_ ? profile_.data() : nullptr;
    const void* entry = jimg.entryFor(curModule_, curFunc_, curInstr_,
                                      instrCount_, stop, profiling_);
    if (!entry) {
      // Burst-interpret under a transient bound. An artificial stop shows
      // up as BudgetExceeded short of the real bound — re-probe the cache.
      const std::uint64_t save = stopAt_;
      std::uint64_t burstStop = instrCount_ + kBurst;
      if (burstStop > stop) burstStop = stop;
      stopAt_ = burstStop;
      RunResult r = interpret(fast);
      stopAt_ = save;
      if (r.status == RunStatus::BudgetExceeded &&
          r.instrCount < (budget_ < stopAt_ ? budget_ : stopAt_))
        continue;
      return r;
    }

    ctx.ic = instrCount_;
    ctx.budget = stop;
    static const bool trace = std::getenv("CARE_JIT_TRACE") != nullptr;
    if (trace)
      std::fprintf(stderr, "[jit] enter m=%d f=%d j=%d ic=%llu\n", curModule_,
                   curFunc_, curInstr_,
                   static_cast<unsigned long long>(instrCount_));
    jimg.enter(ctx, entry);
    if (trace)
      std::fprintf(stderr, "[jit] exit kind=%d m=%d f=%d j=%d ic=%llu\n",
                   ctx.exitKind, ctx.module, ctx.func, ctx.instr,
                   static_cast<unsigned long long>(ctx.ic));

    // Publish the exit state the way the interpreter's SYNC() does.
    instrCount_ = ctx.ic;
    curModule_ = ctx.module;
    curFunc_ = ctx.func;
    curInstr_ = ctx.instr;
    fn_ = &image_->function({curModule_, curFunc_, 0});

    switch (static_cast<JitExit>(ctx.exitKind)) {
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
      // like the interpreter loops' oob_pc path.
      res.status = RunStatus::Trapped;
      res.trap = Trap{TrapKind::BadPC, currentPC(), 0};
      res.instrCount = instrCount_;
      return res;

    case JitExit::CrossJump: {
      // Ret to a PC the code cache would not resolve. A wild address is a
      // BadPC with an observe-only hook (Retry is meaningless for a lost
      // PC, as in L_Ret); a valid one continues at the loop top.
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
      // Single-step the rare op, or the access to a SECDED-shadowed page,
      // on the interpreter, then resume natively at the next instruction
      // (its counter increment happens there).
      const std::uint64_t save = stopAt_;
      stopAt_ = instrCount_ + 1;
      RunResult r = interpret(fast);
      stopAt_ = save;
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
