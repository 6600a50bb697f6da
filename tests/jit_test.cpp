// Template-JIT backend tests (DESIGN.md §4h): backend selection and its
// error path, the strict numeric CARE_* knob parser, compilation of every
// function without a bail, exact-budget deopt at every block boundary shape
// (block entry, mid-block, last instruction of a compiled block),
// ResumePoint equivalence and cross-backend restore, the natively watched
// armed window, traced runs, the driver's reference-loop share, and
// full-campaign byte-identity against the reference loop (rollback
// campaigns included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "care/safeguard.hpp"
#include "inject/experiment.hpp"
#include "pareto/prune.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/checkpoint_ring.hpp"
#include "testutil.hpp"
#include "vm/jit.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

/// Restores the process-wide interpreter default on scope exit.
struct InterpGuard {
  vm::InterpKind saved = vm::defaultInterp();
  ~InterpGuard() { vm::setDefaultInterp(saved); }
};

/// Pins CARE_JIT_THRESHOLD to 1 (compile on first touch) for the Images
/// built in scope. The assertions on how much of a run goes native are
/// statements about the default threshold; under a raised one (a CI leg) a
/// short run spends its first touches of every function interpreting.
struct FirstTouchThreshold : ScopedEnv {
  FirstTouchThreshold() : ScopedEnv("CARE_JIT_THRESHOLD", "1") {}
};

// --- backend selection (satellite: --interp / CARE_INTERP error path) -------

TEST(InterpSelect, ParsesBothBackends) {
  EXPECT_EQ(vm::parseInterp("ref"), vm::InterpKind::Ref);
  EXPECT_EQ(vm::parseInterp("jit"), vm::InterpKind::Jit);
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Ref), "ref");
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Jit), "jit");
}

// "fast" named the token-threaded interpreter this backend replaced; it is
// now as unknown as any other name.
TEST(InterpSelect, UnknownBackendIsAHardErrorListingTheChoices) {
  for (const char* bad : {"fast", "turbo", "JIT", "fastest", ""}) {
    try {
      (void)vm::parseInterp(bad);
      FAIL() << "parseInterp accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ref, jit"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("fast,"), std::string::npos) << msg;
    }
  }
}

TEST(InterpSelect, BogusCareInterpEnvIsAHardError) {
  for (const char* bad : {"bogus", "fast"}) {
    const ScopedEnv env("CARE_INTERP", bad);
    try {
      (void)vm::defaultInterp();
      ADD_FAILURE() << "CARE_INTERP=" << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("ref, jit"), std::string::npos)
          << e.what();
    }
  }
  {
    const ScopedEnv env("CARE_INTERP", "ref");
    EXPECT_EQ(vm::defaultInterp(), vm::InterpKind::Ref);
  }
  const ScopedEnv unset("CARE_INTERP", nullptr);
  EXPECT_EQ(vm::defaultInterp(), vm::InterpKind::Jit); // the default
}

// The numeric CARE_* knobs share one strict decimal parser: garbage and
// trailing characters are hard errors naming the variable, so "abc" cannot
// silently disable the replay cache and "5k" cannot read as 5. Unset and
// empty still give the fallback.
TEST(EnvKnobs, MalformedNumericKnobsAreHardErrors) {
  struct Knob {
    const char* name;
    std::function<std::uint64_t()> read; // fallback 7 where it takes one
    std::uint64_t fallback;
  };
  const Knob kKnobs[] = {
      {"CARE_CKPT_INTERVAL", [] { return inject::ckptIntervalFromEnv(7); }, 7},
      {"CARE_ROLLBACK_RING", [] { return vm::rollbackRingFromEnv(7); }, 7},
      {"CARE_PROCS",
       [] {
         return static_cast<std::uint64_t>(
             inject::resolveProcesses(inject::kProcsAuto));
       },
       0},
      {"CARE_JIT_THRESHOLD", [] { return vm::jitThresholdFromEnv(7); }, 7},
  };
  for (const Knob& k : kKnobs) {
    const char* prev = std::getenv(k.name);
    const std::string saved = prev ? prev : "";
    for (const char* bad :
         {"abc", "5k", "12 ", " 12", "-3", "+3", "1e3", "0x10",
          "99999999999999999999999"}) {
      ::setenv(k.name, bad, 1);
      try {
        (void)k.read();
        ADD_FAILURE() << k.name << " accepted '" << bad << "'";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(k.name), std::string::npos)
            << e.what();
      }
    }
    ::setenv(k.name, "12", 1);
    EXPECT_EQ(k.read(), 12u) << k.name;
    ::setenv(k.name, "", 1);
    EXPECT_EQ(k.read(), k.fallback) << k.name;
    ::unsetenv(k.name);
    EXPECT_EQ(k.read(), k.fallback) << k.name;
    if (prev) ::setenv(k.name, saved.c_str(), 1);
  }
}

// --- compilation & golden equivalence ---------------------------------------

constexpr const char* kLoopProgram = R"(
  double acc[256];
  int main() {
    double s = 0.0;
    for (int i = 0; i < 300; i = i + 1) {
      acc[i % 256] = i * 0.5;
      s = s + acc[i % 256];
      if (i % 64 == 0) emit(s);
    }
    emit(s);
    return 17;
  })";

TEST(Jit, CompilesHotFunctionsAndMatchesRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor ref(p.image.get());
  ref.setInterp(vm::InterpKind::Ref);
  ref.setBudget(10'000'000);
  const vm::RunResult rr = vm::runToCompletion(ref, "main");
  ASSERT_EQ(rr.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  const vm::RunResult jr = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jr.status, vm::RunStatus::Done);
  EXPECT_EQ(jr.exitCode, rr.exitCode);
  EXPECT_EQ(jr.instrCount, rr.instrCount);
  EXPECT_EQ(jit.output(), ref.output());
  EXPECT_EQ(std::memcmp(jit.state().g, ref.state().g, sizeof jit.state().g),
            0);
  // The default threshold (CARE_JIT_THRESHOLD=1) compiles on first touch,
  // so the golden run above must have gone native, not interpret-only.
  EXPECT_GT(p.image->jit().compiledFunctions(), 0u);
}

// --- exact-budget deopt (satellite: budget-boundary ResumePoints) -----------

void expectSameResumePoint(const vm::Executor::ResumePoint& a,
                           const vm::Executor::ResumePoint& b,
                           const std::string& tag) {
  EXPECT_EQ(std::memcmp(&a.st, &b.st, sizeof a.st), 0)
      << tag << ": register files differ";
  EXPECT_EQ(a.module, b.module) << tag;
  EXPECT_EQ(a.func, b.func) << tag;
  EXPECT_EQ(a.instr, b.instr) << tag;
  EXPECT_EQ(a.started, b.started) << tag;
  EXPECT_EQ(a.instrCount, b.instrCount) << tag;
  EXPECT_EQ(a.output, b.output) << tag << ": emitted output differs";
}

// Stop the jit and ref backends on every exact budget in a contiguous
// window that spans multiple loop iterations. A window that long crosses
// every boundary shape a compiled block has — a stop on block entry (the
// leader's fit check deopts before any native instruction runs), a stop
// mid-block, and a stop right after a block's last instruction — and at
// each stop the captured ResumePoints must be byte-identical. Each pair is
// then resumed to completion to prove the stop didn't perturb the rest of
// the run (which also checks memory, beyond what the ResumePoint struct
// compare sees).
TEST(Jit, BudgetBoundaryResumePointsMatchRefAtEveryOffset) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor golden(p.image.get());
  golden.setBudget(10'000'000);
  const vm::RunResult gr = vm::runToCompletion(golden, "main");
  ASSERT_EQ(gr.status, vm::RunStatus::Done);

  // Mid-run window: deep enough that the loop body is compiled and hot.
  const std::uint64_t base = gr.instrCount / 2;
  for (std::uint64_t stop = base; stop < base + 48; ++stop) {
    const std::string tag = "stop=" + std::to_string(stop);

    vm::Executor ref(p.image.get());
    ref.setInterp(vm::InterpKind::Ref);
    ref.setBudget(10'000'000);
    const vm::RunResult rr = ref.runBounded(stop);
    ASSERT_EQ(rr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(rr.instrCount, stop) << tag;

    vm::Executor jit(p.image.get());
    jit.setInterp(vm::InterpKind::Jit);
    jit.setBudget(10'000'000);
    const vm::RunResult jr = jit.runBounded(stop);
    ASSERT_EQ(jr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(jr.instrCount, stop) << tag;

    expectSameResumePoint(jit.resumePoint(), ref.resumePoint(), tag);

    const vm::RunResult rf = vm::runToCompletion(ref, "main");
    const vm::RunResult jf = vm::runToCompletion(jit, "main");
    ASSERT_EQ(rf.status, vm::RunStatus::Done) << tag;
    EXPECT_EQ(jf.status, rf.status) << tag;
    EXPECT_EQ(jf.instrCount, rf.instrCount) << tag;
    EXPECT_EQ(jf.exitCode, rf.exitCode) << tag;
    EXPECT_EQ(jit.output(), ref.output()) << tag;
  }
}

// A ResumePoint captured under one backend restores into the other: the
// replay cache records points under whichever backend ran the golden pass,
// and every trial executor — jit included — must CoW-fork and continue from
// them to the identical end state.
TEST(Jit, RefCapturedResumePointRestoresIntoJit) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor ref(p.image.get());
  ref.setInterp(vm::InterpKind::Ref);
  ref.setBudget(10'000'000);
  const vm::RunResult rstop = ref.runBounded(500);
  ASSERT_EQ(rstop.status, vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint rp = ref.resumePoint();
  const vm::RunResult rdone = vm::runToCompletion(ref, "main");
  ASSERT_EQ(rdone.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  jit.restoreCheckpoint(rp);
  const vm::RunResult jdone = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jdone.status, rdone.status);
  EXPECT_EQ(jdone.instrCount, rdone.instrCount);
  EXPECT_EQ(jdone.exitCode, rdone.exitCode);
  EXPECT_EQ(jit.output(), ref.output());
  EXPECT_EQ(std::memcmp(jit.state().g, ref.state().g, sizeof jit.state().g),
            0);
}

// --- armed window: watched natively, fired on the reference loop ----------

constexpr const char* kCallProgram = R"(
  double acc[64];
  double scale(double x, int k) { return x * 0.5 + k; }
  int main() {
    double s = 0.0;
    for (int i = 0; i < 400; i = i + 1) {
      acc[i % 64] = scale(acc[(i + 1) % 64], i);
      if (i % 3 == 0) s = s + acc[i % 64];
      s = s + 1.0;
    }
    emit(s);
    return 3;
  })";

bool endsBlock(backend::MOp o) {
  using backend::MOp;
  return o == MOp::BrCmp || o == MOp::FBrCmp || o == MOp::Jmp ||
         o == MOp::Call || o == MOp::Ret || o == MOp::Barrier ||
         o == MOp::Abort || o == MOp::SentinelTrap;
}

/// The most-executed instruction of `fn` satisfying `pick(code, i)`, by the
/// profile of `prof`.
template <typename Pick>
vm::CodeLoc hottest(const vm::Executor& prof, const std::string& fn,
                    Pick pick) {
  const vm::Image& img = *prof.image();
  const vm::FuncRef f = img.findFunction(fn);
  const backend::MFunction& mf = img.function({f.module, f.func, 0});
  vm::CodeLoc best;
  for (std::size_t i = 0; i < mf.code.size(); ++i) {
    const vm::CodeLoc loc{f.module, f.func, static_cast<std::int32_t>(i)};
    if (pick(mf.code, i) &&
        (!best.valid() || prof.profileCount(loc) > prof.profileCount(best)))
      best = loc;
  }
  return best;
}

vm::CodeLoc hottestOp(const vm::Executor& prof, const std::string& fn,
                      bool (*op)(backend::MOp)) {
  return hottest(prof, fn, [op](const std::vector<backend::MInst>& c,
                                std::size_t i) { return op(c[i].op); });
}

/// Is instruction `i` a basic-block leader (function entry, branch target,
/// or successor of a block-ending instruction)?
bool isLeader(const std::vector<backend::MInst>& code, std::size_t i) {
  if (i == 0 || endsBlock(code[i - 1].op)) return true;
  for (const backend::MInst& in : code)
    if ((in.op == backend::MOp::BrCmp || in.op == backend::MOp::FBrCmp ||
         in.op == backend::MOp::Jmp) &&
        in.target == static_cast<std::int32_t>(i))
      return true;
  return false;
}

/// Arms `nth` at `loc` on a ref and a jit executor built by `start`, stops
/// both on every budget from one instruction before the injection fires
/// (the armed site is the next instruction at the boundary) to three after
/// it (inside the first native block after the watch exit, or on its fit
/// check), and requires byte-identical ResumePoints at every stop and
/// identical ends. `start` builds, arms and runs the executor up to where
/// the comparison begins; `fireAt` is when the injection fires.
void expectArmedRunsMatch(
    const std::function<std::unique_ptr<vm::Executor>(vm::InterpKind)>& start,
    std::uint64_t fireAt, const std::string& what, const std::string& entry) {
  ASSERT_GT(fireAt, 1u) << what;
  for (std::uint64_t stop = fireAt - 1; stop < fireAt + 4; ++stop) {
    const std::string tag = what + " stop=fire" +
                            (stop < fireAt ? "-1" : "+" +
                                                        std::to_string(
                                                            stop - fireAt));
    auto ref = start(vm::InterpKind::Ref);
    auto jit = start(vm::InterpKind::Jit);
    const vm::RunResult rr = ref->runBounded(stop, entry);
    const vm::RunResult jr = jit->runBounded(stop, entry);
    ASSERT_EQ(rr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(jr.status, rr.status) << tag;
    ASSERT_EQ(jr.instrCount, stop) << tag;
    expectSameResumePoint(jit->resumePoint(), ref->resumePoint(), tag);

    const vm::RunResult rf = vm::runToCompletion(*ref, entry);
    const vm::RunResult jf = vm::runToCompletion(*jit, entry);
    EXPECT_EQ(jf.status, rf.status) << tag;
    EXPECT_EQ(jf.instrCount, rf.instrCount) << tag;
    EXPECT_EQ(jf.exitCode, rf.exitCode) << tag;
    EXPECT_EQ(jf.trap.kind, rf.trap.kind) << tag;
    EXPECT_EQ(jf.trap.pc, rf.trap.pc) << tag;
    EXPECT_EQ(jit->output(), ref->output()) << tag;
    expectSameResumePoint(jit->resumePoint(), ref->resumePoint(),
                          tag + " (end)");
  }
}

// An armed run is watched natively: the counting variant's watch slot for
// the site overflows on the due execution, which leaves native code
// un-counted and fires on a one-instruction reference-loop step; the rest
// runs on the clean variant. Fire on a Call (the step lands on the
// callee's entry), on a Ret (on the return address), on a conditional
// branch, on a jump, on a plain ALU op, on a block leader, on the last
// instruction of a block that falls through into a leader, and on the
// first execution of a site (nth = 1, the window's first block). Then fire
// on the execution of a load that traps and is retried by Safeguard: the
// trapping attempt does not complete, so only the retried one fires.
TEST(Jit, InjectionHandoffResumePointsMatchRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kCallProgram, opt::OptLevel::O0);
  const vm::Image& img = *p.image;

  vm::Executor prof(&img);
  prof.enableProfiling();
  prof.setBudget(10'000'000);
  ASSERT_EQ(vm::runToCompletion(prof, "main").status, vm::RunStatus::Done);

  struct Site {
    const char* what;
    vm::CodeLoc loc;
    bool first = false; // nth = 1 instead of mid-run
  };
  using backend::MOp;
  using Code = std::vector<backend::MInst>;
  const auto alu = [](MOp o) {
    return o == MOp::FAluMem || o == MOp::FMul || o == MOp::FAdd;
  };
  const vm::CodeLoc branch =
      hottestOp(prof, "main", [](MOp o) { return o == MOp::BrCmp; });
  const Site sites[] = {
      {"call", hottestOp(prof, "main", [](MOp o) { return o == MOp::Call; })},
      {"ret", hottestOp(prof, "scale", [](MOp o) { return o == MOp::Ret; })},
      {"branch", branch},
      {"jump", hottestOp(prof, "main", [](MOp o) { return o == MOp::Jmp; })},
      {"alu", hottestOp(prof, "scale", alu)},
      {"leader", hottest(prof, "main",
                         [](const Code& c, std::size_t i) {
                           return i > 0 && isLeader(c, i) &&
                                  !endsBlock(c[i].op);
                         })},
      // At O0 every block ends in an explicit branch, so this is the other
      // conditional branch of main: the one the "branch" site is not.
      {"block end", hottest(prof, "main",
                            [&](const Code& c, std::size_t i) {
                              return i + 1 < c.size() && isLeader(c, i + 1) &&
                                     c[i].op != MOp::Call &&
                                     c[i].op != MOp::Jmp &&
                                     c[i].op != MOp::Ret &&
                                     static_cast<std::int32_t>(i) !=
                                         branch.instr;
                            })},
      {"nth=1", hottestOp(prof, "scale", alu), true},
  };

  for (const Site& site : sites) {
    ASSERT_TRUE(site.loc.valid()) << site.what;
    const std::uint64_t execs = prof.profileCount(site.loc);
    ASSERT_GT(execs, 4u) << site.what;
    // Mid-run, so the surrounding code is compiled and hot.
    const std::uint64_t nth = site.first ? 1 : execs / 2;

    // The fire time, from an unbounded reference run.
    std::uint64_t fireAt = 0;
    {
      vm::Executor ex(&img);
      ex.setInterp(vm::InterpKind::Ref);
      ex.setBudget(10'000'000);
      ex.armInjection(site.loc, nth,
                      [&](vm::Executor& e) { fireAt = e.instrCount(); });
      ASSERT_EQ(vm::runToCompletion(ex, "main").status, vm::RunStatus::Done);
    }
    expectArmedRunsMatch(
        [&](vm::InterpKind k) {
          auto ex = std::make_unique<vm::Executor>(&img);
          ex->setInterp(k);
          ex->setBudget(10'000'000);
          // Corrupt a live FP value so a wrong resume point shows up in the
          // registers and in the emitted output.
          ex->armInjection(site.loc, nth, [](vm::Executor& e) {
            e.state().f[0] = -e.state().f[0] + 1.0;
          });
          return ex;
        },
        fireAt, site.what, "main");
  }

  // The Safeguard case, on a campaign point whose corrupted register makes
  // a later load SIGSEGV and Safeguard repair it (as vm_diff_test's
  // profiled-trap leg finds one). Arm the trapping load's execution count
  // at the trap: its first attempt traps, so the injection fires only
  // after Safeguard's Retry completes it.
  const workloads::Workload& w = workloads::hpccg();
  inject::ExperimentConfig ecfg;
  ecfg.cacheDir = "care_test_artifacts/jit_handoff_safeguard";
  ecfg.armor.detectAuto = false;
  ecfg.armor.detectSampleAuto = false;
  const inject::BuiltWorkload built = inject::buildWorkload(w, ecfg);
  inject::CampaignConfig cfg;
  cfg.entry = w.entry;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  cfg.recover = core::RecoveryStrategy::Repair;
  inject::Campaign campaign(built.image.get(), cfg);
  ASSERT_TRUE(campaign.profile());
  Rng rng(0x5E6F);
  inject::InjectionPoint pt;
  bool found = false;
  for (int i = 0; i < 400 && !found; ++i) {
    pt = campaign.sample(rng);
    const inject::InjectionResult plain = campaign.runInjection(pt);
    found = plain.outcome == inject::Outcome::SoftFailure &&
            plain.signal == vm::TrapKind::SegFault &&
            campaign.runInjection(pt, &built.artifacts).careRecovered;
  }
  ASSERT_TRUE(found) << "no Safeguard-repairable SIGSEGV among the samples";
  const std::uint64_t budget = 2 * campaign.goldenInstrs();
  // When the fault strikes, then where the plain run traps and how many
  // attempts of that instruction it took to get there.
  std::uint64_t strikeAt = 0;
  {
    vm::Executor ex(built.image.get());
    ex.setInterp(vm::InterpKind::Ref);
    ex.armInjection(pt.loc, pt.nth,
                    [&](vm::Executor& e) { strikeAt = e.instrCount(); });
    ASSERT_EQ(vm::runToCompletion(ex, w.entry).status, vm::RunStatus::Done);
  }
  vm::Executor plain(built.image.get());
  plain.setInterp(vm::InterpKind::Ref);
  plain.enableProfiling();
  plain.setBudget(budget);
  ASSERT_EQ(plain.runBounded(strikeAt, w.entry).status,
            vm::RunStatus::BudgetExceeded);
  inject::Campaign::corruptDestination(plain, pt.loc, pt.bits);
  const vm::RunResult died = vm::runToCompletion(plain, w.entry);
  ASSERT_EQ(died.status, vm::RunStatus::Trapped);
  const vm::CodeLoc trapLoc = built.image->locate(died.trap.pc);
  const std::uint64_t trapNth = plain.profileCount(trapLoc);

  // Arm the trapping execution itself, then the one after it: there the
  // trapping attempt happens natively and must not count as executed.
  std::vector<std::unique_ptr<core::Safeguard>> guards;
  std::uint64_t fireAt = 0, nth = 0;
  std::function<void(vm::Executor&)> onFire;
  const auto start = [&](vm::InterpKind k) {
    auto ex = std::make_unique<vm::Executor>(built.image.get());
    ex->setInterp(k);
    ex->setBudget(budget);
    guards.push_back(std::make_unique<core::Safeguard>());
    for (const auto& [mi, arts] : built.artifacts)
      guards.back()->addModule(mi, arts);
    guards.back()->attach(*ex);
    ex->armInjection(trapLoc, nth, [&onFire](vm::Executor& e) { onFire(e); });
    EXPECT_EQ(ex->runBounded(strikeAt, w.entry).status,
              vm::RunStatus::BudgetExceeded);
    inject::Campaign::corruptDestination(*ex, pt.loc, pt.bits);
    return ex;
  };
  for (const std::uint64_t armed : {trapNth, trapNth + 1}) {
    nth = armed;
    fireAt = 0;
    onFire = [&](vm::Executor& e) { fireAt = e.instrCount(); };
    {
      auto ex = start(vm::InterpKind::Ref);
      (void)vm::runToCompletion(*ex, w.entry);
      ASSERT_GT(guards.back()->stats().recovered, 0u);
    }
    ASSERT_GT(fireAt, died.instrCount) << "fired before the trapping attempt";
    onFire = [](vm::Executor& e) { e.state().f[0] = -e.state().f[0] + 1.0; };
    expectArmedRunsMatch(start, fireAt,
                         armed == trapNth ? "safeguard retry"
                                          : "after a safeguard retry",
                         w.entry);
  }
}

// --- full-campaign byte-identity --------------------------------------------

// Acceptance gate: a cold five-workload campaign executed entirely under
// CARE_INTERP=jit serializes byte-identical to the same campaign on the
// reference loop. Separate cache dirs force both sides to really execute
// (the backend is deliberately not part of the cache key).
TEST(Jit, FiveWorkloadCampaignSerializesIdenticallyToRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig cfg;
    cfg.level = opt::OptLevel::O0;
    cfg.injections = 25;
    cfg.seed = 77;

    cfg.cacheDir = "care_test_artifacts/jit_camp_ref";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Ref);
    inject::CampaignTelemetry refTel;
    const inject::ExperimentResult ref = runExperiment(*w, cfg, &refTel);
    ASSERT_FALSE(refTel.fromCache) << w->name;
    ASSERT_EQ(refTel.storeHits, 0) << w->name;

    cfg.cacheDir = "care_test_artifacts/jit_camp_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    inject::CampaignTelemetry jitTel;
    const inject::ExperimentResult jit = runExperiment(*w, cfg, &jitTel);
    ASSERT_FALSE(jitTel.fromCache) << w->name;
    ASSERT_EQ(jitTel.storeHits, 0) << w->name;
    EXPECT_EQ(jitTel.interp, "jit") << w->name;

    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(ref))
        << w->name;
  }
}

// Same acceptance gate for the memory-resident fault models: with faults
// landing in mapped words, the jit-backend campaign must serialize
// byte-identical to the reference loop. Under SECDED the JIT runs trials
// natively and only accesses to the struck page leave native code (the
// shadowed-page exit, DESIGN.md §4h); the legs cover correction (mem1),
// double-bit traps (mem2adj), the CRC cross-check (burst under
// secded,crc), silent corruption with ECC off (burst), and rollback
// re-runs under repair_then_rollback, whose ring restores re-seat the
// address space while shadows exist — mem2adj detections are what a
// rollback re-runs, so that leg must roll back at least once.
TEST(Jit, MemoryFaultCampaignSerializesIdenticallyToRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  struct Leg {
    inject::FaultModel fault;
    vm::EccMode ecc;
    bool rollback;
  };
  for (const Leg leg :
       {Leg{inject::FaultModel::Mem1, vm::EccMode::Secded, false},
        Leg{inject::FaultModel::Burst, vm::EccMode::Off, false},
        Leg{inject::FaultModel::Mem2Adj, vm::EccMode::Secded, false},
        Leg{inject::FaultModel::Burst, vm::EccMode::SecdedCrc, false},
        Leg{inject::FaultModel::Mem1, vm::EccMode::Secded, true},
        Leg{inject::FaultModel::Mem2Adj, vm::EccMode::Secded, true}}) {
    inject::ExperimentConfig cfg;
    cfg.level = opt::OptLevel::O0;
    cfg.injections = 20;
    cfg.seed = 99;
    cfg.fault = leg.fault;
    cfg.ecc = leg.ecc;
    if (leg.rollback) {
      cfg.armor.recover = core::RecoveryStrategy::RepairThenRollback;
      cfg.armor.recoverAuto = false;
    }
    const std::string tag = std::string(inject::faultModelName(leg.fault)) +
                            "/" + vm::eccModeName(leg.ecc) +
                            (leg.rollback ? "/rollback" : "");

    cfg.cacheDir = "care_test_artifacts/jit_memfault_ref";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Ref);
    inject::CampaignTelemetry refTel, jitTel;
    const inject::ExperimentResult ref =
        runExperiment(workloads::hpccg(), cfg, &refTel);

    cfg.cacheDir = "care_test_artifacts/jit_memfault_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    const inject::ExperimentResult jit =
        runExperiment(workloads::hpccg(), cfg, &jitTel);

    EXPECT_FALSE(refTel.fromCache || jitTel.fromCache) << tag;
    EXPECT_EQ(refTel.storeHits + jitTel.storeHits, 0) << tag;
    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(ref))
        << tag;
    if (leg.rollback && leg.fault == inject::FaultModel::Mem2Adj)
      EXPECT_GT(jitTel.rollbacks, 0u) << tag << ": no trial rolled back";
  }
}

// The driver's reference-loop share on ECC-armed runs: with no shadow
// anywhere, every TLB miss refills and no access leaves native code, so a
// fault-free run of each workload retires under 1% of its instructions on
// the reference loop.
TEST(Jit, EccArmedCleanRunsStayOnNativeCode) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig ecfg;
    ecfg.cacheDir = "care_test_artifacts/jit_ecc_clean";
    ecfg.armor.detectAuto = false;
    ecfg.armor.detectSampleAuto = false;
    const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);
    vm::Executor ex(built.image.get());
    ex.setInterp(vm::InterpKind::Jit);
    ex.memory().setEccMode(vm::EccMode::Secded);
    ex.setBudget(500'000'000);
    const vm::RunResult r = vm::runToCompletion(ex, w->entry);
    ASSERT_EQ(r.status, vm::RunStatus::Done) << w->name;
    EXPECT_LT(ex.jitInterpretedInstrs() * 100, r.instrCount)
        << w->name << ": " << ex.jitInterpretedInstrs() << " of "
        << r.instrCount << " instructions interpreted";
  }
}

// The driver's reference-loop share on profiling runs (Campaign::profile's
// golden run): the counting variant counts in native code, so a profiled
// run of each workload retires under 1% of its instructions on the
// reference loop.
TEST(Jit, ProfilingRunsStayOnNativeCode) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig ecfg;
    ecfg.cacheDir = "care_test_artifacts/jit_profile_native";
    ecfg.armor.detectAuto = false;
    ecfg.armor.detectSampleAuto = false;
    const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);
    vm::Executor ex(built.image.get());
    ex.setInterp(vm::InterpKind::Jit);
    ex.enableProfiling();
    ex.setBudget(500'000'000);
    const vm::RunResult r = vm::runToCompletion(ex, w->entry);
    ASSERT_EQ(r.status, vm::RunStatus::Done) << w->name;
    EXPECT_LT(ex.jitInterpretedInstrs() * 100, r.instrCount)
        << w->name << ": " << ex.jitInterpretedInstrs() << " of "
        << r.instrCount << " instructions interpreted";
  }
}

// jitInterpretedInstrs() is exact across a rollback inside a reference-loop
// leg: with the compile threshold out of reach every instruction runs in
// bursts on `ref`, and a trap hook that restores an earlier ResumePoint
// re-runs the rewound stretch there, which the count must include.
TEST(Jit, InterpretedCountIncludesRollbacksInsideARefLeg) {
  const ScopedEnv neverCompile("CARE_JIT_THRESHOLD", "1000000000");
  Program p = buildProgram(R"(
    int d = 5;
    int main() {
      int s = 0;
      for (int i = 0; i < 3000; i = i + 1) {
        if (i == 2000) d = 0;
        s = s + 100 / d;
      }
      return s;
    })", opt::OptLevel::O0);
  vm::Executor ex(p.image.get());
  ex.setInterp(vm::InterpKind::Jit);
  ex.setBudget(10'000'000);
  ASSERT_EQ(ex.runBounded(5000, "main").status,
            vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint rp = ex.resumePoint();
  std::uint64_t rewound = 0;
  int traps = 0;
  ex.setTrapHook([&](vm::Executor& e, const vm::Trap& t) {
    if (t.kind != vm::TrapKind::Fpe) return vm::TrapAction::Propagate;
    if (traps++ == 0) { // roll back once, then repair the divisor
      rewound = e.instrCount() - rp.instrCount;
      e.restoreCheckpoint(rp);
      return vm::TrapAction::Retry;
    }
    const backend::MInst& in = p.image->instruction(p.image->locate(t.pc));
    if (in.op == backend::MOp::IDiv && in.src2 != backend::kNoReg) {
      e.state().g[in.src2] = 1;
    } else { // the divide reads d from memory (a fused IAluMem)
      const std::int32_t one = 1;
      EXPECT_TRUE(e.memory().writeBytes(p.image->module(0).globalAddr[0],
                                        &one, sizeof one));
    }
    return vm::TrapAction::Retry;
  });
  const vm::RunResult r = vm::runToCompletion(ex, "main");
  ASSERT_EQ(r.status, vm::RunStatus::Done);
  ASSERT_EQ(traps, 2);
  ASSERT_GT(rewound, 0u);
  EXPECT_EQ(ex.jitInterpretedInstrs(), r.instrCount + rewound);
}

// Rollback campaigns (repair_then_rollback) on all five workloads at O0 and
// O1: each register-fault trial re-run under Safeguard restores the last
// replay checkpoint before its fault site, is watched natively up to the
// injection and finishes natively after it fires. Every leg must serialize
// byte-identical to the reference loop with the replay cache off, where
// trials are armed at entry and never leave the oracle:
//   * jit and ref at the auto replay interval;
//   * jit with the replay cache off;
//   * jit with a replay interval that does not divide into the rollback
//     ring's spacing, so arm stops fall between ring boundaries.
TEST(Jit, RollbackCampaignSerializesIdenticallyToRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  struct Leg {
    const char* name;
    vm::InterpKind interp;
    std::uint64_t ckpt;
  };
  const Leg kLegs[] = {
      {"ref/auto", vm::InterpKind::Ref, inject::CampaignConfig::kCkptAuto},
      {"jit/auto", vm::InterpKind::Jit, inject::CampaignConfig::kCkptAuto},
      {"jit/off", vm::InterpKind::Jit, 0},
      {"jit/100003", vm::InterpKind::Jit, 100003},
  };
  for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
    for (const workloads::Workload* w : workloads::allWorkloads()) {
      inject::ExperimentConfig ecfg;
      ecfg.level = level;
      ecfg.cacheDir = "care_test_artifacts/jit_rollback";
      ecfg.armor.detectAuto = false;
      ecfg.armor.detectSampleAuto = false;
      const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);

      auto campaign = [&](vm::InterpKind interp, std::uint64_t ckpt) {
        inject::CampaignConfig cfg;
        cfg.seed = 41;
        cfg.hangFactor = 4;
        cfg.checkpointEveryInstrs = ckpt;
        cfg.recover = core::RecoveryStrategy::RepairThenRollback;
        cfg.rollbackRingCap = 8;
        cfg.fault = inject::FaultModel::Reg;
        cfg.ecc = vm::EccMode::Off;
        cfg.prune = {};
        inject::Campaign c(built.image.get(), cfg);
        EXPECT_TRUE(c.profile()) << w->name;
        vm::setDefaultInterp(interp);
        inject::ExperimentResult r;
        r.workload = w->name;
        r.level = level;
        r.goldenInstrs = c.goldenInstrs();
        r.records =
            inject::runCampaign(c, 24, 41, 4, &built.artifacts, nullptr);
        return r;
      };
      const inject::ExperimentResult ref = campaign(vm::InterpKind::Ref, 0);
      int careRuns = 0;
      for (const auto& rec : ref.records) careRuns += rec.haveCare;
      const std::string where =
          w->name + (level == opt::OptLevel::O0 ? " O0" : " O1");
      EXPECT_GT(careRuns, 0) << where << ": no trial re-ran under Safeguard";
      const auto want = inject::serializeDeterministic(ref);
      for (const Leg& leg : kLegs)
        EXPECT_EQ(inject::serializeDeterministic(
                      campaign(leg.interp, leg.ckpt)),
                  want)
            << where << " " << leg.name;
    }
  }
}

// The driver's reference-loop share on register-fault campaigns: every
// trial's armed window is watched natively, so the reference loop retires
// only the firing step of each trial plus deopt tails at exact stops —
// under 0.1% of the simulated instructions on every workload, with and
// without Safeguard's rollback re-runs (repair_then_rollback). This is a
// statement about the default replay grid, where rollback trials seed
// their ring instead of stopping at every ring boundary on the way from
// entry, and about in-process trials, whose legs this process counts.
TEST(Jit, ArmedTrialsStayOnNativeCode) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  const ScopedEnv autoGrid("CARE_CKPT_INTERVAL", nullptr);
  InterpGuard guard;
  vm::setDefaultInterp(vm::InterpKind::Jit);
  for (const auto recover : {core::RecoveryStrategy::Repair,
                             core::RecoveryStrategy::RepairThenRollback}) {
    for (const workloads::Workload* w : workloads::allWorkloads()) {
      inject::ExperimentConfig ecfg;
      ecfg.cacheDir = "care_test_artifacts/jit_armed_native";
      ecfg.armor.detectAuto = false;
      ecfg.armor.detectSampleAuto = false;
      const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);
      inject::CampaignConfig cfg;
      cfg.entry = w->entry;
      cfg.seed = 5;
      cfg.recover = recover;
      cfg.fault = inject::FaultModel::Reg;
      cfg.ecc = vm::EccMode::Off;
      cfg.prune = {};
      inject::Campaign c(built.image.get(), cfg);
      ASSERT_TRUE(c.profile()) << w->name;
      inject::ServiceConfig inProcess;
      inProcess.threads = 2;
      const std::uint64_t before = vm::jitInterpretedTotal();
      const auto records = inject::runCampaign(
          c, 40, 5, 2, &built.artifacts, nullptr, &inProcess);
      const std::uint64_t interpreted = vm::jitInterpretedTotal() - before;
      std::uint64_t simulated = 0;
      for (const inject::InjectionRecord& rec : records) {
        simulated += rec.plain.instrsExecuted - rec.plain.replaySavedInstrs;
        if (rec.haveCare)
          simulated +=
              rec.withCare.instrsExecuted - rec.withCare.replaySavedInstrs;
      }
      const std::string tag =
          w->name + (recover == core::RecoveryStrategy::Repair
                         ? " repair"
                         : " repair_then_rollback");
      ASSERT_GT(simulated, 0u) << tag;
      EXPECT_LT(interpreted * 1000, simulated)
          << tag << ": " << interpreted << " of " << simulated
          << " instructions on the reference loop";
    }
  }
}

// Access-traced runs (pareto::MemoryLife, DESIGN.md §4j) run natively:
// while a sink is armed no page enters the TLB and the miss helpers record
// each access. The dead-after table built on jit must equal the one built
// on ref for every workload, word for word and boundary for boundary.
TEST(Jit, MemoryLifeOnJitMatchesRef) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  constexpr std::uint64_t kSegments = 64;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig ecfg;
    ecfg.cacheDir = "care_test_artifacts/jit_memlife";
    ecfg.armor.detectAuto = false;
    ecfg.armor.detectSampleAuto = false;
    const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);
    vm::Executor init(built.image.get());
    const vm::MemorySnapshot mem = vm::MemorySnapshot::capture(init.memory());
    vm::Executor golden(built.image.get());
    golden.setBudget(500'000'000);
    const vm::RunResult g = vm::runToCompletion(golden, w->entry);
    ASSERT_EQ(g.status, vm::RunStatus::Done) << w->name;

    pareto::MemoryLife life[2];
    const vm::InterpKind kinds[2] = {vm::InterpKind::Ref, vm::InterpKind::Jit};
    for (int k = 0; k < 2; ++k) {
      vm::setDefaultInterp(kinds[k]);
      life[k].build(built.image.get(), mem, w->entry, g.instrCount,
                    kSegments);
    }
    std::vector<std::uint64_t> words[2] = {life[0].words(), life[1].words()};
    for (auto& v : words) std::sort(v.begin(), v.end());
    ASSERT_FALSE(words[0].empty()) << w->name;
    ASSERT_EQ(words[0], words[1]) << w->name << ": traced words differ";
    for (std::uint64_t seg = 0; seg <= kSegments; ++seg) {
      const std::uint64_t t = g.instrCount * seg / kSegments;
      for (const std::uint64_t word : words[0])
        ASSERT_EQ(life[0].deadAfter(word, t), life[1].deadAfter(word, t))
            << w->name << ": word " << word << " at " << t;
    }
  }
}

// Every function of the five workloads and of sblat1 over BLAS, protected
// and plain, at O0 and O1, compiles in both variants. A bail would run the
// whole function on the reference loop without any other sign.
TEST(Jit, EveryWorkloadFunctionCompilesInBothVariants) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  const auto lower = [](const workloads::Workload& w, opt::OptLevel level) {
    Program p;
    p.irMod = std::make_unique<ir::Module>(w.name);
    for (const auto& sf : w.sources)
      lang::compileIntoModule(sf.content, sf.name, *p.irMod);
    ir::verifyOrDie(*p.irMod);
    opt::optimize(*p.irMod, level);
    ir::verifyOrDie(*p.irMod);
    p.mMod = backend::lowerModule(*p.irMod);
    return p;
  };
  const auto compileAll = [](const vm::Image& image, const std::string& tag) {
    vm::JitImage& jit = image.jit();
    for (std::size_t m = 0; m < image.numModules(); ++m)
      for (std::size_t f = 0; f < image.module(m).mod->functions.size(); ++f)
        for (const bool counted : {false, true})
          (void)jit.entryFor(static_cast<std::int32_t>(m),
                             static_cast<std::int32_t>(f), 0, 0, ~0ull,
                             counted);
    EXPECT_EQ(jit.compileFailures(), 0u) << tag;
    EXPECT_GT(jit.compiledFunctions(), 0u) << tag;
  };
  for (const opt::OptLevel level : {opt::OptLevel::O0, opt::OptLevel::O1}) {
    const std::string lv = level == opt::OptLevel::O0 ? " O0" : " O1";
    for (const workloads::Workload* w : workloads::allWorkloads()) {
      inject::ExperimentConfig ecfg;
      ecfg.level = level;
      ecfg.cacheDir = "care_test_artifacts/jit_compile_all";
      ecfg.armor.detectAuto = false;
      ecfg.armor.detect.cfc = ecfg.armor.detect.addr = true;
      ecfg.armor.detectSampleAuto = false;
      const inject::BuiltWorkload built = inject::buildWorkload(*w, ecfg);
      compileAll(*built.image, w->name + lv + " protected");
      const Program plain = lower(*w, level);
      vm::Image image;
      image.load(plain.mMod.get());
      image.link();
      compileAll(image, w->name + lv);
    }
    const Program lib = lower(workloads::blasLibrary(), level);
    const Program drv = lower(workloads::sblat1Driver(), level);
    vm::Image image;
    image.load(drv.mMod.get());
    image.load(lib.mMod.get());
    image.link();
    compileAll(image, "sblat1+BLAS" + lv);
  }
}

// --- W^X-unavailable warning (once per process) ------------------------------

TEST(Jit, UnavailableWarningPrintsExactlyOncePerProcess) {
  // Earlier tests may already have triggered the fallback warning on a
  // host without executable mappings; whatever the history, the counter
  // can be 0 or 1 here, the next call emits only if nothing did before,
  // and after it the count is pinned at 1 forever.
  const int before = vm::jitUnavailableWarnCount();
  ASSERT_LE(before, 1);
  const bool emitted = vm::warnJitUnavailableOnce();
  EXPECT_EQ(emitted, before == 0);
  EXPECT_FALSE(vm::warnJitUnavailableOnce());
  EXPECT_FALSE(vm::warnJitUnavailableOnce());
  EXPECT_EQ(vm::jitUnavailableWarnCount(), 1);
}

} // namespace
} // namespace care::test
