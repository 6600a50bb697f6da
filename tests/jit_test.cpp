// Template-JIT backend tests (DESIGN.md §4h): backend selection and its
// error path, the strict numeric CARE_* knob parser, compilation of hot functions, exact-budget deopt at every
// block boundary shape (block entry, mid-block, last instruction of a
// compiled block), ResumePoint equivalence and cross-backend restore, the
// armed-window handoff back to native code after an injection fires, and
// full-campaign byte-identity against the fast interpreter (rollback
// campaigns included).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "inject/experiment.hpp"
#include "support/error.hpp"
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
/// built in scope, restoring the caller's value on exit. The assertions on
/// how much of a run goes native are statements about the default
/// threshold; under a raised one (a CI leg) a short run spends its first
/// touches of every function interpreting.
struct FirstTouchThreshold {
  const char* prev = std::getenv("CARE_JIT_THRESHOLD");
  std::string saved = prev ? prev : "";
  FirstTouchThreshold() { ::setenv("CARE_JIT_THRESHOLD", "1", 1); }
  ~FirstTouchThreshold() {
    if (prev) ::setenv("CARE_JIT_THRESHOLD", saved.c_str(), 1);
    else ::unsetenv("CARE_JIT_THRESHOLD");
  }
};

// --- backend selection (satellite: --interp / CARE_INTERP error path) -------

TEST(InterpSelect, ParsesAllThreeBackends) {
  EXPECT_EQ(vm::parseInterp("ref"), vm::InterpKind::Ref);
  EXPECT_EQ(vm::parseInterp("fast"), vm::InterpKind::Fast);
  EXPECT_EQ(vm::parseInterp("jit"), vm::InterpKind::Jit);
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Ref), "ref");
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Fast), "fast");
  EXPECT_STREQ(vm::interpName(vm::InterpKind::Jit), "jit");
}

TEST(InterpSelect, UnknownBackendIsAHardErrorListingTheChoices) {
  for (const char* bad : {"turbo", "JIT", "fastest", ""}) {
    try {
      (void)vm::parseInterp(bad);
      FAIL() << "parseInterp accepted '" << bad << "'";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("ref"), std::string::npos) << msg;
      EXPECT_NE(msg.find("fast"), std::string::npos) << msg;
      EXPECT_NE(msg.find("jit"), std::string::npos) << msg;
    }
  }
}

TEST(InterpSelect, BogusCareInterpEnvIsAHardError) {
  ::setenv("CARE_INTERP", "bogus", 1);
  EXPECT_THROW((void)vm::defaultInterp(), Error);
  ::setenv("CARE_INTERP", "jit", 1);
  EXPECT_EQ(vm::defaultInterp(), vm::InterpKind::Jit);
  ::unsetenv("CARE_INTERP");
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

TEST(Jit, CompilesHotFunctionsAndMatchesFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  FirstTouchThreshold pin;
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor fast(p.image.get());
  fast.setInterp(vm::InterpKind::Fast);
  fast.setBudget(10'000'000);
  const vm::RunResult fr = vm::runToCompletion(fast, "main");
  ASSERT_EQ(fr.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  const vm::RunResult jr = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jr.status, vm::RunStatus::Done);
  EXPECT_EQ(jr.exitCode, fr.exitCode);
  EXPECT_EQ(jr.instrCount, fr.instrCount);
  EXPECT_EQ(jit.output(), fast.output());
  EXPECT_EQ(std::memcmp(jit.state().g, fast.state().g, sizeof jit.state().g),
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

// Stop the jit and fast backends on every exact budget in a contiguous
// window that spans multiple loop iterations. A window that long crosses
// every boundary shape a compiled block has — a stop on block entry (the
// leader's fit check deopts before any native instruction runs), a stop
// mid-block, and a stop right after a block's last instruction — and at
// each stop the captured ResumePoints must be byte-identical. Each pair is
// then resumed to completion to prove the stop didn't perturb the rest of
// the run (which also checks memory, beyond what the ResumePoint struct
// compare sees).
TEST(Jit, BudgetBoundaryResumePointsMatchFastAtEveryOffset) {
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

    vm::Executor fast(p.image.get());
    fast.setInterp(vm::InterpKind::Fast);
    fast.setBudget(10'000'000);
    const vm::RunResult fr = fast.runBounded(stop);
    ASSERT_EQ(fr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(fr.instrCount, stop) << tag;

    vm::Executor jit(p.image.get());
    jit.setInterp(vm::InterpKind::Jit);
    jit.setBudget(10'000'000);
    const vm::RunResult jr = jit.runBounded(stop);
    ASSERT_EQ(jr.status, vm::RunStatus::BudgetExceeded) << tag;
    ASSERT_EQ(jr.instrCount, stop) << tag;

    expectSameResumePoint(jit.resumePoint(), fast.resumePoint(), tag);

    const vm::RunResult ff = vm::runToCompletion(fast, "main");
    const vm::RunResult jf = vm::runToCompletion(jit, "main");
    ASSERT_EQ(ff.status, vm::RunStatus::Done) << tag;
    EXPECT_EQ(jf.status, ff.status) << tag;
    EXPECT_EQ(jf.instrCount, ff.instrCount) << tag;
    EXPECT_EQ(jf.exitCode, ff.exitCode) << tag;
    EXPECT_EQ(jit.output(), fast.output()) << tag;
  }
}

// A ResumePoint captured under one backend restores into the other: the
// replay cache records points under whichever backend ran the golden pass,
// and every trial executor — jit included — must CoW-fork and continue from
// them to the identical end state.
TEST(Jit, FastCapturedResumePointRestoresIntoJit) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  Program p = buildProgram(kLoopProgram, opt::OptLevel::O0);

  vm::Executor fast(p.image.get());
  fast.setInterp(vm::InterpKind::Fast);
  fast.setBudget(10'000'000);
  const vm::RunResult fstop = fast.runBounded(500);
  ASSERT_EQ(fstop.status, vm::RunStatus::BudgetExceeded);
  const vm::Executor::ResumePoint rp = fast.resumePoint();
  const vm::RunResult fdone = vm::runToCompletion(fast, "main");
  ASSERT_EQ(fdone.status, vm::RunStatus::Done);

  vm::Executor jit(p.image.get());
  jit.setInterp(vm::InterpKind::Jit);
  jit.setBudget(10'000'000);
  jit.restoreCheckpoint(rp);
  const vm::RunResult jdone = vm::runToCompletion(jit, "main");
  EXPECT_EQ(jdone.status, fdone.status);
  EXPECT_EQ(jdone.instrCount, fdone.instrCount);
  EXPECT_EQ(jdone.exitCode, fdone.exitCode);
  EXPECT_EQ(jit.output(), fast.output());
  EXPECT_EQ(std::memcmp(jit.state().g, fast.state().g, sizeof jit.state().g),
            0);
}

// --- armed window: handoff back to native code after the injection ---------

constexpr const char* kCallProgram = R"(
  double acc[64];
  double scale(double x, int k) { return x * 0.5 + k; }
  int main() {
    double s = 0.0;
    for (int i = 0; i < 400; i = i + 1) {
      acc[i % 64] = scale(acc[(i + 1) % 64], i);
      s = s + acc[i % 64];
    }
    emit(s);
    return 3;
  })";

/// The most-executed instruction of `fn` whose op satisfies `pick`, by the
/// profile of `prof`.
vm::CodeLoc hottestOp(const vm::Executor& prof, const std::string& fn,
                      bool (*pick)(backend::MOp)) {
  const vm::Image& img = *prof.image();
  const vm::FuncRef f = img.findFunction(fn);
  const backend::MFunction& mf = img.function({f.module, f.func, 0});
  vm::CodeLoc best;
  for (std::size_t i = 0; i < mf.code.size(); ++i) {
    const vm::CodeLoc loc{f.module, f.func, static_cast<std::int32_t>(i)};
    if (pick(mf.code[i].op) &&
        (!best.valid() || prof.profileCount(loc) > prof.profileCount(best)))
      best = loc;
  }
  return best;
}

// An armed run executes only its armed window on the instrumented fast
// loop; once the injection fires and disarms, the rest runs natively. Fire
// on a Call (the handoff lands on the callee's entry), on a Ret (on the
// return address), on a conditional branch, on a jump and on a plain ALU
// op, then stop the run 0..3 instructions after the fire — the stop lands
// inside the first native block, or on its fit check. The jit and fast
// ResumePoints must be byte-identical at every stop, and both runs must
// finish identically.
TEST(Jit, InjectionHandoffResumePointsMatchFast) {
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
  };
  using backend::MOp;
  const Site sites[] = {
      {"call", hottestOp(prof, "main", [](MOp o) { return o == MOp::Call; })},
      {"ret", hottestOp(prof, "scale", [](MOp o) { return o == MOp::Ret; })},
      {"branch",
       hottestOp(prof, "main", [](MOp o) { return o == MOp::BrCmp; })},
      {"jump", hottestOp(prof, "main", [](MOp o) { return o == MOp::Jmp; })},
      {"alu", hottestOp(prof, "scale",
                        [](MOp o) { return o == MOp::FAluMem ||
                                           o == MOp::FMul ||
                                           o == MOp::FAdd; })},
  };

  for (const Site& site : sites) {
    ASSERT_TRUE(site.loc.valid()) << site.what;
    const std::uint64_t execs = prof.profileCount(site.loc);
    ASSERT_GT(execs, 4u) << site.what;
    // Mid-run, so the surrounding code is compiled and hot.
    const std::uint64_t nth = execs / 2;

    // The fire time, from an unbounded fast run.
    std::uint64_t fireAt = 0;
    {
      vm::Executor ex(&img);
      ex.setInterp(vm::InterpKind::Fast);
      ex.setBudget(10'000'000);
      ex.armInjection(site.loc, nth,
                      [&](vm::Executor& e) { fireAt = e.instrCount(); });
      ASSERT_EQ(vm::runToCompletion(ex, "main").status, vm::RunStatus::Done);
      ASSERT_GT(fireAt, 0u) << site.what;
    }

    for (std::uint64_t after = 0; after < 4; ++after) {
      const std::string tag =
          std::string(site.what) + " +" + std::to_string(after);
      auto start = [&](vm::InterpKind k) {
        auto ex = std::make_unique<vm::Executor>(&img);
        ex->setInterp(k);
        ex->setBudget(10'000'000);
        // Corrupt a live FP value so a wrong resume point shows up in the
        // registers and in the emitted output.
        ex->armInjection(site.loc, nth, [](vm::Executor& e) {
          e.state().f[0] = -e.state().f[0] + 1.0;
        });
        return ex;
      };
      auto fast = start(vm::InterpKind::Fast);
      auto jit = start(vm::InterpKind::Jit);
      const vm::RunResult fr = fast->runBounded(fireAt + after);
      const vm::RunResult jr = jit->runBounded(fireAt + after);
      ASSERT_EQ(fr.status, vm::RunStatus::BudgetExceeded) << tag;
      ASSERT_EQ(jr.status, fr.status) << tag;
      ASSERT_EQ(jr.instrCount, fireAt + after) << tag;
      expectSameResumePoint(jit->resumePoint(), fast->resumePoint(), tag);

      const vm::RunResult ff = vm::runToCompletion(*fast, "main");
      const vm::RunResult jf = vm::runToCompletion(*jit, "main");
      EXPECT_EQ(jf.status, ff.status) << tag;
      EXPECT_EQ(jf.instrCount, ff.instrCount) << tag;
      EXPECT_EQ(jf.exitCode, ff.exitCode) << tag;
      EXPECT_EQ(jit->output(), fast->output()) << tag;
      expectSameResumePoint(jit->resumePoint(), fast->resumePoint(),
                            tag + " (end)");
    }
  }
}

// --- full-campaign byte-identity --------------------------------------------

// Acceptance gate: a cold five-workload campaign executed entirely under
// CARE_INTERP=jit serializes byte-identical to the same campaign under the
// fast interpreter. Separate cache dirs force both sides to really execute
// (the backend is deliberately not part of the cache key).
TEST(Jit, FiveWorkloadCampaignSerializesIdenticallyToFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  for (const workloads::Workload* w : workloads::allWorkloads()) {
    inject::ExperimentConfig cfg;
    cfg.level = opt::OptLevel::O0;
    cfg.injections = 25;
    cfg.seed = 77;

    cfg.cacheDir = "care_test_artifacts/jit_camp_fast";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Fast);
    inject::CampaignTelemetry fastTel;
    const inject::ExperimentResult fast = runExperiment(*w, cfg, &fastTel);
    ASSERT_FALSE(fastTel.fromCache) << w->name;
    ASSERT_EQ(fastTel.storeHits, 0) << w->name;

    cfg.cacheDir = "care_test_artifacts/jit_camp_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    inject::CampaignTelemetry jitTel;
    const inject::ExperimentResult jit = runExperiment(*w, cfg, &jitTel);
    ASSERT_FALSE(jitTel.fromCache) << w->name;
    ASSERT_EQ(jitTel.storeHits, 0) << w->name;
    EXPECT_EQ(jitTel.interp, "jit") << w->name;

    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(fast))
        << w->name;
  }
}

// Same acceptance gate for the memory-resident fault models: with faults
// landing in mapped words, the jit-backend campaign must serialize
// byte-identical to the fast interpreter. Under SECDED the JIT runs trials
// natively and only accesses to the struck page leave native code (the
// shadowed-page exit, DESIGN.md §4h); the legs cover correction (mem1),
// double-bit traps (mem2adj), the CRC cross-check (burst under
// secded,crc), silent corruption with ECC off (burst), and rollback
// re-runs under repair_then_rollback, whose ring restores re-seat the
// address space while shadows exist — mem2adj detections are what a
// rollback re-runs, so that leg must roll back at least once.
TEST(Jit, MemoryFaultCampaignSerializesIdenticallyToFast) {
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

    cfg.cacheDir = "care_test_artifacts/jit_memfault_fast";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Fast);
    inject::CampaignTelemetry fastTel, jitTel;
    const inject::ExperimentResult fast =
        runExperiment(workloads::hpccg(), cfg, &fastTel);

    cfg.cacheDir = "care_test_artifacts/jit_memfault_jit";
    std::filesystem::remove_all(cfg.cacheDir);
    vm::setDefaultInterp(vm::InterpKind::Jit);
    const inject::ExperimentResult jit =
        runExperiment(workloads::hpccg(), cfg, &jitTel);

    EXPECT_FALSE(fastTel.fromCache || jitTel.fromCache) << tag;
    EXPECT_EQ(fastTel.storeHits + jitTel.storeHits, 0) << tag;
    EXPECT_EQ(inject::serializeDeterministic(jit),
              inject::serializeDeterministic(fast))
        << tag;
    if (leg.rollback && leg.fault == inject::FaultModel::Mem2Adj)
      EXPECT_GT(jitTel.rollbacks, 0u) << tag << ": no trial rolled back";
  }
}

// The driver's interpreter share on ECC-armed runs: with no shadow
// anywhere, every TLB miss refills and no access leaves native code, so a
// fault-free run of each workload retires under 1% of its instructions on
// the fast interpreter (before native ECC, all of them).
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

// The driver's interpreter share on profiling runs (Campaign::profile's
// golden run): the profiling variant counts in native code, so a profiled
// run of each workload retires under 1% of its instructions on the fast
// interpreter.
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

// Rollback campaigns (repair_then_rollback) on all five workloads at O0 and
// O1: each register-fault trial re-run under Safeguard runs its golden
// prefix unarmed, is armed at the last replay checkpoint before its fault
// site, and finishes natively after the injection fires. Every leg must
// serialize byte-identical to the fast interpreter with the replay cache
// off, where trials are armed at entry and never leave the watched loop:
//   * jit and fast at the auto replay interval;
//   * jit with the replay cache off;
//   * jit with a replay interval that does not divide into the rollback
//     ring's spacing, so arm stops fall between ring boundaries.
TEST(Jit, RollbackCampaignSerializesIdenticallyToFast) {
  if (!vm::jitAvailable()) GTEST_SKIP() << "no executable mappings";
  InterpGuard guard;
  struct Leg {
    const char* name;
    vm::InterpKind interp;
    std::uint64_t ckpt;
  };
  const Leg kLegs[] = {
      {"fast/auto", vm::InterpKind::Fast, inject::CampaignConfig::kCkptAuto},
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
            inject::runCampaign(c, 24, 41, 2, &built.artifacts, nullptr);
        return r;
      };
      const inject::ExperimentResult ref = campaign(vm::InterpKind::Fast, 0);
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
