// Rollback-domain recovery tests (DESIGN.md §4f).
//
// Three layers, bottom up:
//  * CheckpointRing edge semantics: strict latestBefore, boundary faults,
//    eviction under tiny capacity with the entry slot pinned, stale-future
//    dropping after a rollback;
//  * the runCheckpointed() boundary driver: grid pauses, entry capture,
//    observational equivalence with a plain run;
//  * the strategy-level differential oracles: a repair-success trial is
//    byte-identical between `repair` and `repair_then_rollback`; a clean
//    (never-injected) run under `rollback` is observationally identical to
//    `none`; a rollback whose fault let corrupt/duplicated output escape
//    is classified RolledBack-with-SDC, never as recovered; a rollback
//    re-run whose ring is seeded from the replay cache is byte-identical to
//    one whose ring was filled by executing the prefix, slot for slot.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <tuple>

#include "backend/mir.hpp"
#include "care/driver.hpp"
#include "inject/engine.hpp"
#include "inject/experiment.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "vm/checkpoint_ring.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using core::RecoveryStrategy;
using inject::Campaign;
using inject::CampaignConfig;
using inject::InjectionPoint;
using inject::InjectionRecord;
using inject::InjectionResult;
using inject::Outcome;
using vm::CheckpointRing;

/// A position-only ResumePoint for ring unit tests (no machine state
/// needed: the ring orders and selects purely by instrCount).
vm::Executor::ResumePoint rpAt(std::uint64_t n) {
  vm::Executor::ResumePoint rp;
  rp.instrCount = n;
  return rp;
}

/// Restores the process-wide interpreter default on scope exit.
struct InterpGuard {
  vm::InterpKind saved = vm::defaultInterp();
  ~InterpGuard() { vm::setDefaultInterp(saved); }
};

// --- CheckpointRing -------------------------------------------------------

TEST(CheckpointRing, LatestBeforeIsStrictlyBelow) {
  CheckpointRing ring(4);
  ring.push(rpAt(0)); // entry
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.size(), 3u);

  EXPECT_EQ(ring.latestBefore(0), nullptr); // nothing below the entry
  ASSERT_NE(ring.latestBefore(1), nullptr);
  EXPECT_EQ(ring.latestBefore(1)->instrCount, 0u);
  // A fault exactly on a checkpoint boundary selects the *previous* state.
  EXPECT_EQ(ring.latestBefore(100)->instrCount, 0u);
  EXPECT_EQ(ring.latestBefore(101)->instrCount, 100u);
  EXPECT_EQ(ring.latestBefore(200)->instrCount, 100u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 200u);
}

TEST(CheckpointRing, TinyCapacityEvictsOldestButPinsEntry) {
  CheckpointRing ring(2); // entry + one periodic slot
  ring.push(rpAt(0));
  ring.push(rpAt(10));
  ring.push(rpAt(20));
  ring.push(rpAt(30));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.evicted(), 2u); // 10 then 20 fell off
  EXPECT_EQ(ring.latestBefore(100)->instrCount, 30u);
  // With 10/20 evicted, a fault below 30 falls through to the entry: the
  // fault-before-any-surviving-checkpoint case degrades to from-entry.
  EXPECT_EQ(ring.latestBefore(30)->instrCount, 0u);

  CheckpointRing solo(0); // clamped to the entry slot alone
  EXPECT_EQ(solo.capacity(), 1u);
  solo.push(rpAt(0));
  solo.push(rpAt(50));
  EXPECT_EQ(solo.size(), 1u);
  EXPECT_TRUE(solo.hasEntry());
  EXPECT_EQ(solo.latestBefore(100)->instrCount, 0u);
}

TEST(CheckpointRing, PushDropsStaleFuturesAfterRollback) {
  CheckpointRing ring(8);
  ring.push(rpAt(0));
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  ring.push(rpAt(300));
  // A rollback rewound below 200; the grid re-reaches 200 and pushes a
  // fresh capture. The stale 200/300 (discarded timeline) must go first.
  ring.push(rpAt(200));
  EXPECT_EQ(ring.size(), 3u); // 0, 100, fresh 200
  EXPECT_EQ(ring.latestBefore(250)->instrCount, 200u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 200u);
  // A push back at the entry count marks the *whole* periodic ring stale
  // (the executor rewound to the entry); only the pinned entry survives.
  ring.push(rpAt(0));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.hasEntry());
}

TEST(CheckpointRing, DropAfterRemovesDiscardedTimeline) {
  CheckpointRing ring(8);
  ring.push(rpAt(0));
  ring.push(rpAt(100));
  ring.push(rpAt(200));
  ring.dropAfter(100); // rollback restored the 100-checkpoint
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.latestBefore(~0ull)->instrCount, 100u);
  ring.dropAfter(0); // restore target was the entry itself: entry stays
  EXPECT_TRUE(ring.hasEntry());
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.evicted(), 0u); // dropAfter is not ring pressure
}

// --- runCheckpointed ------------------------------------------------------

TEST(CheckpointRing, RunCheckpointedPausesOnGridAndMatchesPlainRun) {
  const Program p = buildProgram(R"(
      double acc[128];
      int main() {
        double s = 0.0;
        for (int i = 0; i < 300; i = i + 1) {
          acc[i % 128] = i * 0.25;
          s = s + acc[i % 128];
        }
        emit(s);
        return 0;
      })", opt::OptLevel::O0);
  vm::Executor plain(p.image.get());
  plain.setBudget(2'000'000'000ull);
  const vm::RunResult ref = vm::runToCompletion(plain, "main");
  ASSERT_EQ(ref.status, vm::RunStatus::Done);

  vm::Executor ex(p.image.get());
  std::vector<std::uint64_t> boundaries;
  const vm::RunResult r = vm::runCheckpointed(
      ex, "main", 100, 2'000'000'000ull,
      [&](vm::Executor& e) { boundaries.push_back(e.instrCount()); });
  EXPECT_EQ(r.status, vm::RunStatus::Done);
  EXPECT_EQ(r.exitCode, ref.exitCode);
  EXPECT_EQ(r.instrCount, ref.instrCount);
  EXPECT_EQ(ex.output(), plain.output());

  ASSERT_GE(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[0], 0u); // entry boundary before instruction 0
  for (std::size_t i = 1; i < boundaries.size(); ++i)
    EXPECT_EQ(boundaries[i], i * 100) << "boundary off the absolute grid";

  // The entry capture must be a *restorable* position (started), not a
  // never-run executor's: restore it into a third executor and finish.
  vm::Executor probe(p.image.get());
  vm::Executor::ResumePoint entryRp;
  vm::runCheckpointed(probe, "main", 1'000'000'000ull, 2'000'000'000ull,
                      [&](vm::Executor& e) { entryRp = e.resumePoint(); });
  ASSERT_TRUE(entryRp.started);
  ASSERT_EQ(entryRp.instrCount, 0u);
  vm::Executor resumed(p.image.get());
  resumed.restoreCheckpoint(entryRp);
  resumed.setBudget(2'000'000'000ull);
  const vm::RunResult rr = vm::runToCompletion(resumed, "main");
  EXPECT_EQ(rr.status, vm::RunStatus::Done);
  EXPECT_EQ(rr.instrCount, ref.instrCount);
  EXPECT_EQ(resumed.output(), plain.output());
}

// --- strategy differentials ----------------------------------------------

/// CARE-compiled module + image + artifacts for direct campaign use.
struct CareEnv {
  core::CompiledModule cm;
  std::unique_ptr<vm::Image> image;
  std::map<std::int32_t, core::ModuleArtifacts> artifacts;
};

CareEnv buildCare(const char* src, const std::string& tag,
                  opt::OptLevel level = opt::OptLevel::O0) {
  core::CompileOptions opts;
  opts.optLevel = level;
  opts.artifactDir = "care_test_artifacts";
  opts.armor.detectAuto = false; // pin: CARE_DETECT must not reshape traps
  CareEnv e;
  e.cm = core::careCompile({{tag + ".c", src}}, "rb_" + tag, opts);
  e.image = std::make_unique<vm::Image>();
  e.image->load(e.cm.mmod.get());
  e.image->link();
  e.artifacts[0] = e.cm.artifacts;
  return e;
}

/// Campaign config pinned against the environment (CARE_RECOVER /
/// CARE_ROLLBACK_RING / CARE_FAULT / CARE_ECC must not perturb these
/// differentials — findSegv() below hunts register-model SIGSEGVs).
CampaignConfig pinnedConfig(RecoveryStrategy s) {
  CampaignConfig cfg;
  cfg.hangFactor = 4;
  cfg.recover = s;
  cfg.rollbackRingCap = 8;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  return cfg;
}

/// Deterministically find one SIGSEGV-producing injection.
InjectionPoint findSegv(Campaign& campaign, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    const InjectionPoint pt = campaign.sample(rng);
    const InjectionResult plain = campaign.runInjection(pt);
    if (plain.outcome == Outcome::SoftFailure &&
        plain.signal == vm::TrapKind::SegFault)
      return pt;
  }
  ADD_FAILURE() << "no SIGSEGV found";
  return {};
}

const char* kGridProg = R"(
double grid[1024];
int scale = 4;
int main() {
  for (int i = 0; i < 1024; i = i + 1) { grid[i] = i; }
  double s = 0.0;
  for (int step = 0; step < 3; step = step + 1) {
    for (int i = 0; i < 200; i = i + 1) {
      s = s + grid[scale * i + step];
    }
  }
  emit(s);
  return 0;
}
)";

TEST(RollbackRecovery, FaultBeforeFirstCheckpointRollsBackToEntry) {
  CareEnv e = buildCare(kGridProg, "entry");
  CampaignConfig ccfg = pinnedConfig(RecoveryStrategy::Repair);
  Campaign campaign(e.image.get(), ccfg);
  ASSERT_TRUE(campaign.profile());
  const InjectionPoint pt = findSegv(campaign, 21);

  // Golden output for the SDC comparison below.
  vm::Executor gold(e.image.get());
  gold.setBudget(2'000'000'000ull);
  ASSERT_EQ(vm::runToCompletion(gold, "main").status, vm::RunStatus::Done);

  // Drive the faulting run by hand with an interval far beyond the golden
  // length: the ring holds nothing but the entry capture, so the rollback
  // must degrade to a from-entry re-execution.
  vm::Executor ex(e.image.get());
  core::Safeguard sg;
  sg.addModule(0, e.artifacts.at(0));
  sg.setStrategy(RecoveryStrategy::Rollback); // repair never attempted
  CheckpointRing ring(8);
  sg.setRollbackSource(&ring);
  sg.attach(ex);
  ex.armInjection(pt.loc, pt.nth, [&](vm::Executor& e2) {
    Campaign::corruptDestination(e2, pt.loc, pt.bits);
  });
  const vm::RunResult r = vm::runCheckpointed(
      ex, "main", 1'000'000'000ull, campaign.goldenInstrs() * 4,
      [&](vm::Executor& e2) { ring.push(e2); });

  EXPECT_EQ(r.status, vm::RunStatus::Done);
  const core::SafeguardStats& st = sg.stats();
  ASSERT_GE(st.rollbacks, 1u);
  ASSERT_FALSE(st.records.empty());
  const core::RecoveryRecord& rec = st.records.front();
  EXPECT_TRUE(rec.rolledBack);
  EXPECT_FALSE(rec.recovered);
  EXPECT_EQ(rec.rollbackToInstr, 0u); // from-entry
  EXPECT_GT(rec.discardedInstrs, 0u);
  // kGridProg emits only at the very end, after the faulting loop: no
  // output escaped before the trap, so the re-execution is clean.
  EXPECT_EQ(ex.output(), gold.output());
}

TEST(RollbackRecovery, CleanRunUnderRollbackMatchesNoneOnBothInterps) {
  CareEnv e = buildCare(kGridProg, "clean");
  InterpGuard guard;
  for (vm::InterpKind interp :
       {vm::InterpKind::Ref, vm::InterpKind::Jit}) {
    vm::setDefaultInterp(interp);
    Campaign none(e.image.get(), pinnedConfig(RecoveryStrategy::None));
    Campaign roll(e.image.get(), pinnedConfig(RecoveryStrategy::Rollback));
    ASSERT_TRUE(none.profile());
    ASSERT_TRUE(roll.profile());

    // An injection point that never fires: the run is fault-free, so the
    // armed rollback machinery (boundary pauses, ring pushes) must be
    // observationally invisible.
    Rng rng(5);
    InjectionPoint pt = none.sample(rng);
    pt.nth += 1'000'000'000ull;
    const InjectionResult a = none.runInjection(pt, &e.artifacts);
    const InjectionResult b = roll.runInjection(pt, &e.artifacts);
    for (const InjectionResult* r : {&a, &b}) {
      EXPECT_FALSE(r->injected);
      EXPECT_EQ(r->outcome, Outcome::Benign);
      EXPECT_TRUE(r->survived);
      EXPECT_TRUE(r->outputMatchesGolden);
      EXPECT_EQ(r->safeguardActivations, 0u);
      EXPECT_EQ(r->rollbacks, 0u);
    }
    EXPECT_EQ(a.instrsExecuted, b.instrsExecuted);
    const InjectionRecord ra{pt, a, false, {}};
    const InjectionRecord rb{pt, b, false, {}};
    EXPECT_EQ(inject::serializeDeterministicRecord(ra),
              inject::serializeDeterministicRecord(rb));
  }
}

TEST(RollbackRecovery, RepairSuccessRecordsBitIdenticalOnBothInterps) {
  // The differential oracle of DESIGN.md §4f: rollback only engages after
  // a failed repair, so on every trial the paper's repair handles, the
  // repair_then_rollback record must be byte-identical to the repair one.
  inject::ExperimentConfig bcfg;
  bcfg.cacheDir = "care_test_artifacts/rollback_diff";
  bcfg.armor.detectAuto = false; // pin: CARE_DETECT must not reshape traps
  std::filesystem::remove_all(bcfg.cacheDir);
  inject::BuiltWorkload built =
      inject::buildWorkload(workloads::gtcp(), bcfg);

  InterpGuard guard;
  for (vm::InterpKind interp :
       {vm::InterpKind::Ref, vm::InterpKind::Jit}) {
    vm::setDefaultInterp(interp);
    Campaign repair(built.image.get(),
                    pinnedConfig(RecoveryStrategy::Repair));
    Campaign both(built.image.get(),
                  pinnedConfig(RecoveryStrategy::RepairThenRollback));
    ASSERT_TRUE(repair.profile());
    ASSERT_TRUE(both.profile());

    Rng rng(123);
    int repairSuccesses = 0;
    for (int i = 0; i < 40; ++i) {
      const InjectionPoint pt = repair.sample(rng);
      const InjectionResult plain = repair.runInjection(pt);
      if (plain.outcome != Outcome::SoftFailure ||
          plain.signal != vm::TrapKind::SegFault)
        continue;
      const InjectionResult a = repair.runInjection(pt, &built.artifacts);
      const InjectionResult b = both.runInjection(pt, &built.artifacts);
      if (!a.careRecovered) continue; // repair failed: strategies diverge
      ++repairSuccesses;
      EXPECT_EQ(b.rollbacks, 0u) << "rollback engaged on a repair success";
      const InjectionRecord ra{pt, plain, true, a};
      const InjectionRecord rb{pt, plain, true, b};
      EXPECT_EQ(inject::serializeDeterministicRecord(ra),
                inject::serializeDeterministicRecord(rb));
    }
    EXPECT_GT(repairSuccesses, 0)
        << "campaign produced no repair successes to compare";
  }
}

/// Sets an environment variable for the scope, restoring the prior value.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name(name) {
    if (const char* prev = std::getenv(name)) saved = prev;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved) ::setenv(name, saved->c_str(), 1);
    else ::unsetenv(name);
  }
  const char* name;
  std::optional<std::string> saved;
};

/// Both sides of one trial's deterministic record.
std::vector<std::uint8_t> recordBytes(const Campaign& c,
                                      const InjectionPoint& pt,
                                      const InjectionResult& withCare) {
  return inject::serializeDeterministicRecord(
      InjectionRecord{pt, c.runInjection(pt), true, withCare});
}

/// A CARE trial plus its ring as it stood when the first rollback selected
/// a checkpoint (empty when the trial never rolled back).
struct ProbedTrial {
  InjectionResult res;
  std::vector<vm::Executor::ResumePoint> ring;
};

ProbedTrial runProbed(const Campaign& c, const InjectionPoint& pt,
                      const std::map<std::int32_t, core::ModuleArtifacts>&
                          arts) {
  ProbedTrial t;
  bool first = true;
  t.res = c.runInjection(pt, &arts, [&](const CheckpointRing& ring) {
    if (!first) return;
    first = false;
    for (std::size_t i = 0; i < ring.size(); ++i) t.ring.push_back(ring.at(i));
  });
  return t;
}

/// Slot-by-slot equality of two rings: instrCount, position, registers,
/// output and the bytes of every mapped page.
void expectSameRing(const std::vector<vm::Executor::ResumePoint>& a,
                    const std::vector<vm::Executor::ResumePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("ring slot " + std::to_string(i));
    EXPECT_EQ(a[i].instrCount, b[i].instrCount);
    EXPECT_EQ(a[i].started, b[i].started);
    EXPECT_EQ(std::make_tuple(a[i].module, a[i].func, a[i].instr),
              std::make_tuple(b[i].module, b[i].func, b[i].instr));
    EXPECT_EQ(std::memcmp(&a[i].st, &b[i].st, sizeof(vm::MachineState)), 0)
        << "registers differ";
    EXPECT_EQ(a[i].output, b[i].output);
    const std::vector<std::uint64_t> pages = a[i].mem.pageNumbers();
    ASSERT_EQ(pages, b[i].mem.pageNumbers());
    const vm::Memory ma = a[i].mem.fork(), mb = b[i].mem.fork();
    std::vector<std::uint8_t> pa(vm::Memory::kPageSize),
        pb(vm::Memory::kPageSize);
    for (std::uint64_t pn : pages) {
      ASSERT_TRUE(ma.readBytes(pn * vm::Memory::kPageSize, pa.data(),
                               pa.size()));
      ASSERT_TRUE(mb.readBytes(pn * vm::Memory::kPageSize, pb.data(),
                               pb.size()));
      EXPECT_EQ(pa, pb) << "page " << pn << " differs";
    }
  }
}

/// Address of the 64-bit word holding global `name` of module 0.
std::uint64_t globalWord(const vm::Image& image, const std::string& name) {
  const auto& lm = image.module(0);
  for (std::size_t g = 0; g < lm.mod->globals.size(); ++g)
    if (lm.mod->globals[g].name == name) return lm.globalAddr[g] & ~7ull;
  ADD_FAILURE() << "no global " << name;
  return 0;
}

/// An adjacent double-bit strike on kGridProg's `scale` at instruction
/// `nth`. Nothing writes `scale` after initialization and the step loops
/// read it every iteration (from about instruction 9000), so under SECDED
/// the strike always surfaces as an EccUncorrectable trap that only a
/// rollback past it can recover.
InjectionPoint scaleStrike(const vm::Image& image, std::uint64_t nth) {
  InjectionPoint pt;
  pt.model = inject::FaultModel::Mem2Adj;
  pt.nth = nth;
  pt.memAddr = globalWord(image, "scale");
  pt.bits = {4, 5};
  return pt;
}

CampaignConfig eccConfig(RecoveryStrategy s) {
  CampaignConfig cfg = pinnedConfig(s);
  cfg.fault = inject::FaultModel::Mem2Adj;
  cfg.ecc = vm::EccMode::Secded;
  return cfg;
}

/// Up to `want` register points whose plain run ends in SIGSEGV and whose
/// CARE trial under `c` rolls back at least once.
std::vector<InjectionPoint> rollbackSegvs(
    const Campaign& c,
    const std::map<std::int32_t, core::ModuleArtifacts>& arts,
    std::uint64_t seed, std::size_t want) {
  std::vector<InjectionPoint> out;
  Rng rng(seed);
  for (int i = 0; i < 400 && out.size() < want; ++i) {
    const InjectionPoint pt = c.sample(rng);
    const InjectionResult plain = c.runInjection(pt);
    if (plain.outcome != Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    if (c.runInjection(pt, &arts).rollbacks > 0) out.push_back(pt);
  }
  return out;
}

TEST(RollbackRecovery, RollbackRerunsFastForwardOnMatchingGrids) {
  // Under kCkptAuto the replay grid is the ring grid, so a rollback
  // re-run restores the last golden checkpoint before its fault and
  // seeds its ring from the replay cache instead of executing the prefix.
  // Its record must be byte-identical to the same trial with the cache
  // off (ring filled by execution) and to one whose replay grid differs
  // from the ring grid, which falls back to executing the prefix.
  CareEnv e = buildCare(kGridProg, "replay");
  for (RecoveryStrategy s :
       {RecoveryStrategy::RepairThenRollback, RecoveryStrategy::Rollback}) {
    SCOPED_TRACE(core::recoveryStrategyName(s));
    Campaign seeded(e.image.get(), pinnedConfig(s));
    ASSERT_TRUE(seeded.profile());
    ASSERT_GT(seeded.checkpoints().size(), 0u);
    CampaignConfig offCfg = pinnedConfig(s);
    offCfg.checkpointEveryInstrs = 0;
    CampaignConfig skewCfg = pinnedConfig(s);
    skewCfg.checkpointEveryInstrs = seeded.checkpointInterval() + 1;
    Campaign off(e.image.get(), offCfg), skew(e.image.get(), skewCfg);
    ASSERT_TRUE(off.profile());
    ASSERT_TRUE(skew.profile());
    ASSERT_GT(skew.checkpoints().size(), 0u);

    int fastForwarded = 0, fellBack = 0;
    for (const InjectionPoint& pt : rollbackSegvs(seeded, e.artifacts, 31, 6)) {
      const InjectionResult a = seeded.runInjection(pt, &e.artifacts);
      const InjectionResult b = off.runInjection(pt, &e.artifacts);
      const InjectionResult c = skew.runInjection(pt, &e.artifacts);
      EXPECT_EQ(b.replaySavedInstrs, 0u);
      EXPECT_EQ(c.replaySavedInstrs, 0u)
          << "mismatched grids must execute the prefix";
      // The plain leg of the skewed campaign still replays.
      fellBack += skew.runInjection(pt).replaySavedInstrs > 0;
      fastForwarded += a.replaySavedInstrs > 0;
      const std::vector<std::uint8_t> ref = recordBytes(off, pt, b);
      EXPECT_EQ(recordBytes(seeded, pt, a), ref);
      EXPECT_EQ(recordBytes(skew, pt, c), ref);
    }
    EXPECT_GT(fastForwarded, 0) << "no rollback re-run fast-forwarded";
    EXPECT_GT(fellBack, 0) << "skewed campaign never replayed a plain run";
  }
}

TEST(RollbackRecovery, SeededRingMatchesExecutedRingAtFirstRollback) {
  // The pin on ring seeding: when a trial first rolls back, every slot of
  // its seeded ring equals the same slot of a cache-off trial, whose ring
  // was filled by executing the prefix from instruction 0.
  ScopedEnv grid("CARE_CKPT_INTERVAL", "1000");
  CareEnv e = buildCare(kGridProg, "ringpin");

  Campaign regSeeded(e.image.get(), pinnedConfig(RecoveryStrategy::Rollback));
  CampaignConfig regOffCfg = pinnedConfig(RecoveryStrategy::Rollback);
  regOffCfg.checkpointEveryInstrs = 0;
  Campaign regOff(e.image.get(), regOffCfg);
  Campaign memSeeded(e.image.get(), eccConfig(RecoveryStrategy::Rollback));
  CampaignConfig memOffCfg = eccConfig(RecoveryStrategy::Rollback);
  memOffCfg.checkpointEveryInstrs = 0;
  Campaign memOff(e.image.get(), memOffCfg);
  for (Campaign* c : {&regSeeded, &regOff, &memSeeded, &memOff})
    ASSERT_TRUE(c->profile());
  ASSERT_GT(regSeeded.checkpoints().size(), 8u);

  std::vector<InjectionPoint> cases =
      rollbackSegvs(regSeeded, e.artifacts, 77, 6);
  for (std::uint64_t nth : {9500u, 12000u, 15500u})
    cases.push_back(scaleStrike(*e.image, nth));

  int seededRings = 0;
  for (const InjectionPoint& pt : cases) {
    const bool reg = pt.model == inject::FaultModel::Reg;
    const Campaign& seededCampaign = reg ? regSeeded : memSeeded;
    const Campaign& offCampaign = reg ? regOff : memOff;
    SCOPED_TRACE(std::string(inject::faultModelName(pt.model)) + " @" +
                 std::to_string(pt.nth));
    const ProbedTrial a = runProbed(seededCampaign, pt, e.artifacts);
    const ProbedTrial b = runProbed(offCampaign, pt, e.artifacts);
    ASSERT_GT(b.res.rollbacks, 0u);
    ASSERT_FALSE(b.ring.empty());
    expectSameRing(a.ring, b.ring);
    seededRings += a.res.replaySavedInstrs > 0;
    EXPECT_EQ(recordBytes(seededCampaign, pt, a.res),
              recordBytes(offCampaign, pt, b.res));
  }
  EXPECT_GE(seededRings, 3) << "too few trials took the seeded path";
}

TEST(RollbackRecovery, SeededRingEdgeCasesMatchCacheOff) {
  // Boundary geometry of ring seeding at a 1000-instruction grid, each
  // trial byte-identical to its cache-off twin under both rollback
  // strategies and ring capacities 1, 2 and 8:
  //   * a strike before the first boundary: no checkpoint precedes it, the
  //     trial executes from entry, every later slot holds the struck word
  //     and the rollback cascade lands on the pinned entry slot;
  //   * a strike exactly on a boundary: the seeded ring ends with the
  //     checkpoint at the strike time, which still holds the clean word;
  //   * a strike past slot capacity-1: seeding keeps only the newest
  //     capacity-1 golden checkpoints, as eviction would have.
  ScopedEnv grid("CARE_CKPT_INTERVAL", "1000");
  CareEnv e = buildCare(kGridProg, "ringedge");
  for (RecoveryStrategy s :
       {RecoveryStrategy::Rollback, RecoveryStrategy::RepairThenRollback}) {
    for (std::size_t cap : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::string(core::recoveryStrategyName(s)) + " cap " +
                   std::to_string(cap));
      CampaignConfig cfg = eccConfig(s);
      cfg.rollbackRingCap = cap;
      CampaignConfig offCfg = cfg;
      offCfg.checkpointEveryInstrs = 0;
      Campaign seeded(e.image.get(), cfg), off(e.image.get(), offCfg);
      ASSERT_TRUE(seeded.profile());
      ASSERT_TRUE(off.profile());

      for (std::uint64_t nth : {500u, 12000u, 15500u}) {
        SCOPED_TRACE("strike @" + std::to_string(nth));
        const InjectionPoint pt = scaleStrike(*e.image, nth);
        const ProbedTrial a = runProbed(seeded, pt, e.artifacts);
        const ProbedTrial b = runProbed(off, pt, e.artifacts);
        EXPECT_EQ(a.res.replaySavedInstrs, nth / 1000 * 1000);
        ASSERT_GT(b.res.rollbacks, 0u);
        expectSameRing(a.ring, b.ring);
        EXPECT_EQ(recordBytes(seeded, pt, a.res), recordBytes(off, pt, b.res));
        ASSERT_FALSE(a.ring.empty());
        EXPECT_EQ(a.ring.front().instrCount, 0u) << "entry slot not pinned";
        EXPECT_LE(a.ring.size(), cap);
        // Every trial here recovers: only checkpoints before the strike
        // are clean, and with one slot, or a strike before the first
        // boundary, that is the entry state alone.
        EXPECT_TRUE(a.res.careRecovered);
        if (cap == 1 || nth < 1000) {
          EXPECT_GE(a.res.rollbackReexecInstrs, 9000u)
              << "recovery did not rewind to the entry slot";
        }
      }
    }
  }
}

TEST(RollbackRecovery, EccUncorrectableTriggersRollbackRecovery) {
  // DUE-triggered recovery (DESIGN.md §4i + §4f): an adjacent double-bit
  // memory fault under SECDED surfaces as an EccUncorrectable trap
  // (Outcome::Detected). Kernel repair is meaningless for it — the data is
  // gone — but a rollback strategy rewinds past the strike, and the fault
  // is transient, so the re-execution completes on the golden path.
  CareEnv e = buildCare(kGridProg, "due");
  // Target &grid[400]: read at i=100 in every step's inner loop, so a
  // mid-run strike is always observed by a later load (random sampling
  // almost never hits a live word — the stack dominates the mapped pages).
  const auto& lm = e.image->module(0);
  std::uint64_t gridAddr = 0;
  for (const backend::MInst& in : lm.mod->functions[0].code)
    if (in.op == backend::MOp::Store && in.mem.globalIdx >= 0) {
      gridAddr = lm.globalAddr[static_cast<std::size_t>(in.mem.globalIdx)];
      break;
    }
  ASSERT_NE(gridAddr, 0u);

  CampaignConfig cfg = pinnedConfig(RecoveryStrategy::Rollback);
  cfg.fault = inject::FaultModel::Mem2Adj;
  cfg.ecc = vm::EccMode::Secded;
  Campaign roll(e.image.get(), cfg);
  ASSERT_TRUE(roll.profile());
  CampaignConfig repairCfg = pinnedConfig(RecoveryStrategy::Repair);
  repairCfg.fault = inject::FaultModel::Mem2Adj;
  repairCfg.ecc = vm::EccMode::Secded;
  Campaign repair(e.image.get(), repairCfg);
  ASSERT_TRUE(repair.profile());

  int dues = 0, recovered = 0;
  for (std::uint64_t frac : {4u, 2u}) {
    InjectionPoint pt;
    pt.model = inject::FaultModel::Mem2Adj;
    pt.nth = roll.goldenInstrs() / frac;
    pt.memAddr = gridAddr + 8 * 400;
    pt.bits = {4, 5};
    const InjectionResult plain = roll.runInjection(pt);
    ASSERT_TRUE(plain.injected);
    if (plain.outcome != Outcome::Detected ||
        plain.signal != vm::TrapKind::EccUncorrectable)
      continue;
    ++dues;
    // Repair-only strategies must propagate the DUE untouched: kernel
    // repair is meaningless when the data itself is gone.
    const InjectionResult rep = repair.runInjection(pt, &e.artifacts);
    EXPECT_EQ(rep.outcome, Outcome::Detected);
    EXPECT_EQ(rep.signal, vm::TrapKind::EccUncorrectable);
    EXPECT_EQ(rep.rollbacks, 0u);
    EXPECT_FALSE(rep.careRecovered);
    // The rollback strategy turns it into a survival: the fault is
    // transient, so rewinding past the strike genuinely erases it.
    const InjectionResult r = roll.runInjection(pt, &e.artifacts);
    EXPECT_TRUE(r.survived);
    if (!r.survived) continue;
    EXPECT_EQ(r.outcome, Outcome::RolledBack);
    EXPECT_GT(r.rollbacks, 0u);
    if (r.careRecovered) {
      EXPECT_TRUE(r.outputMatchesGolden);
      ++recovered;
    }
  }
  EXPECT_GT(dues, 0) << "no EccUncorrectable detection found to recover";
  EXPECT_GT(recovered, 0) << "no DUE recovered via rollback";
}

TEST(RollbackRecovery, EscapedOutputIsSdcNotRecovery) {
  // Output is externalized at emission: a rollback cannot unwind it, the
  // re-execution re-emits, and the classifier must see the mismatch —
  // RolledBack, not recovered. A program emitting every iteration
  // guarantees output stands between any checkpoint and a later fault.
  CareEnv e = buildCare(R"(
      double grid[512];
      int scale = 2;
      int main() {
        for (int i = 0; i < 512; i = i + 1) { grid[i] = i; }
        double s = 0.0;
        for (int i = 0; i < 150; i = i + 1) {
          s = s + grid[scale * i + 1];
          emit(s);
        }
        emit(s);
        return 0;
      })", "sdc");
  Campaign roll(e.image.get(), pinnedConfig(RecoveryStrategy::Rollback));
  ASSERT_TRUE(roll.profile());

  Rng rng(47);
  int rolledBackSdc = 0;
  for (int i = 0; i < 300 && rolledBackSdc == 0; ++i) {
    const InjectionPoint pt = roll.sample(rng);
    const InjectionResult plain = roll.runInjection(pt);
    if (plain.outcome != Outcome::SoftFailure ||
        plain.signal != vm::TrapKind::SegFault)
      continue;
    const InjectionResult r = roll.runInjection(pt, &e.artifacts);
    if (!r.survived) continue;
    EXPECT_EQ(r.outcome, Outcome::RolledBack);
    EXPECT_GT(r.rollbacks, 0u);
    if (!r.outputMatchesGolden) {
      ++rolledBackSdc;
      // The heart of the satellite: surviving via rollback with escaped
      // output is NOT a recovery.
      EXPECT_FALSE(r.careRecovered);
    }
  }
  EXPECT_GT(rolledBackSdc, 0)
      << "no rollback with escaped output found to classify";
}

} // namespace
} // namespace care::test
