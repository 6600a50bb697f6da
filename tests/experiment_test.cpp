// Experiment-runner tests: determinism, the campaign key, the result
// store as the campaign cache, aggregation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>

#include "inject/experiment.hpp"
#include "store_testutil.hpp"

namespace care::test {
namespace {

using inject::ExperimentConfig;
using inject::ExperimentResult;
using inject::Outcome;

ExperimentConfig smallConfig(const std::string& dir) {
  ExperimentConfig cfg;
  cfg.level = opt::OptLevel::O0;
  cfg.injections = 40;
  cfg.seed = 123;
  cfg.cacheDir = dir;
  return cfg;
}

/// smallConfig with pruning pinned off. An unpruned rerun whose shards are
/// all stored is served whole (fromCache); a pruned one re-profiles first
/// (PrunedRerunHitsEveryShard), so tests that assert fromCache pin this.
ExperimentConfig unprunedConfig(const std::string& dir) {
  ExperimentConfig cfg = smallConfig(dir);
  cfg.prune = pareto::PruneOptions{};
  return cfg;
}

TEST(Experiment, DeterministicForFixedSeed) {
  const std::string dir = "care_test_artifacts/exp_det";
  std::filesystem::remove_all(dir);
  inject::CampaignTelemetry tel1, tel2;
  const auto r1 = runExperiment(workloads::gtcp(), smallConfig(dir), &tel1);
  std::filesystem::remove_all(dir); // force a fresh (non-cached) rerun
  const auto r2 = runExperiment(workloads::gtcp(), smallConfig(dir), &tel2);
  expectComputed(tel1);
  expectComputed(tel2);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].plain.outcome, r2.records[i].plain.outcome);
    EXPECT_EQ(r1.records[i].point.nth, r2.records[i].point.nth);
    EXPECT_EQ(r1.records[i].point.bits, r2.records[i].point.bits);
    EXPECT_EQ(r1.records[i].withCare.careRecovered,
              r2.records[i].withCare.careRecovered);
  }
}

TEST(Experiment, CacheRoundTripsAggregates) {
  const std::string dir = "care_test_artifacts/exp_cache";
  std::filesystem::remove_all(dir);
  const auto fresh = runExperiment(workloads::hpccg(), smallConfig(dir));
  const auto cached = runExperiment(workloads::hpccg(), smallConfig(dir));
  EXPECT_EQ(fresh.records.size(), cached.records.size());
  EXPECT_EQ(fresh.goldenInstrs, cached.goldenInstrs);
  for (Outcome o : {Outcome::Benign, Outcome::SoftFailure, Outcome::SDC,
                    Outcome::Hang})
    EXPECT_EQ(fresh.count(o), cached.count(o));
  EXPECT_EQ(fresh.segvCount(), cached.segvCount());
  EXPECT_EQ(fresh.recoveredCount(), cached.recoveredCount());
  EXPECT_EQ(fresh.latencyBuckets(), cached.latencyBuckets());
}

// --- the campaign key --------------------------------------------------------

/// The key runExperiment derives for `cfg` (campaignConfigFor + campaignKey).
std::string keyOf(const ExperimentConfig& cfg,
                  const std::string& program = "HPCCG") {
  return inject::campaignKey(program, cfg.level, cfg.armor, cfg.careOnSegv,
                             inject::campaignConfigFor(cfg));
}

/// Every knob pinned, so the environment cannot leak into the table.
ExperimentConfig keyBase() {
  ExperimentConfig cfg = smallConfig("care_test_artifacts/exp_keys");
  cfg.armor.detectAuto = false;
  cfg.armor.detect.cfc = true;
  cfg.armor.detectSampleAuto = false;
  cfg.armor.detectSample = {16, 0};
  cfg.armor.recoverAuto = false;
  cfg.armor.recover = core::RecoveryStrategy::Repair;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  cfg.prune = pareto::PruneOptions{};
  cfg.ckptInterval = 5000;
  return cfg;
}

TEST(Experiment, CampaignKeyCoversEverySemanticField) {
  struct Row {
    const char* field;
    std::function<void(ExperimentConfig&)> flip;
  };
  const Row kSemantic[] = {
      {"level", [](auto& c) { c.level = opt::OptLevel::O1; }},
      {"bits", [](auto& c) { c.bits = 2; }},
      {"seed", [](auto& c) { c.seed = 124; }},
      {"careOnSegv", [](auto& c) { c.careOnSegv = false; }},
      {"patchBaseFirst", [](auto& c) { c.patchBaseFirst = true; }},
      {"requireNonLocalUse",
       [](auto& c) { c.armor.requireNonLocalUse = false; }},
      {"maximalSlicing", [](auto& c) { c.armor.maximalSlicing = true; }},
      {"inductionRecovery",
       [](auto& c) { c.armor.inductionRecovery = true; }},
      {"detect.cfc", [](auto& c) { c.armor.detect.cfc = false; }},
      {"detect.addr", [](auto& c) { c.armor.detect.addr = true; }},
      {"sample.rate", [](auto& c) { c.armor.detectSample.rate = 8; }},
      {"sample.epoch", [](auto& c) { c.armor.detectSample.epoch = 3; }},
      {"recover",
       [](auto& c) {
         c.armor.recover = core::RecoveryStrategy::RepairThenRollback;
       }},
      {"fault", [](auto& c) { c.fault = inject::FaultModel::Mem1; }},
      {"ecc", [](auto& c) { c.ecc = vm::EccMode::Secded; }},
      {"prune.enabled", [](auto& c) { c.prune = pareto::PruneOptions{true}; }},
  };
  const Row kPerformance[] = {
      {"threads", [](auto& c) { c.threads = 4; }},
      {"processes", [](auto& c) { c.processes = 3; }},
      {"injections", [](auto& c) { c.injections = 400; }},
      {"cacheDir", [](auto& c) { c.cacheDir = "elsewhere"; }},
      {"ckptInterval under repair", [](auto& c) { c.ckptInterval = 7000; }},
      {"sample.epoch mod rate",
       [](auto& c) { c.armor.detectSample.epoch = 16; }},
  };
  const std::string base = keyOf(keyBase());
  std::set<std::string> seen{base};
  for (const Row& row : kSemantic) {
    ExperimentConfig cfg = keyBase();
    row.flip(cfg);
    const std::string key = keyOf(cfg);
    EXPECT_NE(key, base) << row.field;
    EXPECT_TRUE(seen.insert(key).second) << row.field << " collides";
  }
  EXPECT_NE(keyOf(keyBase(), "CoMD"), base) << "program";
  for (const Row& row : kPerformance) {
    ExperimentConfig cfg = keyBase();
    row.flip(cfg);
    EXPECT_EQ(keyOf(cfg), base) << row.field;
  }

  // The interpreter backend is not an input at all.
  {
    struct InterpGuard {
      vm::InterpKind saved = vm::defaultInterp();
      ~InterpGuard() { vm::setDefaultInterp(saved); }
    } guard;
    vm::setDefaultInterp(vm::InterpKind::Ref);
    EXPECT_EQ(keyOf(keyBase()), base) << "backend";
  }

  // The prune audit count is a verification knob, even with pruning on.
  ExperimentConfig pruned = keyBase();
  pruned.prune = pareto::PruneOptions{true, 0};
  ExperimentConfig audited = pruned;
  audited.prune->auditK = 5;
  EXPECT_EQ(keyOf(audited), keyOf(pruned)) << "prune.auditK";

  // Under a rollback strategy checkpoint placement is semantic.
  ExperimentConfig rollback = keyBase();
  rollback.armor.recover = core::RecoveryStrategy::RepairThenRollback;
  ExperimentConfig rollbackMoved = rollback;
  rollbackMoved.ckptInterval = 7000;
  EXPECT_NE(keyOf(rollbackMoved), keyOf(rollback))
      << "ckptInterval under repair_then_rollback";

  // carecc's campaigns set CampaignConfig fields runExperiment pins.
  const inject::CampaignConfig cc = inject::campaignConfigFor(keyBase());
  const auto ccKey = [&](const std::function<void(inject::CampaignConfig&)>&
                             flip) {
    inject::CampaignConfig c = cc;
    flip(c);
    return inject::campaignKey("HPCCG", opt::OptLevel::O0, keyBase().armor,
                               true, c);
  };
  EXPECT_EQ(ccKey([](auto&) {}), base);
  EXPECT_NE(ccKey([](auto& c) { c.entry = "other"; }), base) << "entry";
  EXPECT_NE(ccKey([](auto& c) { c.hangFactor = 10; }), base) << "hangFactor";
  EXPECT_NE(ccKey([](auto& c) { c.targetModules = {0, 1}; }), base)
      << "targetModules";
  EXPECT_NE(ccKey([](auto& c) { c.rollbackRingCap += 1; }), base)
      << "rollbackRingCap";
}

TEST(Experiment, DistinctConfigsGetDistinctStoreKeys) {
  const std::string dir = "care_test_artifacts/exp_keys";
  std::filesystem::remove_all(dir);
  auto c1 = smallConfig(dir);
  auto c2 = smallConfig(dir);
  c2.bits = 2;
  runExperiment(workloads::minife(), c1);
  runExperiment(workloads::minife(), c2);
  EXPECT_EQ(storedCampaignKeys(dir), 2);
}

// --- parallel campaign engine -----------------------------------------------

TEST(Experiment, ParallelCampaignMatchesSerialByteForByte) {
  // The engine's contract: for any `threads`, the deterministic portion of
  // the records (points, outcomes, signals, latencies, CARE results) is
  // bit-identical to the legacy serial loop. Both runs are cold (the cache
  // is wiped in between) so this exercises real execution, not cache reuse.
  const std::string dir = "care_test_artifacts/exp_par_eq";
  std::filesystem::remove_all(dir);
  auto serialCfg = smallConfig(dir);
  serialCfg.threads = 1;
  inject::CampaignTelemetry serialTel;
  const ExperimentResult serial =
      runExperiment(workloads::gtcp(), serialCfg, &serialTel);
  expectComputed(serialTel);
  std::filesystem::remove_all(dir);
  auto parCfg = smallConfig(dir);
  parCfg.threads = 4;
  inject::CampaignTelemetry tel;
  const ExperimentResult parallel =
      runExperiment(workloads::gtcp(), parCfg, &tel);
  expectComputed(tel);
  EXPECT_EQ(tel.threads, 4);
  EXPECT_EQ(tel.trials, parCfg.injections);
  EXPECT_GT(tel.wallSec, 0.0);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_EQ(serial.goldenInstrs, parallel.goldenInstrs);
  EXPECT_EQ(inject::serializeDeterministic(serial),
            inject::serializeDeterministic(parallel));
}

TEST(Experiment, ThreadsStayOutOfTheCacheKey) {
  // A serial-written campaign must be reused verbatim by a parallel run:
  // one store key, fromCache=true, and identical records including the
  // wall-clock timing fields (which only a store hit could reproduce).
  const std::string dir = "care_test_artifacts/exp_par_key";
  std::filesystem::remove_all(dir);
  auto serialCfg = unprunedConfig(dir);
  serialCfg.threads = 1;
  const ExperimentResult serial =
      runExperiment(workloads::minife(), serialCfg);
  auto parCfg = unprunedConfig(dir);
  parCfg.threads = 4;
  inject::CampaignTelemetry tel;
  const ExperimentResult parallel =
      runExperiment(workloads::minife(), parCfg, &tel);
  EXPECT_TRUE(tel.fromCache);
  EXPECT_EQ(storedCampaignKeys(dir), 1);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_EQ(inject::serializeDeterministic(serial),
            inject::serializeDeterministic(parallel));
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.records[i].withCare.recoveryUsTotal,
                     parallel.records[i].withCare.recoveryUsTotal);
    EXPECT_DOUBLE_EQ(serial.records[i].withCare.kernelUsTotal,
                     parallel.records[i].withCare.kernelUsTotal);
  }
}

TEST(Experiment, InterpBackendStaysOutOfTheCacheKey) {
  // The interpreter backend is a performance knob with a bit-identical
  // contract (vm_diff_test), so a campaign cached under one backend must be
  // served verbatim to a campaign running under another: one store key,
  // fromCache=true, identical deterministic bytes. Only the telemetry
  // records which backend each run resolved.
  struct InterpGuard {
    vm::InterpKind saved = vm::defaultInterp();
    ~InterpGuard() { vm::setDefaultInterp(saved); }
  } guard;
  const std::string dir = "care_test_artifacts/exp_interp_key";
  std::filesystem::remove_all(dir);
  vm::setDefaultInterp(vm::InterpKind::Ref);
  inject::CampaignTelemetry refTel;
  const ExperimentResult ref =
      runExperiment(workloads::hpccg(), unprunedConfig(dir), &refTel);
  expectComputed(refTel);
  EXPECT_EQ(refTel.interp, "ref");
  vm::setDefaultInterp(vm::InterpKind::Jit);
  inject::CampaignTelemetry jitTel;
  const ExperimentResult jit =
      runExperiment(workloads::hpccg(), unprunedConfig(dir), &jitTel);
  EXPECT_TRUE(jitTel.fromCache);
  EXPECT_EQ(jitTel.interp, "jit");
  EXPECT_EQ(storedCampaignKeys(dir), 1);
  EXPECT_EQ(inject::serializeDeterministic(ref),
            inject::serializeDeterministic(jit));
  for (std::size_t i = 0; i < ref.records.size(); ++i)
    EXPECT_DOUBLE_EQ(ref.records[i].withCare.recoveryUsTotal,
                     jit.records[i].withCare.recoveryUsTotal);
}

TEST(Experiment, ParallelWrittenCacheRoundTrips) {
  // The inverse direction: a campaign executed by the parallel engine is
  // written to disk and loaded back with an identical ExperimentResult.
  const std::string dir = "care_test_artifacts/exp_par_rt";
  std::filesystem::remove_all(dir);
  auto cfg = unprunedConfig(dir);
  cfg.threads = 4;
  inject::CampaignTelemetry cold, warm;
  const ExperimentResult fresh = runExperiment(workloads::gtcp(), cfg, &cold);
  const ExperimentResult cached = runExperiment(workloads::gtcp(), cfg, &warm);
  EXPECT_FALSE(cold.fromCache);
  EXPECT_TRUE(warm.fromCache);
  ASSERT_EQ(fresh.records.size(), cached.records.size());
  EXPECT_EQ(fresh.goldenInstrs, cached.goldenInstrs);
  EXPECT_EQ(inject::serializeDeterministic(fresh),
            inject::serializeDeterministic(cached));
  for (Outcome o : {Outcome::Benign, Outcome::SoftFailure, Outcome::SDC,
                    Outcome::Hang})
    EXPECT_EQ(fresh.count(o), cached.count(o));
  EXPECT_EQ(fresh.recoveredCount(), cached.recoveredCount());
  for (std::size_t i = 0; i < fresh.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(fresh.records[i].withCare.recoveryUsTotal,
                     cached.records[i].withCare.recoveryUsTotal);
    EXPECT_DOUBLE_EQ(fresh.records[i].plain.recoveryUsTotal,
                     cached.records[i].plain.recoveryUsTotal);
  }
}

// --- the result store as the campaign cache ----------------------------------

TEST(Experiment, DamagedShardIsRecomputedAndRewritten) {
  // One flipped byte in one stored shard: the rerun recomputes exactly that
  // shard, rewrites it, and returns byte-identical records.
  const std::string dir = "care_test_artifacts/exp_damaged";
  std::filesystem::remove_all(dir);
  const ExperimentConfig cfg = unprunedConfig(dir); // shards 16 + 16 + 8
  inject::CampaignTelemetry cold, repaired, warm;
  const ExperimentResult first = runExperiment(workloads::gtcp(), cfg, &cold);
  expectComputed(cold);
  std::string victim;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().filename().string().find("_16_16.crst") != std::string::npos)
      victim = e.path().string();
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    const auto off =
        static_cast<std::streamoff>(std::filesystem::file_size(victim) / 2);
    f.seekg(off);
    char c = 0;
    f.get(c);
    f.seekp(off);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  const ExperimentResult second =
      runExperiment(workloads::gtcp(), cfg, &repaired);
  EXPECT_FALSE(repaired.fromCache);
  EXPECT_EQ(repaired.shards, 3);
  EXPECT_EQ(repaired.storeHits, 2);
  EXPECT_EQ(repaired.storeMisses, 1);
  EXPECT_EQ(inject::serializeDeterministic(first),
            inject::serializeDeterministic(second));
  // The rewritten shard serves the next rerun whole.
  const ExperimentResult third = runExperiment(workloads::gtcp(), cfg, &warm);
  EXPECT_TRUE(warm.fromCache);
  EXPECT_EQ(inject::serializeDeterministic(first),
            inject::serializeDeterministic(third));
}

TEST(Experiment, LongerCampaignResumesFromShorterOne) {
  // The injection count stays out of the key: growing a campaign from 24
  // to 40 trials reuses the one full shard the shorter run stored (its
  // 8-trial tail shard does not line up with the longer run's shards).
  const std::string dir = "care_test_artifacts/exp_grow";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg = unprunedConfig(dir);
  cfg.injections = 24;
  inject::CampaignTelemetry shortTel, longTel;
  const ExperimentResult shorter =
      runExperiment(workloads::hpccg(), cfg, &shortTel);
  expectComputed(shortTel);
  cfg.injections = 40;
  const ExperimentResult longer =
      runExperiment(workloads::hpccg(), cfg, &longTel);
  EXPECT_FALSE(longTel.fromCache);
  EXPECT_EQ(longTel.shards, 3);
  EXPECT_EQ(longTel.storeHits, 1);
  EXPECT_EQ(longTel.storeMisses, 2);
  ASSERT_EQ(longer.records.size(), 40u);
  EXPECT_EQ(shorter.goldenInstrs, longer.goldenInstrs);
  for (std::size_t i = 0; i < shorter.records.size(); ++i)
    EXPECT_EQ(inject::serializeDeterministicRecord(shorter.records[i]),
              inject::serializeDeterministicRecord(longer.records[i]))
        << "trial " << i;
  // And a fresh 40-trial campaign equals the grown one.
  std::filesystem::remove_all(dir);
  inject::CampaignTelemetry freshTel;
  const ExperimentResult fresh =
      runExperiment(workloads::hpccg(), cfg, &freshTel);
  expectComputed(freshTel);
  EXPECT_EQ(inject::serializeDeterministic(fresh),
            inject::serializeDeterministic(longer));
}

TEST(Experiment, PrunedRerunHitsEveryShard) {
  // A pruned campaign stores its representatives, known only after
  // profiling: the rerun rebuilds and re-profiles, then serves every shard.
  const std::string dir = "care_test_artifacts/exp_pruned_rerun";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg = smallConfig(dir);
  cfg.prune = pareto::PruneOptions{true, 0};
  inject::CampaignTelemetry cold, warm;
  const ExperimentResult first = runExperiment(workloads::gtcp(), cfg, &cold);
  expectComputed(cold);
  const ExperimentResult second = runExperiment(workloads::gtcp(), cfg, &warm);
  EXPECT_FALSE(warm.fromCache);
  EXPECT_GT(warm.shards, 0);
  EXPECT_EQ(warm.storeHits, warm.shards);
  EXPECT_EQ(warm.storeMisses, 0);
  EXPECT_EQ(inject::serializeDeterministic(first),
            inject::serializeDeterministic(second));
}

TEST(Experiment, AggregatesAreConsistent) {
  const auto r = runExperiment(workloads::gtcp(),
                               smallConfig("care_test_artifacts/exp_det"));
  const int total = r.count(Outcome::Benign) + r.count(Outcome::SoftFailure) +
                    r.count(Outcome::SDC) + r.count(Outcome::Hang) +
                    r.count(Outcome::Detected) + r.count(Outcome::RolledBack) +
                    r.count(Outcome::Corrected);
  EXPECT_EQ(total, static_cast<int>(r.records.size()));
  const auto b = r.latencyBuckets();
  EXPECT_EQ(b[0] + b[1] + b[2] + b[3], r.count(Outcome::SoftFailure));
  EXPECT_LE(r.recoveredCount(), r.segvCount());
  EXPECT_GE(r.coverage(), 0.0);
  EXPECT_LE(r.coverage(), 1.0);
}

} // namespace
} // namespace care::test
