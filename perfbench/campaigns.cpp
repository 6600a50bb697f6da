// The two campaign workloads.
//
// reg_care: single-bit register faults into the four CARE mini-apps at O0,
//   every SIGSEGV trial re-run under Safeguard with repair_then_rollback,
//   pruning on, in-process engine. Safeguard and the checkpoint ring work;
//   the forked service, result store and ECC stay idle.
// mem_ecc: mem1 and mem2adj faults (equal halves) into all five mini-apps
//   at O0 under SECDED ECC with CARE attached, pruning off, through the
//   forked service with a fresh result store; every campaign is then
//   resubmitted with more trials under the same key so part of it comes
//   from the store. ECC, the service and the store work; Safeguard is
//   nearly idle.
//
// A round runs every campaign once over the same seeded trial set, so the
// outcome shares repeat exactly at a seed and every round after the first
// must reproduce the first's deterministic records. Every timing is scaled
// to the reference host speed (hostspeed.hpp).
#include <memory>

#include "build.hpp"
#include "common.hpp"
#include "hostspeed.hpp"
#include "inject/experiment.hpp"
#include "inject/injector.hpp"
#include "inject/service.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "support/md5.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

namespace carebench {

using namespace care;

namespace {

/// Set-ups per phase: half before the timed loop, half after it, so that
/// their median spans the run instead of one moment of a drifting host.
constexpr int kSetupReps = 8;
/// Share of the timed loop spent on fault-free passes (run_ms, overhead_x).
constexpr double kCleanShare = 0.2;
constexpr int kMinPasses = 5;
/// Small shards so one submission still spreads over every worker.
constexpr int kShardSize = 4;
/// Spacing of host-speed samples in the timed loop.
constexpr double kSampleEverySec = 0.25;

struct Plan {
  std::vector<ProgramSpec> programs;
  std::vector<inject::FaultModel> models;
  vm::EccMode ecc;
  core::RecoveryStrategy recover;
  bool prune;
  bool forked;     // forked service + result store instead of the engine
  Guard guard;     // defenses of a protected fault-free run
  int trials;      // trials per campaign (the cold submission when forked)
  int resubmitTrials; // forked: the overlapping resubmission's size
  int refSamples;  // trials per campaign re-run on the ref interpreter
};

struct Target {
  std::size_t program = 0;
  inject::FaultModel model = inject::FaultModel::Reg;
  std::uint64_t seed = 0;
  std::unique_ptr<inject::Campaign> campaign;
  std::vector<inject::InjectionRecord> firstRound;
};

struct Deployment {
  std::vector<Program> prot, plain;
  std::vector<Target> targets;
  std::vector<std::uint64_t> ringInterval; // per program
  std::vector<double> firstRunMs;          // per protected program
  BuildStats stats;
};

std::vector<std::uint8_t> deterministicBytes(
    const std::vector<inject::InjectionRecord>& recs, std::size_t n) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < n && i < recs.size(); ++i) {
    const auto b = inject::serializeDeterministicRecord(recs[i]);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

Deployment deploy(const Plan& plan, const Options& o, Gates& gates) {
  Deployment d;
  BuildConfig pc;
  pc.artifactDir = o.scratchDir + "/artifacts";
  BuildConfig uc = pc;
  uc.care = false;
  uc.protectedSpans = false;
  BuildStats ignored;
  for (const ProgramSpec& spec : plan.programs) {
    d.prot.push_back(buildProgram(spec, pc, d.stats));
    d.plain.push_back(buildProgram(spec, uc, ignored));
  }
  for (std::size_t i = 0; i < d.prot.size(); ++i) {
    for (std::size_t m = 0; m < plan.models.size(); ++m) {
      inject::CampaignConfig c;
      c.seed = Rng::stream(o.seed, i * plan.models.size() + m).next();
      c.bitsToFlip = 1;
      c.hangFactor = 4;
      c.targetModules = {0};
      c.checkpointEveryInstrs = inject::CampaignConfig::kCkptAuto;
      c.recover = plan.recover;
      c.rollbackRingCap = vm::CheckpointRing::kDefaultCapacity;
      c.fault = plan.models[m];
      c.ecc = plan.ecc;
      c.prune = {plan.prune, 0};
      Target t;
      t.program = i;
      t.model = plan.models[m];
      t.seed = c.seed;
      t.campaign =
          std::make_unique<inject::Campaign>(d.prot[i].image.get(), c);
      if (!t.campaign->profile()) {
        gates.fail(d.prot[i].name + ": golden run failed to profile");
        continue;
      }
      d.targets.push_back(std::move(t));
    }
    // The rollback ring of a protected run uses the campaign's spacing.
    d.ringInterval.push_back(
        d.targets.empty() ? 0
                          : d.targets.back().campaign->checkpointInterval());
  }
  // First runs: the JIT compiles every function a run reaches.
  for (std::size_t i = 0; i < d.prot.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      trace::Span span("vm.first_run", "vm");
      (void)runClean(d.prot[i], plan.guard, d.ringInterval[i]);
    }
    d.firstRunMs.push_back(msSince(t0));
    trace::Span span("plain.first_run", "vm");
    (void)runClean(d.plain[i], Guard::None);
  }
  return d;
}

Phase runCampaignWorkload(const Plan& plan, const Options& o, bool traced,
                          double seconds, Gates& gates) {
  SpanLog log(traced, o.scratchDir);
  HostSpeed hs;
  const std::string phaseTag = traced ? "traced" : "untraced";
  const std::string storeDir = o.scratchDir + "/store";

  // --- set-up, repeated; the last one before the loop serves it ---------
  std::vector<Timed> setupSec;
  auto timedDeploy = [&] {
    hs.sample();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Deployment> fresh;
    {
      trace::Span span("bench.setup", "bench");
      fresh = std::make_unique<Deployment>(deploy(plan, o, gates));
    }
    setupSec.push_back({t0, Clock::now(), secondsSince(t0)});
    hs.sample();
    log.harvest();
    return fresh;
  };
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps / 2; ++rep) {
    dep.reset();
    dep = timedDeploy();
  }
  Deployment& d = *dep;

  // --- correctness gates on the deployment -------------------------------
  std::vector<std::vector<std::uint64_t>> reference;
  Md5 digest;
  for (std::size_t i = 0; i < d.plain.size(); ++i) {
    const CleanRun ref = runReference(d.plain[i]);
    gates.check(ref.done, d.plain[i].name + ": reference run failed");
    reference.push_back(ref.output);
    digest.update(ref.output.data(), ref.output.size() * 8);
    BuildConfig pc;
    pc.artifactDir = o.scratchDir + "/artifacts";
    gates.check(stagedMatchesCareCompile(plan.programs[i], pc),
                d.prot[i].name + ": staged build differs from careCompile");
  }
  for (const Target& t : d.targets)
    gates.check(t.campaign->goldenOutput() == reference[t.program],
                d.prot[t.program].name + ": golden output != reference");
  log.harvest();

  // --- timed loop ---------------------------------------------------------
  TelemetrySum tel;
  ActivationSum acts;
  OutcomeTally outcomes;
  std::vector<Timed> latencyMs;    // recovery (in-process) or submission
  std::vector<Timed> campaignSec;  // one per submission
  std::vector<Timed> protPassMs;
  std::vector<double> passRatio;
  std::vector<std::vector<double>> runMs(d.prot.size());
  long delivered = 0;

  auto submit = [&](Target& t, int trials, const inject::ServiceConfig& svc,
                    std::vector<inject::InjectionRecord>& recs) {
    inject::CampaignTelemetry ct;
    hs.sampleEvery(kSampleEverySec);
    const Clock::time_point t0 = Clock::now();
    try {
      trace::Span span("bench.campaign", "bench");
      recs = inject::runCampaign(*t.campaign, trials, t.seed, o.threads,
                                 &d.prot[t.program].artifacts, &ct, &svc);
    } catch (const std::exception& e) {
      gates.fail(d.prot[t.program].name + ": campaign threw: " + e.what(),
                 trials);
      return false;
    }
    const Timed done{t0, Clock::now(), secondsSince(t0)};
    campaignSec.push_back(done);
    delivered += static_cast<long>(recs.size());
    tel.add(ct);
    gates.check(!ct.fromCache && static_cast<int>(recs.size()) == trials,
                d.prot[t.program].name + ": campaign served from a cache",
                trials);
    if (plan.forked) latencyMs.push_back({done.t0, done.t1, 1e3 * done.raw});
    return true;
  };

  auto checkRound = [&](Target& t, int round,
                        const std::vector<inject::InjectionRecord>& recs) {
    if (round == 0) {
      t.firstRound = recs;
      for (const auto& r : recs) outcomes.add(r);
      const auto bytes = deterministicBytes(recs, recs.size());
      digest.update(bytes.data(), bytes.size());
      return;
    }
    gates.check(deterministicBytes(recs, recs.size()) ==
                    deterministicBytes(t.firstRound, t.firstRound.size()),
                d.prot[t.program].name + ": round " + std::to_string(round) +
                    " records differ from round 0");
  };

  auto runRound = [&](int round) {
    for (Target& t : d.targets) {
      inject::ServiceConfig svc;
      svc.threads = o.threads;
      std::vector<inject::InjectionRecord> recs;
      if (!plan.forked) {
        if (!submit(t, plan.trials, svc, recs)) continue;
        for (const auto& r : recs) {
          acts.add(r);
          const bool segv = r.plain.outcome == inject::Outcome::SoftFailure &&
                            r.plain.signal == vm::TrapKind::SegFault;
          if (segv && r.haveCare && r.withCare.careRecovered)
            latencyMs.push_back({campaignSec.back().t0, campaignSec.back().t1,
                                 r.withCare.recoveryUsTotal / 1e3});
        }
        checkRound(t, round, recs);
        continue;
      }
      // Forked: a cold submission, then an overlapping resubmission under
      // the same store key. Keys are fresh per phase and round, so every
      // cold submission misses and the overlap is exactly the cold part.
      svc.processes = o.threads;
      svc.shardSize = kShardSize;
      svc.storeDir = storeDir;
      svc.storeKey =
          Md5::hash("carebench|" + phaseTag + "|" + std::to_string(round) +
                    "|" + d.prot[t.program].name + "|" +
                    inject::faultModelName(t.model) + "|" +
                    std::to_string(t.seed))
              .hex();
      const long hits0 = tel.storeHits, misses0 = tel.storeMisses;
      if (!submit(t, plan.trials, svc, recs)) continue;
      gates.check(tel.storeHits == hits0 &&
                      tel.storeMisses - misses0 == plan.trials / kShardSize,
                  d.prot[t.program].name + ": cold submission hit the store");
      for (const auto& r : recs) acts.add(r);
      checkRound(t, round, recs);
      std::vector<inject::InjectionRecord> again;
      const long hits1 = tel.storeHits, misses1 = tel.storeMisses;
      if (!submit(t, plan.resubmitTrials, svc, again)) continue;
      gates.check(
          tel.storeHits - hits1 == plan.trials / kShardSize &&
              tel.storeMisses - misses1 ==
                  (plan.resubmitTrials - plan.trials) / kShardSize,
          d.prot[t.program].name + ": store hits outside the planned overlap");
      gates.check(deterministicBytes(again, recs.size()) ==
                      deterministicBytes(recs, recs.size()),
                  d.prot[t.program].name + ": resubmission differs");
      for (std::size_t k = recs.size(); k < again.size(); ++k)
        acts.add(again[k]);
      if (round == 0) {
        const auto tail = deterministicBytes(again, again.size());
        digest.update(tail.data(), tail.size());
      }
    }
  };

  auto cleanPair = [&] {
    hs.sampleEvery(kSampleEverySec);
    const Clock::time_point p0 = Clock::now();
    const PassTimes pt =
        cleanPass(d.prot, d.plain, plan.guard, d.ringInterval, reference, gates);
    for (std::size_t i = 0; i < pt.protRunMs.size(); ++i)
      runMs[i].push_back(pt.protRunMs[i]);
    protPassMs.push_back({p0, Clock::now(), pt.protMs});
    passRatio.push_back(pt.protMs / std::max(1e-9, pt.plainMs));
  };

  // One untimed submission first: the first campaign of a process pays
  // one-off start-up costs (up to a second seen on the forked service). Its
  // time is reported as warmup_s, outside every metric.
  double warmupSec = 0;
  if (!d.targets.empty()) {
    const Target& t = d.targets.front();
    inject::ServiceConfig svc;
    svc.threads = o.threads;
    if (plan.forked) {
      svc.processes = o.threads;
      svc.shardSize = kShardSize;
      svc.storeDir = storeDir;
      svc.storeKey = Md5::hash("carebench|warm-up|" + phaseTag).hex();
    }
    const Clock::time_point t0 = Clock::now();
    try {
      (void)inject::runCampaign(*t.campaign, plan.trials, t.seed, o.threads,
                                &d.prot[t.program].artifacts, nullptr, &svc);
      warmupSec = secondsSince(t0);
    } catch (const std::exception& e) {
      gates.fail(std::string("warm-up campaign threw: ") + e.what());
    }
  }

  const Clock::time_point loop0 = Clock::now();
  double cleanSec = 0;
  int rounds = 0;
  // Rounds are long; one is not started when it would likely overrun.
  while (rounds == 0 ||
         secondsSince(loop0) * (rounds + 1) / rounds <= seconds) {
    runRound(rounds++);
    log.harvest();
    while (static_cast<int>(protPassMs.size()) < kMinPasses ||
           cleanSec < kCleanShare * secondsSince(loop0)) {
      const Clock::time_point t0 = Clock::now();
      cleanPair();
      cleanSec += secondsSince(t0);
      log.harvest();
    }
  }
  hs.sample();

  // --- a seeded sample of first-round trials, re-run on `ref` ------------
  struct Pick {
    std::size_t target;
    std::size_t trial;
  };
  std::vector<Pick> picks;
  Rng pickRng = Rng::stream(o.seed, 0x5EEDull);
  for (std::size_t t = 0; t < d.targets.size(); ++t)
    for (int k = 0; k < plan.refSamples && !d.targets[t].firstRound.empty();
         ++k)
      picks.push_back({t, pickRng.below(d.targets[t].firstRound.size())});
  vm::setDefaultInterp(vm::InterpKind::Ref);
  try {
    const auto refRecs = inject::runTrialPool(
        static_cast<int>(picks.size()), o.seed, o.threads,
        [&](int i, Rng&) {
          const Pick& p = picks[static_cast<std::size_t>(i)];
          const Target& t = d.targets[p.target];
          const inject::InjectionRecord& orig = t.firstRound[p.trial];
          inject::InjectionRecord r;
          r.point = orig.point;
          r.plain = t.campaign->runInjection(r.point);
          if (orig.haveCare) {
            r.haveCare = true;
            r.withCare = t.campaign->runInjection(
                r.point, &d.prot[t.program].artifacts);
          }
          return r;
        },
        nullptr);
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const Target& t = d.targets[picks[i].target];
      gates.check(inject::serializeDeterministicRecord(refRecs[i]) ==
                      inject::serializeDeterministicRecord(
                          t.firstRound[picks[i].trial]),
                  d.prot[t.program].name + ": trial " +
                      std::to_string(picks[i].trial) + " differs on ref");
    }
  } catch (const std::exception& e) {
    gates.fail(std::string("ref re-run threw: ") + e.what(),
               static_cast<long>(picks.size()));
  }
  vm::setDefaultInterp(vm::InterpKind::Jit);
  log.harvest();

  // --- metrics ------------------------------------------------------------
  const std::size_t jitFns =
      jitFunctions(d.prot, gates) + jitFunctions(d.plain, gates);
  const BuildStats buildStats = d.stats;
  const std::vector<double> firstRunMs = d.firstRunMs;
  dep.reset();
  while (static_cast<int>(setupSec.size()) < kSetupReps) (void)timedDeploy();

  Phase ph;
  ph.digest = digest.finish().hex();
  double rawSec = 0, scaledSec = 0;
  for (const Timed& t : campaignSec) {
    rawSec += t.raw;
    scaledSec += t.scaled(hs);
  }
  std::vector<double> latency, rawLatency, setupScaled, setupRaw;
  for (const Timed& t : latencyMs) {
    latency.push_back(t.scaled(hs));
    rawLatency.push_back(t.raw);
  }
  for (const Timed& t : setupSec) {
    setupScaled.push_back(t.scaled(hs));
    setupRaw.push_back(t.raw);
  }
  std::vector<double> passScaled, passRaw;
  for (const Timed& t : protPassMs) {
    passScaled.push_back(t.scaled(hs));
    passRaw.push_back(t.raw);
  }
  const double throughput = scaledSec > 0 ? delivered / scaledSec : 0;
  const double runP50 = median(passScaled);
  ph.passMs = runP50;
  const double overhead = median(passRatio);
  ph.e2e["setup_s"] = median(setupScaled);
  ph.e2e["throughput_per_s"] = throughput;
  ph.e2e["latency_ms_p50"] = median(latency);
  ph.e2e["latency_ms_p90"] = percentile(latency, 0.9);
  ph.e2e["overhead_x"] = overhead;

  std::string cfg = "config apps=";
  for (std::size_t i = 0; i < plan.programs.size(); ++i)
    cfg.append(i ? "," : "").append(plan.programs[i].name);
  cfg += " level=O0 care=on fault=";
  for (std::size_t i = 0; i < plan.models.size(); ++i)
    cfg.append(i ? "," : "").append(inject::faultModelName(plan.models[i]));
  cfg.append(" ecc=").append(vm::eccModeName(plan.ecc));
  cfg.append(" recover=").append(core::recoveryStrategyName(plan.recover));
  cfg += plan.prune ? " prune=on" : " prune=off";
  cfg += plan.forked ? " engine=forked store=fresh:" : " engine=threads:";
  cfg.append(std::to_string(o.threads)).append(" trials=");
  cfg += std::to_string(plan.trials);
  if (plan.forked) cfg.append("+").append(std::to_string(plan.resubmitTrials));
  cfg += " hang_factor=4 ckpt=auto ring=8";
  ph.report.push_back(cfg);
  const std::string n = " n=" + std::to_string(latencyMs.size());
  ph.report.push_back(reportLine("trials_per_s", throughput, "1/s", "higher",
                                 std::to_string(delivered) + " trials, " +
                                     std::to_string(rounds) + " rounds"));
  if (!plan.forked) {
    ph.report.push_back(reportLine("recovery_us_p50", 1e3 * median(latency),
                                   "us", "lower", n));
    ph.report.push_back(reportLine("recovery_us_p90",
                                   1e3 * percentile(latency, 0.9), "us",
                                   "lower", n));
    ph.report.push_back(reportLine("coverage_pct", outcomes.coveragePct(), "%",
                                   "higher",
                                   std::to_string(outcomes.recovered) + "/" +
                                       std::to_string(outcomes.segv)));
  } else {
    ph.report.push_back(reportLine("submission_ms_p50", median(latency),
                                   "ms", "lower", n));
    ph.report.push_back(reportLine("submission_ms_p90",
                                   percentile(latency, 0.9), "ms", "lower",
                                   n));
  }
  ph.report.push_back(reportLine("sdc_pct", outcomes.sdcPct(), "%", "lower",
                                 std::to_string(outcomes.injected) +
                                     " injected"));
  ph.report.push_back(
      reportLine("crash_pct", outcomes.crashPct(), "%", "lower"));
  ph.report.push_back(reportLine("run_ms_p50", runP50, "ms", "lower",
                                 std::to_string(protPassMs.size()) +
                                     " passes"));
  ph.report.push_back(reportLine("overhead_x", overhead, "x", "lower"));
  ph.report.push_back(hostLine(hs));
  ph.report.push_back(reportLine("raw_trials_per_s",
                                 rawSec > 0 ? delivered / rawSec : 0, "1/s",
                                 "higher", "unscaled"));
  ph.report.push_back(reportLine("raw_latency_ms_p50", median(rawLatency),
                                 "ms", "lower", "unscaled"));
  ph.report.push_back(reportLine("raw_setup_s", median(setupRaw), "s", "lower",
                                 "unscaled"));
  ph.report.push_back(reportLine("warmup_s", warmupSec, "s", "lower",
                                 "unscaled, first campaign, untimed"));

  fillBuildLayers(ph, log, kSetupReps, buildStats);
  fillCleanLayers(ph, passRaw, firstRunMs, runMs, jitFns);
  fillCampaignLayers(ph, log, tel, acts, outcomes, kSetupReps);
  fillTraceLayers(ph, log);
  return ph;
}

} // namespace

Phase runRegCare(const Options& o, bool traced, double seconds, Gates& g) {
  Plan plan{careApps(),
            {inject::FaultModel::Reg},
            vm::EccMode::Off,
            core::RecoveryStrategy::RepairThenRollback,
            /*prune=*/true,
            /*forked=*/false,
            Guard::RollbackRing,
            /*trials=*/200,
            /*resubmitTrials=*/0,
            /*refSamples=*/4};
  return runCampaignWorkload(plan, o, traced, seconds, g);
}

Phase runMemEcc(const Options& o, bool traced, double seconds, Gates& g) {
  Plan plan{allApps(),
            {inject::FaultModel::Mem1, inject::FaultModel::Mem2Adj},
            vm::EccMode::Secded,
            core::RecoveryStrategy::Repair,
            /*prune=*/false,
            /*forked=*/true,
            Guard::Ecc,
            /*trials=*/48,
            /*resubmitTrials=*/72,
            /*refSamples=*/2};
  return runCampaignWorkload(plan, o, traced, seconds, g);
}

} // namespace carebench
