// build_run: the production deployment.
//
// Each iteration compiles the whole module set (the five mini-apps plus
// sblat1 over the BLAS library) at O1 with Armor and Sentinel cfc,addr
// sampled at 1/16, then runs every freshly built image fault-free on the JIT,
// each next to the same image of a fresh unprotected O1 build. The compile
// layers and the JIT's clean-run path do the work; every campaign layer is
// idle. The deployment pipeline is single-threaded; every timing is scaled
// to the reference host speed (hostspeed.hpp).
#include <map>

#include "build.hpp"
#include "common.hpp"
#include "hostspeed.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "support/md5.hpp"
#include "support/trace.hpp"

namespace carebench {

using namespace care;

namespace {

/// Set-ups per phase: half before the timed loop, half after it, so that
/// their median spans the run instead of one moment of a drifting host.
constexpr int kSetupReps = 8;
constexpr int kMinIterations = 5;
constexpr std::uint64_t kSampleRate = 16;

struct Deployment {
  std::vector<Program> prot, plain;
  std::vector<double> firstRunMs; // per protected program
  BuildStats stats;
};

bool sameStats(const BuildStats& a, const BuildStats& b) {
  return a.langIr == b.langIr && a.optIr == b.optIr &&
         a.mirInstrs == b.mirInstrs && a.armorKernels == b.armorKernels &&
         a.armorKernelInstrs == b.armorKernelInstrs &&
         a.sentinelAdded == b.sentinelAdded &&
         a.sentinelArmed == b.sentinelArmed &&
         a.sentinelTotal == b.sentinelTotal;
}

} // namespace

Phase runBuildRun(const Options& o, bool traced, double seconds,
                  Gates& gates) {
  SpanLog log(traced, o.scratchDir);
  HostSpeed hs;
  const std::vector<ProgramSpec> specs = allAppsAndBlas();
  BuildConfig pc;
  pc.level = opt::OptLevel::O1;
  pc.detect = {true, true};
  pc.sample = {kSampleRate, o.seed % kSampleRate};
  pc.artifactDir = o.scratchDir + "/artifacts";
  BuildConfig uc = pc;
  uc.care = false;
  uc.detect = {};
  uc.sample = {};
  uc.protectedSpans = false;

  auto buildAll = [&](const BuildConfig& cfg, BuildStats& stats) {
    std::vector<Program> out;
    for (const ProgramSpec& spec : specs)
      out.push_back(buildProgram(spec, cfg, stats));
    return out;
  };

  // --- set-up, repeated; the last one before the loop serves it ---------
  std::vector<Timed> setupSec;
  auto timedDeploy = [&] {
    hs.sample();
    const Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<Deployment>();
    {
      trace::Span span("bench.setup", "bench");
      BuildStats ignored;
      fresh->prot = buildAll(pc, fresh->stats);
      fresh->plain = buildAll(uc, ignored);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const Clock::time_point r0 = Clock::now();
        {
          trace::Span run("vm.first_run", "vm");
          (void)runClean(fresh->prot[i], Guard::Safeguard);
        }
        fresh->firstRunMs.push_back(msSince(r0));
        trace::Span run("plain.first_run", "vm");
        (void)runClean(fresh->plain[i], Guard::None);
      }
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

  // --- correctness gates: reference outputs from unprotected O0 builds ---
  std::vector<std::vector<std::uint64_t>> reference;
  Md5 digest;
  {
    BuildConfig rc = uc;
    rc.level = opt::OptLevel::O0;
    BuildStats ignored;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Program p = buildProgram(specs[i], rc, ignored);
      const CleanRun ref = runReference(p);
      gates.check(ref.done, p.name + ": reference run failed");
      reference.push_back(ref.output);
      digest.update(ref.output.data(), ref.output.size() * 8);
      // At O0: O1 codegen is not deterministic across compiles (below).
      BuildConfig staged = pc;
      staged.level = opt::OptLevel::O0;
      gates.check(stagedMatchesCareCompile(specs[i], staged),
                  p.name + ": staged build differs from careCompile");
    }
  }
  log.harvest();

  // Warm runs of the set-up images: the JIT compile estimate is the first
  // run minus this one.
  std::vector<std::vector<double>> warmMs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)runClean(d.prot[i], Guard::Safeguard);
    warmMs[i].push_back(msSince(t0));
  }

  // --- timed loop ---------------------------------------------------------
  // Every iteration deploys fresh builds, so the passes sample a new O1
  // code layout each time: O1 compiles of the same sources differ within a
  // process (register allocation, even code size), and so does their run
  // time. Such rebuilds are counted, not failed; every pass output is still
  // gated against the reference. A pass includes the JIT compile of its
  // images.
  std::vector<Timed> buildMs, protPassMs;
  std::vector<double> passRatio;
  std::map<std::uint64_t, BuildStats> epochStats; // first build per epoch
  int divergentBuilds = 0;
  const Clock::time_point loop0 = Clock::now();
  BuildConfig protCfg = pc, plainCfg = uc;
  protCfg.artifactDir += "/timed";
  plainCfg.artifactDir = protCfg.artifactDir;
  try {
    for (std::size_t i = 0; static_cast<int>(i) < kMinIterations ||
                            secondsSince(loop0) < seconds;
         ++i) {
      hs.sample();
      // Sampled detection rotates its epoch per deployment, so a run covers
      // every 1/16 slice of the detector sites; the seed picks the first.
      protCfg.sample.epoch = (o.seed + i) % kSampleRate;
      BuildStats stats, ignored;
      const Clock::time_point t0 = Clock::now();
      std::vector<Program> prot;
      {
        trace::Span span("bench.build", "bench");
        prot = buildAll(protCfg, stats);
      }
      buildMs.push_back({t0, Clock::now(), msSince(t0)});
      gates.check(true, "protected build", static_cast<long>(specs.size()));
      const auto [first, fresh] =
          epochStats.emplace(protCfg.sample.epoch, stats);
      if (!fresh && !sameStats(stats, first->second)) ++divergentBuilds;
      const std::vector<Program> plain = buildAll(plainCfg, ignored);
      const Clock::time_point p0 = Clock::now();
      const PassTimes pt =
          cleanPass(prot, plain, Guard::Safeguard, {}, reference, gates);
      protPassMs.push_back({p0, Clock::now(), pt.protMs});
      passRatio.push_back(pt.protMs / std::max(1e-9, pt.plainMs));
    }
  } catch (const std::exception& e) {
    gates.fail(std::string("deployment threw: ") + e.what());
  }
  hs.sample();
  log.harvest();
  auto scaledAll = [&](const std::vector<Timed>& v) {
    std::vector<double> out;
    for (const Timed& t : v) out.push_back(t.scaled(hs));
    return out;
  };
  auto rawAll = [](const std::vector<Timed>& v) {
    std::vector<double> out;
    for (const Timed& t : v) out.push_back(t.raw);
    return out;
  };
  const std::vector<double> buildScaled = scaledAll(buildMs);
  const std::vector<double> passScaled = scaledAll(protPassMs);
  const std::vector<double> passRaw = rawAll(protPassMs);
  const double buildP50 = median(buildScaled);
  const double buildP90 = percentile(buildScaled, 0.9);
  const double runP50 = median(passScaled);
  const double runP90 = percentile(passScaled, 0.9);
  const double overhead = median(passRatio);

  const std::size_t jitFns =
      jitFunctions(d.prot, gates) + jitFunctions(d.plain, gates);
  const BuildStats buildStats = d.stats;
  const std::vector<double> firstRunMs = d.firstRunMs;
  dep.reset();
  while (static_cast<int>(setupSec.size()) < kSetupReps) (void)timedDeploy();

  // --- metrics ------------------------------------------------------------
  Phase ph;
  ph.digest = digest.finish().hex();
  ph.passMs = runP50;
  ph.e2e["setup_s"] = median(scaledAll(setupSec));
  ph.e2e["throughput_per_s"] = 1e3 * static_cast<double>(specs.size()) / runP50;
  ph.e2e["latency_ms_p50"] = buildP50;
  ph.e2e["latency_ms_p90"] = buildP90;
  ph.e2e["overhead_x"] = overhead;

  ph.report.push_back(
      "config apps=HPCCG,CoMD,miniFE,miniMD,GTC-P,sblat1+BLAS level=O1 "
      "care=on detect=cfc,addr sample=1/" + std::to_string(kSampleRate) +
      " epochs=" + std::to_string(o.seed % kSampleRate) + "+i threads=1");
  ph.report.push_back(hostLine(hs));
  const std::string n = " n=" + std::to_string(buildMs.size());
  ph.report.push_back(
      reportLine("compile_ms_p50", buildP50, "ms", "lower", n));
  ph.report.push_back(
      reportLine("compile_ms_p90", buildP90, "ms", "lower", n));
  ph.report.push_back(reportLine("run_ms_p50", runP50, "ms", "lower", n));
  ph.report.push_back(reportLine("run_ms_p90", runP90, "ms", "lower", n));
  ph.report.push_back(reportLine("overhead_x", overhead, "x", "lower",
                                 "base: unprotected O1 pass"));
  ph.report.push_back(reportLine("raw_compile_ms_p50", median(rawAll(buildMs)),
                                 "ms", "lower", "unscaled"));
  ph.report.push_back(
      reportLine("raw_run_ms_p50", median(passRaw), "ms", "lower", "unscaled"));
  ph.report.push_back(reportLine("raw_setup_s", median(rawAll(setupSec)), "s",
                                 "lower", "unscaled"));
  ph.report.push_back(reportLine("sentinel_armed_sites",
                                 static_cast<double>(buildStats.sentinelArmed),
                                 "count", "higher",
                                 "of " + std::to_string(buildStats.sentinelTotal)));

  fillBuildLayers(ph, log, kSetupReps + static_cast<int>(buildMs.size()),
                  buildStats, divergentBuilds);
  fillCleanLayers(ph, passRaw, firstRunMs, warmMs, jitFns);
  fillCampaignLayers(ph, log, TelemetrySum{}, ActivationSum{}, OutcomeTally{},
                     kSetupReps);
  fillTraceLayers(ph, log);
  return ph;
}

} // namespace carebench
