#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "inject/experiment.hpp"

namespace carebench {

using namespace care;

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out(v);
  for (double& x : out) x *= k;
  return out;
}

} // namespace

void TelemetrySum::add(const inject::CampaignTelemetry& t) {
  ++campaigns;
  trials += t.trials;
  wallSec += t.wallSec;
  if (t.processes > 0) {
    serviceBusySec += t.workerBusySec;
    serviceCapacitySec += t.wallSec * t.processes;
  } else {
    engineBusySec += t.workerBusySec;
    engineCapacitySec += t.wallSec * t.threads;
  }
  shards += t.shards;
  storeHits += t.storeHits;
  storeMisses += t.storeMisses;
  requeued += t.shardsRequeued;
  restarts += t.workerRestarts;
  simInstrs += t.simInstrs;
  replaySavedInstrs += t.replaySavedInstrs;
  ckptCount += t.ckptCount;
  careReruns += t.careReruns;
  pruneGroups += t.pruneGroups;
  pruneWeightedTrials += t.pruneWeightedTrials;
  eccCorrected += t.eccCorrected;
  eccUncorrectable += t.eccUncorrectable;
  rollbacks += t.rollbacks;
  rollbackReexecInstrs += t.rollbackReexecInstrs;
  rollbackUs += t.rollbackUs;
  recKeyUs += t.recKeyUs;
  recLoadUs += t.recLoadUs;
  recParamUs += t.recParamUs;
  recKernelUs += t.recKernelUs;
  recPatchUs += t.recPatchUs;
  recTotalUs += t.recTotalUs;
}

void ActivationSum::add(const inject::InjectionRecord& rec) {
  if (!rec.haveCare) return;
  const inject::InjectionResult& r = rec.withCare;
  activations += r.safeguardActivations;
  rollbacks += r.rollbacks;
  // A run that ended in a trap Safeguard was activated for: its last
  // activation failed (a repair or rollback would have resumed the run).
  const bool trapped = r.outcome == inject::Outcome::SoftFailure ||
                       r.outcome == inject::Outcome::Detected;
  if (trapped && r.safeguardActivations > r.rollbacks &&
      (r.signal == vm::TrapKind::SegFault ||
       r.signal == vm::TrapKind::EccUncorrectable))
    ++failed;
}

void OutcomeTally::add(const inject::InjectionRecord& rec) {
  if (!rec.plain.injected) return;
  ++injected;
  const bool segvTrial = rec.plain.outcome == inject::Outcome::SoftFailure &&
                         rec.plain.signal == vm::TrapKind::SegFault;
  if (segvTrial) {
    ++segv;
    if (rec.haveCare && rec.withCare.careRecovered) ++recovered;
  }
  const inject::InjectionResult& fin = rec.haveCare ? rec.withCare : rec.plain;
  switch (fin.outcome) {
  case inject::Outcome::SDC:
  case inject::Outcome::Hang:
    ++sdc;
    break;
  case inject::Outcome::RolledBack:
    // Survived, but only a golden-matching output counts as recovered.
    if (!fin.outputMatchesGolden) ++sdc;
    break;
  case inject::Outcome::SoftFailure:
  case inject::Outcome::Detected:
    ++crash;
    break;
  case inject::Outcome::Benign:
  case inject::Outcome::Corrected:
    break;
  }
}

std::string reportLine(const std::string& name, double value,
                       const std::string& unit, const char* better,
                       const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-22s %14.4f %-6s (%s is better)%s%s",
                name.c_str(), value, unit.c_str(), better,
                note.empty() ? "" : "  ", note.c_str());
  return buf;
}

void fillBuildLayers(Phase& ph, const SpanLog& log, int protectedBuilds,
                     const BuildStats& s, int divergentRebuilds) {
  auto perBuildMs = [&](const char* span) {
    return ratio(log.span(span).selfUs / 1e3, protectedBuilds);
  };
  ph.layer["lang.ms"] = perBuildMs("build.lang");
  ph.layer["lang.ir_instrs"] = static_cast<double>(s.langIr);
  ph.layer["opt.ms"] = perBuildMs("build.opt");
  ph.layer["opt.ir_instrs_after"] = static_cast<double>(s.optIr);
  ph.layer["armor.ms"] = perBuildMs("build.armor");
  ph.layer["armor.kernels"] = static_cast<double>(s.armorKernels);
  ph.layer["armor.kernel_instrs"] = static_cast<double>(s.armorKernelInstrs);
  ph.layer["sentinel.ms"] = perBuildMs("build.sentinel");
  ph.layer["sentinel.added_instrs"] = static_cast<double>(s.sentinelAdded);
  ph.layer["sentinel.armed_sites"] = static_cast<double>(s.sentinelArmed);
  ph.layer["sentinel.total_sites"] = static_cast<double>(s.sentinelTotal);
  ph.layer["backend.ms"] = perBuildMs("build.backend");
  ph.layer["backend.mir_instrs"] = static_cast<double>(s.mirInstrs);
  ph.layer["build.divergent_rebuilds"] = divergentRebuilds;
  ph.layer["vm.load_link_ms"] =
      ratio(log.span("vm.load_link").selfUs / 1e3, log.span("vm.load_link").count);
}

void fillCleanLayers(Phase& ph, const std::vector<double>& protectedPassMs,
                     const std::vector<double>& firstRunMs,
                     const std::vector<std::vector<double>>& runMs,
                     std::size_t jitCompiledFunctions) {
  ph.layer["vm.run_ms"] = median(protectedPassMs);
  ph.layer["vm.run_ms_p90"] = percentile(protectedPassMs, 0.9);
  // The first run on a fresh image pays for compiling every function it
  // reaches; later runs execute the cached native code.
  double jitMs = 0;
  for (std::size_t i = 0; i < firstRunMs.size() && i < runMs.size(); ++i)
    jitMs += std::max(0.0, firstRunMs[i] - median(runMs[i]));
  ph.layer["vm.jit.compile_ms"] = jitMs;
  ph.layer["vm.jit.compiled_functions"] =
      static_cast<double>(jitCompiledFunctions);
}

void fillCampaignLayers(Phase& ph, const SpanLog& log, const TelemetrySum& t,
                        const ActivationSum& a, const OutcomeTally& out,
                        int setups) {
  auto& L = ph.layer;
  const double busy = t.engineBusySec + t.serviceBusySec;
  L["vm.sim_instrs"] = static_cast<double>(t.simInstrs);
  L["vm.mips"] = ratio(static_cast<double>(t.simInstrs) / 1e6, busy);
  L["ecc.corrected"] = static_cast<double>(t.eccCorrected);
  L["ecc.uncorrectable"] = static_cast<double>(t.eccUncorrectable);
  L["ring.rollbacks"] = static_cast<double>(t.rollbacks);
  L["ring.reexec_instrs"] = static_cast<double>(t.rollbackReexecInstrs);
  L["ring.rollback_us"] = ratio(t.rollbackUs, static_cast<double>(t.rollbacks));
  L["inject.profile_ms"] =
      ratio(log.span("campaign.profile").durUs / 1e3, setups);
  L["inject.ckpt_count"] =
      ratio(static_cast<double>(t.ckptCount), t.campaigns);
  L["inject.replay_saved_instrs"] = static_cast<double>(t.replaySavedInstrs);
  L["inject.replay_share"] =
      ratio(static_cast<double>(t.replaySavedInstrs),
            static_cast<double>(t.replaySavedInstrs + t.simInstrs));
  const std::vector<double> plainMs =
      scaled(log.span("trial.plain_run").durations, 1e-3);
  L["inject.trial_ms_p50"] = median(plainMs);
  L["inject.trial_ms_p90"] = percentile(plainMs, 0.9);
  L["inject.care_rerun_ms_p50"] =
      median(scaled(log.span("trial.care_rerun").durations, 1e-3));
  L["inject.care_reruns"] = static_cast<double>(t.careReruns);
  L["engine.busy_s"] = t.engineBusySec;
  L["engine.utilization"] = ratio(t.engineBusySec, t.engineCapacitySec);
  L["service.shards"] = static_cast<double>(t.shards);
  L["service.busy_s"] = t.serviceBusySec;
  L["service.utilization"] = ratio(t.serviceBusySec, t.serviceCapacitySec);
  L["service.requeued"] = static_cast<double>(t.requeued);
  L["service.restarts"] = static_cast<double>(t.restarts);
  L["store.hits"] = static_cast<double>(t.storeHits);
  L["store.misses"] = static_cast<double>(t.storeMisses);
  L["store.hit_ratio"] = ratio(static_cast<double>(t.storeHits),
                               static_cast<double>(t.storeHits + t.storeMisses));
  const double acts = static_cast<double>(a.activations);
  L["safeguard.activations"] = acts;
  L["safeguard.repair_ratio"] =
      ratio(static_cast<double>(a.activations - a.rollbacks - a.failed), acts);
  L["safeguard.key_us"] = ratio(t.recKeyUs, acts);
  L["safeguard.load_us"] = ratio(t.recLoadUs, acts);
  L["safeguard.param_us"] = ratio(t.recParamUs, acts);
  L["safeguard.kernel_us"] = ratio(t.recKernelUs, acts);
  L["safeguard.patch_us"] = ratio(t.recPatchUs, acts);
  L["safeguard.on_trap_us"] = ratio(t.recTotalUs, acts);
  L["prune.groups"] = static_cast<double>(t.pruneGroups);
  L["prune.weighted_trials"] = static_cast<double>(t.pruneWeightedTrials);
  L["prune.exec_ratio"] = ratio(static_cast<double>(t.pruneGroups),
                                static_cast<double>(t.pruneWeightedTrials));
  L["outcome.coverage_pct"] = out.coveragePct();
  L["outcome.sdc_pct"] = out.sdcPct();
  L["outcome.crash_pct"] = out.crashPct();
}

void fillTraceLayers(Phase& ph, const SpanLog& log) {
  ph.layer["trace.events"] = static_cast<double>(log.events());
  ph.layer["trace.dropped"] = static_cast<double>(log.dropped());
}

} // namespace carebench
