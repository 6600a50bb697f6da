// Per-layer metrics shared by the workloads: the compile stages and the
// clean-run VM path (every workload), and the campaign layers (the two
// campaign workloads). Counters come from the library's public stats
// structs and CampaignTelemetry; times come from the traced spans.
#pragma once

#include <string>
#include <vector>

#include "build.hpp"
#include "common.hpp"
#include "inject/engine.hpp"
#include "spans.hpp"

namespace carebench {

/// Campaign telemetry summed over every campaign of a phase.
struct TelemetrySum {
  int campaigns = 0;
  long trials = 0;
  double wallSec = 0;
  // In-process engine vs forked service, kept apart for utilization.
  double engineBusySec = 0, engineCapacitySec = 0;
  double serviceBusySec = 0, serviceCapacitySec = 0;
  long shards = 0, storeHits = 0, storeMisses = 0;
  long requeued = 0, restarts = 0;
  std::uint64_t simInstrs = 0, replaySavedInstrs = 0, ckptCount = 0;
  long careReruns = 0, pruneGroups = 0, pruneWeightedTrials = 0;
  std::uint64_t eccCorrected = 0, eccUncorrectable = 0;
  std::uint64_t rollbacks = 0, rollbackReexecInstrs = 0;
  double rollbackUs = 0;
  double recKeyUs = 0, recLoadUs = 0, recParamUs = 0, recKernelUs = 0,
         recPatchUs = 0, recTotalUs = 0;
  void add(const care::inject::CampaignTelemetry& t);
};

/// Safeguard activations over the trials a phase actually executed.
struct ActivationSum {
  std::uint64_t activations = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t failed = 0; // activations that ended the run
  void add(const care::inject::InjectionRecord& rec);
};

/// Outcome shares of one campaign round (deterministic for a seed).
struct OutcomeTally {
  long injected = 0, segv = 0, recovered = 0, sdc = 0, crash = 0;
  void add(const care::inject::InjectionRecord& rec);
  double coveragePct() const { return segv ? 100.0 * recovered / segv : 0; }
  double sdcPct() const { return injected ? 100.0 * sdc / injected : 0; }
  double crashPct() const { return injected ? 100.0 * crash / injected : 0; }
};

/// One "name = value unit (direction)" line of the human-readable report.
std::string reportLine(const std::string& name, double value,
                       const std::string& unit, const char* better,
                       const std::string& note = "");

/// lang/opt/armor/sentinel/backend: per protected module-set build.
/// `divergentRebuilds` counts timed rebuilds whose sizes differ from the
/// set-up build's (O1 codegen is not deterministic across compiles).
void fillBuildLayers(Phase& ph, const SpanLog& log, int protectedBuilds,
                     const BuildStats& stats, int divergentRebuilds = 0);

/// vm clean runs: pass times, JIT compile estimate and compiled functions.
/// `firstRunMs` / `runMs` are per protected program: its first run on a
/// fresh image and every later run.
void fillCleanLayers(Phase& ph, const std::vector<double>& protectedPassMs,
                     const std::vector<double>& firstRunMs,
                     const std::vector<std::vector<double>>& runMs,
                     std::size_t jitCompiledFunctions);

/// vm armed trials, ecc, ring, inject, engine, service, store, safeguard,
/// prune and outcome layers.
void fillCampaignLayers(Phase& ph, const SpanLog& log, const TelemetrySum& t,
                        const ActivationSum& acts, const OutcomeTally& out,
                        int setups);

/// trace.events / trace.dropped.
void fillTraceLayers(Phase& ph, const SpanLog& log);

} // namespace carebench
