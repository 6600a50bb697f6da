// Sampled Sentinel detection (DESIGN.md §4j).
//
// Full Sentinel instrumentation (CFC signatures + ADDR shadows) costs
// ~3-4.2x dynamic overhead — fine for a fault-injection study, fatal for
// production traffic. The KFENCE insight transfers directly: arm only a
// small, deterministic subset of check sites per build and rotate which
// subset over "epochs", so a fleet (or a long-lived service re-deployed
// across epochs) amortizes full coverage over time while every individual
// run pays only ~1/N of the detector cost.
//
// The sampling layer sits in front of the Sentinel passes and decides, per
// check site, whether that site is *armed* (instrumented) in the current
// epoch. The decision is a pure function of (site identity, rate, epoch):
//
//   armed(site)  <=>  mix(siteHash) % rate == epoch % rate
//
// so the armed sets of the `rate` consecutive epochs partition the full
// site population — every site is armed in exactly one epoch per rotation.
// Two builds with the same module and the same resolved SampleConfig arm
// the same sites, which is what keeps sampled campaigns cacheable: the
// resolved (rate, epoch % rate) pair is a semantic experiment parameter and
// joins the campaign key and telemetry (campaignKey, experiment.cpp).
//
// Site granularity (sentinel.cpp): CFC arms whole functions (a signature
// scheme is only sound if every block of the function participates), ADDR
// arms individual protected accesses.
#pragma once

#include <cstdint>
#include <string>

namespace care::pareto {

/// Resolved site-sampling configuration. rate == 1 (the default) arms
/// every site and is byte-identical to unsampled instrumentation.
struct SampleConfig {
  /// Arm ~1/rate of the check sites. Must be >= 1.
  std::uint64_t rate = 1;
  /// Rotation epoch: selects *which* 1/rate slice is armed. Only
  /// epoch % rate matters for arming; the raw value is kept for keys and
  /// telemetry so sweeps stay self-describing.
  std::uint64_t epoch = 0;

  bool sampled() const { return rate > 1; }
  bool operator==(const SampleConfig& o) const {
    return rate == o.rate && epoch == o.epoch;
  }
};

/// Parse a --detect-sample / CARE_DETECT_SAMPLE value: "N" or "N@E" with
/// N >= 1. Unknown forms are hard errors (care::Error) listing the valid
/// forms, matching the --fault/--interp convention.
SampleConfig parseDetectSample(const std::string& s);

/// CARE_DETECT_SAMPLE, or `fallback` when unset/empty.
SampleConfig detectSampleFromEnv(const SampleConfig& fallback = {});

/// Canonical display/key name: "1", "16", "16@3".
std::string sampleName(const SampleConfig& cfg);

/// Stable site identity hash. `unit` names the enclosing function, `kind`
/// the detector family ("cfc"/"addr"), `ordinal` the site's index within
/// that family and function. Deliberately independent of anything the
/// instrumentation itself perturbs (instruction pointers, block counts),
/// so the site -> slot assignment is identical across differently-sampled
/// builds of the same module.
std::uint64_t siteHash(const std::string& unit, const char* kind,
                       std::uint64_t ordinal);

/// The arming predicate. With cfg.rate == 1 every site is armed; otherwise
/// sites are assigned to slot mix(hash) % rate and armed when their slot
/// matches epoch % rate — a rotating partition of the site population.
bool armed(const SampleConfig& cfg, std::uint64_t hash);

} // namespace care::pareto
