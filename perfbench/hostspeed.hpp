// Host speed, sampled by a fixed probe that runs none of the code under test.
//
// On a shared host the CPU speed seen by one process drifts by up to 1.5x
// within a minute, for every core at once (turbo headroom and neighbours'
// load), so two runs of the same code a few minutes apart can differ by more
// than any useful bound. The benchmark samples a fixed CPU and cache probe
// between its timed operations and reports every timing scaled to a
// reference host speed: a duration measured while the probe took twice its
// reference time counts half. The probe allocates nothing and calls nothing
// from src/, so a change to the program moves the scaled figures in full;
// the raw figures are printed as report lines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace carebench {

class HostSpeed {
public:
  /// Probe time that defines the reference host speed.
  static constexpr double kReferenceProbeMs = 2.0;

  HostSpeed();

  /// Time the probe (median of three) and keep it with its time stamp.
  void sample();
  /// sample(), unless the last sample is less than `sec` old.
  void sampleEvery(double sec);

  /// kReferenceProbeMs over the local probe time around [t0, t1]: the
  /// median of the samples within a second of the interval, or of the three
  /// nearest to it. A duration measured over [t0, t1] times this factor is
  /// that duration at the reference host speed.
  double factor(Clock::time_point t0, Clock::time_point t1) const;

  /// Median probe time over every sample (for the report).
  double medianProbeMs() const;
  std::size_t samples() const { return samples_.size(); }

private:
  double probeOnce();

  std::vector<std::uint64_t> keys_;  // sorted in place each probe
  std::vector<std::uint64_t> table_; // open-addressing hash set
  std::vector<std::uint32_t> chain_; // one pointer-chasing cycle
  std::vector<std::pair<Clock::time_point, double>> samples_;
};

/// A timed operation, scaled once the samples around it exist.
struct Timed {
  Clock::time_point t0, t1;
  double raw = 0; // in the unit of the metric
  double scaled(const HostSpeed& hs) const { return raw * hs.factor(t0, t1); }
};

/// "host probe_ms_p50=… reference_ms=… samples=…" for the report.
std::string hostLine(const HostSpeed& hs);

} // namespace carebench
