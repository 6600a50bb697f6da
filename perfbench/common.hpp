// Shared types of the repository benchmark (see README.md here).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace carebench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double msSince(Clock::time_point t0) { return 1e3 * secondsSince(t0); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratchDir; // per-run directory inside the checkout
  int threads = 1;        // campaign threads / forked workers
};

/// Attempted vs failed operations. Every timed operation and every
/// correctness gate goes through here; a failure also keeps its message.
class Gates {
public:
  void check(bool ok, const std::string& what, long ops = 1) {
    attempted_ += ops;
    if (ok) return;
    failed_ += ops;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  void fail(const std::string& what, long ops = 1) { check(false, what, ops); }
  void merge(const Gates& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& m : other.messages_)
      if (messages_.size() < 20) messages_.push_back(m);
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> messages_;
};

/// Median and upper percentile of a sample, by linear interpolation
/// between closest ranks (0 for an empty sample).
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// What one phase (an untraced or a traced pass over the workload)
/// produced. `e2e` holds the end-to-end metrics, `layer` the per-layer
/// ones (only meaningful when the phase was traced), `report` the
/// workload-specific figures for the human-readable lines, and `digest` an
/// md5 over every deterministic output the phase checked, so two phases of
/// one seed can be compared byte for byte. `passMs` is the median protected
/// fault-free pass at the reference host speed (for the tracing overhead).
struct Phase {
  std::map<std::string, double> e2e;
  double passMs = 0;
  std::map<std::string, double> layer;
  std::vector<std::string> report;
  std::string digest;
};

using WorkloadFn = Phase (*)(const Options&, bool traced, double seconds,
                             Gates&);

Phase runRegCare(const Options&, bool traced, double seconds, Gates&);
Phase runMemEcc(const Options&, bool traced, double seconds, Gates&);
Phase runBuildRun(const Options&, bool traced, double seconds, Gates&);

/// Peak resident set of this process and of its largest waited-for child
/// (the forked campaign workers), in MB.
double peakRssMb();

} // namespace carebench
