// Per-layer accounting from the support/trace recorder.
//
// The benchmark arms the library's recorder for a traced phase and, between
// timed operations, harvests it: render the buffered events, parse them,
// reset the buffers. Spans nest per thread by time containment; a span's
// self time is its duration minus the time its direct children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace carebench {

struct SpanAgg {
  std::uint64_t count = 0;
  double selfUs = 0;             // summed self time
  double durUs = 0;              // summed inclusive duration
  std::vector<double> durations; // inclusive durations, microseconds
};

class SpanLog {
public:
  /// Arm the recorder when `traced`, with rings large enough that nothing
  /// wraps between harvests; the trace is never written to disk.
  SpanLog(bool traced, const std::string& scratchDir);
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Fold every buffered event into the aggregates and empty the buffers.
  /// A no-op when untraced.
  void harvest();

  const SpanAgg& span(const std::string& name) const;
  std::uint64_t events() const { return events_; }
  /// Events the rings overwrote before a harvest (must stay 0).
  std::uint64_t dropped() const { return dropped_; }

private:
  bool traced_;
  std::map<std::string, SpanAgg> spans_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
};

} // namespace carebench
