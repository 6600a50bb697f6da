#include "spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "support/trace.hpp"

namespace carebench {

namespace {

/// Large enough that no ring wraps between two harvests of any workload
/// (a reg_care round records a few thousand events per thread).
constexpr std::size_t kRingCapacity = 1u << 20;

struct Event {
  std::string name;
  char ph = 0;
  unsigned tid = 0;
  double ts = 0, dur = 0, value = 0;
};

/// Text after `"key":` in `line`, or an empty view.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  return line.substr(at + pat.size());
}

double number(std::string_view v) {
  // Event lines are NUL-free and every number is followed by ',' or '}'.
  return v.empty() ? 0 : std::strtod(std::string(v.substr(0, 32)).c_str(),
                                     nullptr);
}

/// trace::render() writes one event object per line with a fixed field
/// order; names never contain quotes (all are string literals).
bool parseEvent(std::string_view line, Event& ev) {
  std::string_view name = field(line, "name");
  if (name.size() < 2 || name[0] != '"') return false;
  name.remove_prefix(1);
  ev.name = std::string(name.substr(0, name.find('"')));
  const std::string_view ph = field(line, "ph");
  if (ph.size() < 2) return false;
  ev.ph = ph[1];
  ev.ts = number(field(line, "ts"));
  ev.dur = number(field(line, "dur"));
  ev.tid = static_cast<unsigned>(number(field(line, "tid")));
  const std::string_view args = field(line, "args");
  ev.value = args.empty() ? 0 : number(field(args, "value"));
  return true;
}

} // namespace

SpanLog::SpanLog(bool traced, const std::string& scratchDir)
    : traced_(traced) {
  if (!traced_) return;
  care::trace::reset();
  care::trace::enable(scratchDir + "/trace.json", kRingCapacity);
}

SpanLog::~SpanLog() {
  if (!traced_) return;
  // Disarmed before exit so the recorder's atexit hook writes nothing.
  care::trace::disable();
  care::trace::reset();
}

void SpanLog::harvest() {
  if (!traced_) return;
  const std::string doc = care::trace::render();
  care::trace::reset();

  std::map<unsigned, std::vector<Event>> byThread;
  std::size_t pos = 0;
  while (pos < doc.size()) {
    std::size_t end = doc.find('\n', pos);
    if (end == std::string::npos) end = doc.size();
    const std::string_view line(doc.data() + pos, end - pos);
    pos = end + 1;
    Event ev;
    if (line.empty() || line.find("\"ph\"") == std::string_view::npos ||
        !parseEvent(line, ev))
      continue;
    ++events_;
    if (ev.ph == 'C' && ev.name == "trace.dropped")
      dropped_ += static_cast<std::uint64_t>(ev.value);
    else if (ev.ph == 'X')
      byThread[ev.tid].push_back(std::move(ev));
  }

  // Timestamps are rendered to the nanosecond; containment allows for it.
  constexpr double kEps = 0.002;
  for (auto& [tid, spans] : byThread) {
    std::sort(spans.begin(), spans.end(), [](const Event& a, const Event& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> childUs(spans.size(), 0);
    std::vector<std::size_t> open; // indices of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double end = spans[i].ts + spans[i].dur;
      while (!open.empty() &&
             spans[open.back()].ts + spans[open.back()].dur < end - kEps)
        open.pop_back();
      if (!open.empty()) childUs[open.back()] += spans[i].dur;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanAgg& a = spans_[spans[i].name];
      ++a.count;
      a.durUs += spans[i].dur;
      a.selfUs += std::max(0.0, spans[i].dur - childUs[i]);
      a.durations.push_back(spans[i].dur);
    }
  }
}

const SpanAgg& SpanLog::span(const std::string& name) const {
  static const SpanAgg kEmpty;
  const auto it = spans_.find(name);
  return it == spans_.end() ? kEmpty : it->second;
}

} // namespace carebench
