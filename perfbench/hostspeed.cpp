#include "hostspeed.hpp"

#include <algorithm>
#include <cstdio>

namespace carebench {

namespace {

constexpr std::size_t kKeys = 1 << 14;
constexpr std::size_t kTableSlots = 1 << 15; // power of two
constexpr std::size_t kChain = 1 << 16;      // 256 KB of links
constexpr int kChainSteps = 1 << 17;

volatile std::uint64_t sink;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

} // namespace

HostSpeed::HostSpeed()
    : keys_(kKeys), table_(kTableSlots), chain_(kChain) {
  // One random cycle through every link (Sattolo's shuffle).
  std::uint64_t x = 0xC0FFEE123456789ull;
  for (std::size_t i = 0; i < kChain; ++i)
    chain_[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kChain - 1; i > 0; --i)
    std::swap(chain_[i], chain_[xorshift(x) % i]);
  samples_.reserve(4096);
}

double HostSpeed::probeOnce() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  std::fill(table_.begin(), table_.end(), 0);
  for (std::uint64_t& k : keys_) {
    k = xorshift(x) | 1;
    std::size_t slot = k & (kTableSlots - 1);
    while (table_[slot] != 0 && table_[slot] != k)
      slot = (slot + 1) & (kTableSlots - 1);
    table_[slot] = k;
  }
  std::sort(keys_.begin(), keys_.end());
  for (std::uint64_t k : keys_) {
    std::size_t slot = k & (kTableSlots - 1);
    while (table_[slot] != k) slot = (slot + 1) & (kTableSlots - 1);
    acc += slot;
  }
  std::uint32_t at = 0;
  for (int i = 0; i < kChainSteps; ++i) at = chain_[at];
  sink = acc + at;
  return msSince(t0);
}

void HostSpeed::sample() {
  const Clock::time_point at = Clock::now();
  double t[3] = {probeOnce(), probeOnce(), probeOnce()};
  std::sort(t, t + 3);
  samples_.emplace_back(at, t[1]);
}

void HostSpeed::sampleEvery(double sec) {
  if (samples_.empty() || secondsSince(samples_.back().first) >= sec)
    sample();
}

double HostSpeed::factor(Clock::time_point t0, Clock::time_point t1) const {
  if (samples_.empty()) return 1;
  const auto window = std::chrono::seconds(1);
  std::vector<double> near;
  for (const auto& [at, ms] : samples_)
    if (at >= t0 - window && at <= t1 + window) near.push_back(ms);
  if (near.size() < 3) {
    // Distance of each sample from the interval; keep the three nearest.
    std::vector<std::pair<Clock::duration, double>> byDistance;
    for (const auto& [at, ms] : samples_)
      byDistance.emplace_back(at < t0 ? t0 - at : at > t1 ? at - t1
                                                          : Clock::duration{},
                              ms);
    std::sort(byDistance.begin(), byDistance.end());
    near.clear();
    for (std::size_t i = 0; i < byDistance.size() && i < 3; ++i)
      near.push_back(byDistance[i].second);
  }
  return kReferenceProbeMs / median(near);
}

double HostSpeed::medianProbeMs() const {
  std::vector<double> ms;
  for (const auto& s : samples_) ms.push_back(s.second);
  return median(ms);
}

std::string hostLine(const HostSpeed& hs) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "host probe_ms_p50=%.4f reference_ms=%.1f samples=%zu",
                hs.medianProbeMs(), HostSpeed::kReferenceProbeMs, hs.samples());
  return buf;
}

} // namespace carebench
