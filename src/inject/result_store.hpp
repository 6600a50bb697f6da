// Content-addressed on-disk result store: the one campaign cache
// (DESIGN.md §4g).
//
// A campaign is a run of shards, and the store keeps each committed shard
// of trials [start, start+count) under the campaign's semantic key
// (campaignKey, experiment.hpp). The key deliberately excludes the
// injection count — trials are drawn sequentially from Rng(seed), so a
// 2000-trial campaign shares its first shards with a 400-trial one — and
// every pure performance knob (threads, processes, backend, and the replay
// interval under non-rollback strategies). Repeated or overlapping
// campaigns across runs therefore *resume* instead of recompute, and a
// rerun whose shards all hit is served whole: every entry also carries the
// campaign's golden instruction count, so runExperiment can return the
// complete result without compiling or profiling.
//
// Robustness contract: a truncated, corrupted, version-mismatched or
// wrong-key entry is a miss, never an error — load() returns nullopt and the
// shard is recomputed (and the entry rewritten). Writes go through a
// temporary file + rename so a crashed writer can only ever leave a *.tmp
// turd, not a torn entry.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "inject/experiment.hpp"

namespace care::inject {

class ResultStore {
public:
  static constexpr std::uint32_t kMagic = 0x54535243; // "CRST"
  /// v2: the header carries the campaign's golden instruction count.
  static constexpr std::uint32_t kVersion = 2;

  /// A store rooted at `dir` for the campaign identified by `key` (a
  /// campaignKey digest) whose golden run executes `goldenInstrs`
  /// instructions. Entries are written with that count; loads accept an
  /// entry only when it matches, except that 0 (unknown before profiling)
  /// accepts any. Empty dir or key disables the store; a usable store
  /// creates `dir` eagerly.
  ResultStore(std::string dir, std::string key,
              std::uint64_t goldenInstrs = 0);

  bool enabled() const { return enabled_; }
  const std::string& key() const { return key_; }

  /// Entry file for trials [start, start+count).
  std::string entryPath(int start, int count) const;

  /// Load a shard. Any anomaly — missing file, short file, bad magic /
  /// version / key / golden count / bounds, md5 trailer mismatch, trailing
  /// garbage — returns nullopt (a miss). `goldenInstrs`, when non-null,
  /// receives the entry's golden instruction count on a hit.
  std::optional<std::vector<InjectionRecord>> load(
      int start, int count, std::uint64_t* goldenInstrs = nullptr) const;

  /// Write a shard atomically (tmp + rename). Best effort: returns false on
  /// I/O failure without throwing — the store is an accelerator, never a
  /// correctness dependency.
  bool save(int start, int count,
            const std::vector<InjectionRecord>& records) const;

  /// Every shard of a `trials`-trial campaign cut at `shardSize`, probed
  /// in order. Hits land in `records` at their trial indices. All hits
  /// share one golden count: a hit that disagrees with the first counts as
  /// a miss.
  struct Probe {
    std::vector<InjectionRecord> records; // trials; hit shards filled in
    std::vector<int> missing;             // shard indices still to compute
    int hits = 0;
    int misses = 0;                       // 0 when the store is disabled
    std::uint64_t goldenInstrs = 0;       // the hits' golden count
  };
  Probe probe(int trials, int shardSize) const;

private:
  std::string dir_;
  std::string key_;
  std::uint64_t goldenInstrs_ = 0;
  bool enabled_ = false;
};

} // namespace care::inject
