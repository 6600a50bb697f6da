// Helpers for tests that run campaigns through the shard result store.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "inject/engine.hpp"

namespace care::test {

/// Distinct campaign keys with at least one stored shard under `dir`.
/// Entry files are named <key prefix>_<start>_<count>.crst.
inline int storedCampaignKeys(const std::string& dir) {
  std::set<std::string> keys;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.path().extension() == ".crst") {
      const std::string name = e.path().filename().string();
      keys.insert(name.substr(0, name.find('_')));
    }
  return static_cast<int>(keys.size());
}

/// The campaign really executed: nothing was served from the store.
inline void expectComputed(const inject::CampaignTelemetry& t) {
  EXPECT_FALSE(t.fromCache);
  EXPECT_EQ(t.storeHits, 0);
}

} // namespace care::test
