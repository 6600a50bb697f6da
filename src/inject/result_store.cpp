#include "inject/result_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "support/bytestream.hpp"
#include "support/md5.hpp"

namespace care::inject {

namespace {

/// Whole file as bytes, or nullopt when unreadable.
std::optional<std::vector<std::uint8_t>> readFileBytes(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return buf;
}

} // namespace

ResultStore::ResultStore(std::string dir, std::string key,
                         std::uint64_t goldenInstrs)
    : dir_(std::move(dir)), key_(std::move(key)), goldenInstrs_(goldenInstrs) {
  if (dir_.empty() || key_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  enabled_ = !ec || std::filesystem::is_directory(dir_, ec);
}

std::string ResultStore::entryPath(int start, int count) const {
  return dir_ + "/" + key_.substr(0, 16) + "_" + std::to_string(start) + "_" +
         std::to_string(count) + ".crst";
}

std::optional<std::vector<InjectionRecord>> ResultStore::load(
    int start, int count, std::uint64_t* goldenInstrs) const {
  if (!enabled_) return std::nullopt;
  auto bytes = readFileBytes(entryPath(start, count));
  // Shortest possible entry: header words + empty key + md5 trailer.
  if (!bytes || bytes->size() < 4 + 4 + 4 + 8 + 4 + 4 + 16)
    return std::nullopt;
  const std::size_t bodyLen = bytes->size() - 16;
  Md5 h;
  h.update(bytes->data(), bodyLen);
  const Md5Digest digest = h.finish();
  if (std::memcmp(digest.bytes.data(), bytes->data() + bodyLen, 16) != 0)
    return std::nullopt; // torn or bit-rotted entry
  try {
    ByteReader r(std::vector<std::uint8_t>(bytes->begin(),
                                           bytes->begin() +
                                               static_cast<long>(bodyLen)));
    if (r.u32() != kMagic || r.u32() != kVersion) return std::nullopt;
    if (r.str() != key_) return std::nullopt; // digest-prefix collision
    const std::uint64_t golden = r.u64();
    if (goldenInstrs_ != 0 && golden != goldenInstrs_) return std::nullopt;
    if (r.u32() != static_cast<std::uint32_t>(start) ||
        r.u32() != static_cast<std::uint32_t>(count))
      return std::nullopt;
    std::vector<InjectionRecord> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) out.push_back(readRecordBytes(r));
    if (!r.atEnd()) return std::nullopt;
    if (goldenInstrs) *goldenInstrs = golden;
    return out;
  } catch (const Error&) {
    return std::nullopt; // truncated inside a record: miss, recompute
  }
}

bool ResultStore::save(int start, int count,
                       const std::vector<InjectionRecord>& records) const {
  if (!enabled_ || count < 0 ||
      records.size() != static_cast<std::size_t>(count))
    return false;
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(key_);
  w.u64(goldenInstrs_);
  w.u32(static_cast<std::uint32_t>(start));
  w.u32(static_cast<std::uint32_t>(count));
  for (const InjectionRecord& rec : records) writeRecordBytes(rec, w);
  Md5 h;
  h.update(w.data().data(), w.size());
  const Md5Digest digest = h.finish();
  w.bytes(digest.bytes.data(), 16);
  const std::string path = entryPath(start, count);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  try {
    w.writeFile(tmp);
  } catch (const Error&) {
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

ResultStore::Probe ResultStore::probe(int trials, int shardSize) const {
  Probe p;
  const int n = trials < 0 ? 0 : trials;
  p.records.resize(static_cast<std::size_t>(n));
  for (int s = 0, start = 0; start < n; ++s, start += shardSize) {
    const int count = std::min(shardSize, n - start);
    std::uint64_t golden = 0;
    auto recs = load(start, count, &golden);
    if (recs && p.hits > 0 && golden != p.goldenInstrs) recs.reset();
    if (!recs) {
      if (enabled_) ++p.misses;
      p.missing.push_back(s);
      continue;
    }
    if (p.hits++ == 0) p.goldenInstrs = golden;
    std::move(recs->begin(), recs->end(), p.records.begin() + start);
  }
  return p;
}

} // namespace care::inject
