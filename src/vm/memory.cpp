#include "vm/memory.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace care::vm {

using backend::MType;
using backend::mtypeSize;

namespace {
// Fresh page allocations (initial maps + CoW breaks), process-wide. Tests
// read deltas of this to prove that clone()/checkpoint() share pages
// instead of deep-copying.
std::atomic<std::uint64_t> gPageAllocs{0};
} // namespace

std::uint64_t Memory::pageAllocCount() {
  return gPageAllocs.load(std::memory_order_relaxed);
}

void Memory::map(std::uint64_t addr, std::uint64_t size) {
  if (size > ~0ull - addr)
    raise("Memory::map: address range wraps the 64-bit space");
  const std::uint64_t end = addr + size;
  const std::uint64_t first = addr / kPageSize;
  // ceil(end / kPageSize), computed in page numbers so the rounding itself
  // cannot wrap even when `end` is within a page of 2^64.
  const std::uint64_t last = end / kPageSize + (end % kPageSize != 0 ? 1 : 0);
  for (std::uint64_t p = first; p < last; ++p) {
    auto& slot = pages_[p];
    if (!slot) {
      slot = std::make_shared<Page>();
      slot->fill(0);
      gPageAllocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  flushTlb();
}

bool Memory::isMapped(std::uint64_t addr) const {
  return readPage(addr / kPageSize) != nullptr;
}

const std::uint8_t* Memory::readMiss(std::uint64_t pageNo) const {
  auto it = pages_.find(pageNo);
  if (it == pages_.end()) return nullptr;
  // A shadowed page, or any page while a trace is armed, stays out of the
  // TLB, so emitted code never reads it inline (see eccShadowed()).
  if (traceSink_ || eccShadowed(pageNo)) return it->second->data();
  TlbEntry& e = readTlb_[pageNo & (kTlbEntries - 1)];
  e.pageNo = pageNo;
  e.data = it->second->data();
  return e.data;
}

std::uint8_t* Memory::writeMiss(std::uint64_t pageNo) {
  auto it = pages_.find(pageNo);
  if (it == pages_.end()) return nullptr;
  std::shared_ptr<Page>& slot = it->second;
  if (slot.use_count() > 1) {
    // Copy-on-write break: this page is shared with a snapshot/clone.
    slot = std::make_shared<Page>(*slot);
    gPageAllocs.fetch_add(1, std::memory_order_relaxed);
    // A read-TLB entry may still point at the old shared storage.
    TlbEntry& r = readTlb_[pageNo & (kTlbEntries - 1)];
    if (r.pageNo == pageNo) r.data = slot->data();
  }
  if (traceSink_ || eccShadowed(pageNo)) return slot->data();
  TlbEntry& e = writeTlb_[pageNo & (kTlbEntries - 1)];
  e.pageNo = pageNo;
  e.data = slot->data();
  return e.data;
}

void Memory::flushTlb() const {
  readTlb_.fill(TlbEntry{});
  writeTlb_.fill(TlbEntry{});
}

void Memory::flushWriteTlb() const { writeTlb_.fill(TlbEntry{}); }

void Memory::moveEccFrom(Memory& other) {
  eccMode_ = other.eccMode_;
  eccCorrected_ = other.eccCorrected_;
  eccUncorrectable_ = other.eccUncorrectable_;
  eccPages_ = std::move(other.eccPages_);
  eccWordCrc_ = std::move(other.eccWordCrc_);
  eccPending_ = std::move(other.eccPending_);
  other.eccMode_ = EccMode::Off;
  other.eccCorrected_ = 0;
  other.eccUncorrectable_ = 0;
  other.eccPages_.clear();
  other.eccWordCrc_.clear();
  other.eccPending_.clear();
}

Memory::Memory(Memory&& other) noexcept : pages_(std::move(other.pages_)) {
  other.pages_.clear();
  other.flushTlb();
  flushTlb();
  moveEccFrom(other);
}

Memory& Memory::operator=(Memory&& other) noexcept {
  if (this != &other) {
    pages_ = std::move(other.pages_);
    other.pages_.clear();
    other.flushTlb();
    flushTlb();
    moveEccFrom(other);
  }
  return *this;
}

MemStatus Memory::load(std::uint64_t addr, MType type,
                       std::uint64_t& out) const {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive()) {
    // Verify (and correct in place) the containing word before reading.
    // eccCheckWord only mutates ECC bookkeeping and corrected page bytes —
    // logically a mutable cache repair, hence the const_cast.
    const MemStatus es =
        const_cast<Memory*>(this)->eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  const std::uint8_t* page = readPage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  traceAccess(addr);
  const std::uint64_t off = addr % kPageSize; // size-aligned: no page split
  std::uint64_t raw = 0;
  std::memcpy(&raw, page + off, size);
  switch (type) {
  case MType::I8: out = raw & 0xff; break;
  case MType::I32:
    out = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(raw)));
    break;
  default: out = raw; break;
  }
  return MemStatus::Ok;
}

MemStatus Memory::loadF(std::uint64_t addr, MType type, double& out) const {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive()) {
    const MemStatus es =
        const_cast<Memory*>(this)->eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  const std::uint8_t* page = readPage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  traceAccess(addr);
  const std::uint64_t off = addr % kPageSize;
  if (type == MType::F32) {
    float f;
    std::memcpy(&f, page + off, 4);
    out = static_cast<double>(f);
  } else {
    std::memcpy(&out, page + off, 8);
  }
  return MemStatus::Ok;
}

MemStatus Memory::store(std::uint64_t addr, MType type, std::uint64_t v) {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  // A sub-word store must verify the word first: re-encoding after the
  // write would launder a latent error in the bytes it does not overwrite.
  if (eccActive() && size < 8) {
    const MemStatus es = eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  std::uint8_t* page = writePage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  traceAccess(addr);
  std::memcpy(page + addr % kPageSize, &v, size);
  if (eccActive()) eccEncodeWord(addr & ~7ull);
  return MemStatus::Ok;
}

MemStatus Memory::storeF(std::uint64_t addr, MType type, double v) {
  const unsigned size = mtypeSize(type);
  if (addr % size != 0) return MemStatus::Misaligned;
  if (eccActive() && size < 8) {
    const MemStatus es = eccCheckWord(addr & ~7ull);
    if (es != MemStatus::Ok) return es;
  }
  std::uint8_t* page = writePage(addr / kPageSize);
  if (!page) return MemStatus::Unmapped;
  traceAccess(addr);
  if (type == MType::F32) {
    const float f = static_cast<float>(v);
    std::memcpy(page + addr % kPageSize, &f, 4);
  } else {
    std::memcpy(page + addr % kPageSize, &v, 8);
  }
  if (eccActive()) eccEncodeWord(addr & ~7ull);
  return MemStatus::Ok;
}

bool Memory::readBytes(std::uint64_t addr, void* out,
                       std::uint64_t len) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint8_t* page = readPage(addr / kPageSize);
    if (!page) return false;
    const std::uint64_t off = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(dst, page + off, chunk);
    dst += chunk;
    addr += chunk;
    len -= chunk;
  }
  return true;
}

bool Memory::writeBytes(std::uint64_t addr, const void* data,
                        std::uint64_t len) {
  const std::uint64_t start = addr;
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    std::uint8_t* page = writePage(addr / kPageSize);
    if (!page) return false;
    const std::uint64_t off = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(page + off, src, chunk);
    src += chunk;
    addr += chunk;
    len -= chunk;
  }
  // Raw writes (loader init, register-model repair writeback) keep any
  // existing shadow consistent: the written bytes become the protected
  // truth, exactly as a full overwrite through the typed path would.
  if (eccActive())
    for (std::uint64_t w = start & ~7ull; w < addr; w += 8) eccEncodeWord(w);
  return true;
}

std::vector<std::uint64_t> Memory::pageNumbers() const {
  std::vector<std::uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [pageNo, page] : pages_) out.push_back(pageNo);
  std::sort(out.begin(), out.end());
  return out;
}

bool Memory::injectFault(std::uint64_t addr, const std::vector<unsigned>& bits) {
  const std::uint64_t wordAddr = addr & ~7ull;
  const std::uint64_t pageNo = wordAddr / kPageSize;
  std::uint8_t* page = writePage(pageNo);
  if (!page) return false;
  if (eccMode_ != EccMode::Off) {
    ensureEccPage(pageNo, page);
    eccPending_.insert(wordAddr);
    // The page has a shadow now: evict it, so the next access misses and
    // finds it uncacheable.
    for (Tlb* tlb : {&readTlb_, &writeTlb_}) {
      TlbEntry& e = (*tlb)[pageNo & (kTlbEntries - 1)];
      if (e.pageNo == pageNo) e = TlbEntry{};
    }
  }
  const std::uint64_t off = wordAddr % kPageSize;
  std::uint64_t word = 0;
  std::memcpy(&word, page + off, 8);
  if (eccMode_ == EccMode::SecdedCrc) eccWordCrc_[wordAddr] = ecc::crc64Word(word);
  for (unsigned b : bits) word ^= 1ull << (b & 63);
  std::memcpy(page + off, &word, 8);
  return true;
}

MemStatus Memory::eccCheckWord(std::uint64_t wordAddr) {
  auto it = eccPages_.find(wordAddr / kPageSize);
  if (it == eccPages_.end()) return MemStatus::Ok;
  std::uint8_t* page = writePage(wordAddr / kPageSize);
  if (!page) return MemStatus::Ok; // shadow for an unmapped page: moot
  const std::uint64_t off = wordAddr % kPageSize;
  const std::size_t wi = static_cast<std::size_t>(off / 8);
  std::uint64_t word = 0;
  std::memcpy(&word, page + off, 8);
  std::uint64_t fixed = word;
  const ecc::Secded r = ecc::secdedDecode(fixed, (*it->second)[wi]);
  if (r == ecc::Secded::Uncorrectable) {
    ++eccUncorrectable_;
    return MemStatus::EccUncorrectable;
  }
  if (eccMode_ == EccMode::SecdedCrc) {
    // Scrub cross-check: SECDED can alias a wide burst to "clean" or to a
    // bogus single-bit fix. The CRC of the pre-fault word arbitrates once,
    // on the first check after injection.
    auto ci = eccWordCrc_.find(wordAddr);
    if (ci != eccWordCrc_.end()) {
      if (ecc::crc64Word(fixed) != ci->second) {
        ++eccUncorrectable_;
        return MemStatus::EccUncorrectable;
      }
      eccWordCrc_.erase(ci);
    }
  }
  if (r == ecc::Secded::Corrected) {
    ++eccCorrected_;
    if (fixed != word) std::memcpy(page + off, &fixed, 8);
    eccPageForWrite(wordAddr / kPageSize)[wi] = ecc::secdedEncode(fixed);
    eccHealWord(wordAddr);
  }
  return MemStatus::Ok;
}

void Memory::eccEncodeWord(std::uint64_t wordAddr) {
  const std::uint64_t pageNo = wordAddr / kPageSize;
  if (eccPages_.find(pageNo) == eccPages_.end()) return;
  const std::uint8_t* page = writePage(pageNo);
  if (!page) return;
  const std::uint64_t off = wordAddr % kPageSize;
  std::uint64_t word = 0;
  std::memcpy(&word, page + off, 8);
  eccPageForWrite(pageNo)[off / 8] = ecc::secdedEncode(word);
  // An overwrite retires any pending scrub entry: the faulted pre-image is
  // gone, so there is nothing left to cross-check, and the word is healed.
  if (eccMode_ == EccMode::SecdedCrc) eccWordCrc_.erase(wordAddr);
  eccHealWord(wordAddr);
}

void Memory::eccHealWord(std::uint64_t wordAddr) {
  if (eccPending_.erase(wordAddr) == 0) return;
  const std::uint64_t pageNo = wordAddr / kPageSize;
  const auto next = eccPending_.lower_bound(pageNo * kPageSize);
  if (next != eccPending_.end() && *next / kPageSize == pageNo) return;
  // Every word of the page matches its code again: without a shadow the
  // page reads exactly the same, and it may re-enter the TLB on its next
  // miss.
  eccPages_.erase(pageNo);
}

void Memory::ensureEccPage(std::uint64_t pageNo, const std::uint8_t* pageData) {
  std::shared_ptr<EccPage>& slot = eccPages_[pageNo];
  if (slot) return;
  slot = std::make_shared<EccPage>();
  for (std::size_t wi = 0; wi < kPageSize / 8; ++wi) {
    std::uint64_t word = 0;
    std::memcpy(&word, pageData + wi * 8, 8);
    (*slot)[wi] = ecc::secdedEncode(word);
  }
}

Memory::EccPage& Memory::eccPageForWrite(std::uint64_t pageNo) {
  std::shared_ptr<EccPage>& slot = eccPages_[pageNo];
  if (slot.use_count() > 1) slot = std::make_shared<EccPage>(*slot);
  return *slot;
}

std::pair<std::uint64_t, std::uint64_t> Memory::scrubEcc() {
  const std::uint64_t c0 = eccCorrected_, u0 = eccUncorrectable_;
  std::vector<std::uint64_t> pageNos;
  pageNos.reserve(eccPages_.size());
  for (const auto& [pageNo, shadow] : eccPages_) pageNos.push_back(pageNo);
  std::sort(pageNos.begin(), pageNos.end());
  for (std::uint64_t pageNo : pageNos)
    for (std::uint64_t wi = 0; wi < kPageSize / 8; ++wi)
      (void)eccCheckWord(pageNo * kPageSize + wi * 8);
  return {eccCorrected_ - c0, eccUncorrectable_ - u0};
}

Memory Memory::clone() const {
  // CoW share: both sides keep the same page storage until one stores. Our
  // cached write translations would let this side scribble on shared pages
  // without a use_count check, so drop them first.
  flushWriteTlb();
  Memory out;
  out.pages_ = pages_;
  out.eccMode_ = eccMode_;
  out.eccCorrected_ = eccCorrected_;
  out.eccUncorrectable_ = eccUncorrectable_;
  out.eccPages_ = eccPages_;
  out.eccWordCrc_ = eccWordCrc_;
  out.eccPending_ = eccPending_;
  return out;
}

void Memory::restoreFrom(const Memory& other) {
  other.flushWriteTlb();
  pages_ = other.pages_;
  eccMode_ = other.eccMode_;
  eccCorrected_ = other.eccCorrected_;
  eccUncorrectable_ = other.eccUncorrectable_;
  eccPages_ = other.eccPages_;
  eccWordCrc_ = other.eccWordCrc_;
  eccPending_ = other.eccPending_;
  flushTlb();
}

MemorySnapshot MemorySnapshot::capture(Memory& m) {
  m.flushWriteTlb();
  MemorySnapshot s;
  s.pages_ = m.pages_;
  s.eccPages_ = m.eccPages_;
  s.eccWordCrc_ = m.eccWordCrc_;
  s.eccPending_ = m.eccPending_;
  return s;
}

Memory MemorySnapshot::fork() const {
  // Only copies the page maps and bumps atomic refcounts — safe to call
  // concurrently from campaign worker threads. The ECC mode and counters
  // intentionally do not travel with the snapshot; Executor re-applies
  // them (restoreCheckpoint) or the trial sets them up front.
  Memory out;
  out.pages_ = pages_;
  out.eccPages_ = eccPages_;
  out.eccWordCrc_ = eccWordCrc_;
  out.eccPending_ = eccPending_;
  return out;
}

std::vector<std::uint64_t> MemorySnapshot::pageNumbers() const {
  std::vector<std::uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [pageNo, page] : pages_) out.push_back(pageNo);
  std::sort(out.begin(), out.end());
  return out;
}

} // namespace care::vm
