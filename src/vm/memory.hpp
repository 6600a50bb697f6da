// Sparse paged memory for the VM.
//
// A 64-bit address space backed by 4 KiB pages allocated on demand by the
// loader. Accessing an unmapped page raises the SegFault trap — the VM
// analogue of the hardware page-fault -> SIGSEGV path that CARE's entire
// recovery strategy keys off. Misaligned accesses raise Bus (SIGBUS).
//
// Two performance mechanisms back the JIT's inline memory path:
//
//  * a software TLB: two small direct-mapped translation caches (separate
//    read and write views) in front of the page table, explicitly flushed
//    on map()/restoreFrom()/moves and on copy-on-write breaks;
//  * copy-on-write pages: pages are shared_ptr-backed, so clone() /
//    restoreFrom() / MemorySnapshot::fork() share page storage and a store
//    copies only the page it touches. The write TLB only ever caches pages
//    that are exclusively owned, and neither TLB caches a page with an ECC
//    shadow, nor any page while an access trace is armed, which is what
//    makes the hit path a plain pointer compare.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/mir.hpp"
#include "vm/ecc.hpp"

namespace care::vm {

enum class MemStatus : std::uint8_t {
  Ok,
  Unmapped,
  Misaligned,
  /// An ECC-protected word failed its SECDED check beyond repair (double
  /// bit, or a CRC-scrub mismatch in secded,crc mode).
  EccUncorrectable,
};

class MemorySnapshot;

class Memory {
public:
  static constexpr std::uint64_t kPageSize = 4096;
  static constexpr std::uint64_t kPageShift = 12;
  /// Direct-mapped TLB entries per view (read/write). Power of two.
  static constexpr std::size_t kTlbEntries = 64;

  /// Map all pages covering [addr, addr+size), zero-filled. Throws
  /// care::Error if the page-rounded range wraps the 64-bit address space.
  void map(std::uint64_t addr, std::uint64_t size);
  bool isMapped(std::uint64_t addr) const;

  /// Typed accesses with natural-alignment checks. Integer loads return the
  /// value sign-extended (I32) or zero-extended (I8) into `out`.
  MemStatus load(std::uint64_t addr, backend::MType type,
                 std::uint64_t& out) const;
  MemStatus loadF(std::uint64_t addr, backend::MType type, double& out) const;
  MemStatus store(std::uint64_t addr, backend::MType type, std::uint64_t v);
  MemStatus storeF(std::uint64_t addr, backend::MType type, double v);

  /// Raw access for loader initialization and the fault injector; addr range
  /// must be mapped.
  bool readBytes(std::uint64_t addr, void* out, std::uint64_t len) const;
  bool writeBytes(std::uint64_t addr, const void* data, std::uint64_t len);

  std::uint64_t mappedBytes() const { return pages_.size() * kPageSize; }

  /// Sorted page numbers of every mapped page (fault-site sampling and
  /// memory digests).
  std::vector<std::uint64_t> pageNumbers() const;

  /// --- ECC layer (DESIGN.md §4i) -------------------------------------
  ///
  /// Opt-in SECDED(72,64) shadow over VM pages. Shadows are lazy: a page
  /// gets a code-byte shadow only when injectFault() touches it — every
  /// other store goes through the typed accessors, which keep any existing
  /// shadow in sync, so a page without a shadow is by construction clean
  /// and behaves exactly as if it had been eagerly encoded. The struck word
  /// stays pending until a check corrects it or an overwrite re-encodes it
  /// (retiring its CRC-scrub entry); once no word of a page is pending, the
  /// page is clean again and its shadow is dropped. An uncorrectable
  /// verdict leaves the word pending, so the shadow stays. Typed loads
  /// verify (and correct) the containing 64-bit word before reading;
  /// sub-word stores verify first so a latent corrupted neighbor byte is
  /// never laundered into a freshly encoded word. Uncorrectable words
  /// surface as MemStatus::EccUncorrectable.
  ///
  /// TLB invariant: a shadowed page never enters readTlb_/writeTlb_.
  /// readPage()/writePage() still return its data, but through the miss
  /// path, and injectFault() evicts the page when it grows the shadow; a
  /// page whose shadow was dropped refills on its next miss. An
  /// inline TLB hit — the emitted JIT code's whole memory path — therefore
  /// always lands on a clean page; the JIT's miss helpers report a
  /// shadowed page so the instruction leaves native code and runs on the
  /// typed accessors (DESIGN.md §4h).
  void setEccMode(EccMode m) { eccMode_ = m; }
  EccMode eccMode() const { return eccMode_; }
  bool eccEnabled() const { return eccMode_ != EccMode::Off; }
  std::uint64_t eccCorrected() const { return eccCorrected_; }
  std::uint64_t eccUncorrectable() const { return eccUncorrectable_; }
  /// True when page `pageNo` carries a SECDED shadow (one short-circuited
  /// branch while no shadow exists anywhere).
  bool eccShadowed(std::uint64_t pageNo) const {
    return !eccPages_.empty() && eccPages_.count(pageNo) != 0;
  }
  /// Re-seat the counters (Executor::restoreCheckpoint re-applies them
  /// across the snapshot fork so rollbacks don't reset ECC accounting).
  void setEccCounters(std::uint64_t corrected, std::uint64_t uncorrectable) {
    eccCorrected_ = corrected;
    eccUncorrectable_ = uncorrectable;
  }

  /// --- Access trace (pareto pruning, DESIGN.md §4j) -------------------
  ///
  /// While a sink is armed, every typed access appends the aligned 64-bit
  /// word address it touches (accesses are naturally aligned, so a typed
  /// access touches exactly one word). The reference loop funnels all
  /// program accesses through the typed accessors. For the JIT, the same
  /// TLB rule as for shadowed pages applies: while a sink is armed no page
  /// enters either TLB (arming flushes them), so every emitted access
  /// takes a miss helper, which records it (jit.cpp). Traced runs thus see
  /// the complete access stream on both backends. The caller owns the sink
  /// and drains it between runBounded() legs for time-bounded tables.
  void setAccessTrace(std::vector<std::uint64_t>* sink) {
    traceSink_ = sink;
    flushTlb();
  }
  bool accessTraceActive() const { return traceSink_ != nullptr; }
  /// Record an access to `addr` in the armed sink, if any.
  void traceAccess(std::uint64_t addr) const {
    if (traceSink_) traceSink_->push_back(addr & ~7ull);
  }

  /// Flip `bits` (positions 0..63) in the aligned 64-bit word containing
  /// `addr`, bypassing ECC maintenance — this is the soft fault. When ECC
  /// is armed the page's shadow is materialized from the pre-fault
  /// contents first (and secded,crc records the pre-fault word's CRC), so
  /// the flip becomes a detectable mismatch. Returns false if unmapped.
  bool injectFault(std::uint64_t addr, const std::vector<unsigned>& bits);

  /// Verify every shadowed word, correcting what SECDED can fix — the
  /// background-scrub analogue, run by the injector at end of trial so
  /// faults in never-again-read words still meet the detector. Returns
  /// {corrected, uncorrectable} deltas (also added to the counters).
  std::pair<std::uint64_t, std::uint64_t> scrubEcc();

  /// Snapshot of the whole address space (checkpoint support). O(mapped
  /// pages) map copy; page *storage* is shared copy-on-write, so untouched
  /// pages are never duplicated. Not thread-safe w.r.t. this Memory (the
  /// write TLB is flushed so later stores break sharing).
  Memory clone() const;
  /// Replace this address space with (a CoW share of) `other`'s. `other`
  /// may be restored from again; stores on either side break sharing.
  void restoreFrom(const Memory& other);

  /// Page translation through the software TLB (the typed accessors and the
  /// JIT's miss helpers). Returns the page's backing store, or nullptr if
  /// `pageNo` is unmapped. writePage() breaks copy-on-write sharing before
  /// returning.
  const std::uint8_t* readPage(std::uint64_t pageNo) const {
    const TlbEntry& e = readTlb_[pageNo & (kTlbEntries - 1)];
    if (e.pageNo == pageNo) return e.data;
    return readMiss(pageNo);
  }
  std::uint8_t* writePage(std::uint64_t pageNo) {
    const TlbEntry& e = writeTlb_[pageNo & (kTlbEntries - 1)];
    if (e.pageNo == pageNo) return e.data;
    return writeMiss(pageNo);
  }

  /// Process-wide count of page allocations (fresh maps + CoW copies).
  /// Lets tests assert that snapshots share instead of deep-copying.
  static std::uint64_t pageAllocCount();

  /// One direct-mapped TLB slot. Public only for the JIT, whose inline
  /// translation sequence addresses the arrays by fixed layout (asserted
  /// in jit.cpp): compare .pageNo, load .data at +8.
  struct TlbEntry {
    std::uint64_t pageNo = ~0ull;
    std::uint8_t* data = nullptr;
  };
  using Tlb = std::array<TlbEntry, kTlbEntries>;

  /// The raw (read, write) TLB entry arrays for emitted code. They are
  /// members of this Memory, so their addresses are stable across moves
  /// and restoreCheckpoint()'s `mem_ = snapshot.fork()` reseating.
  std::pair<void*, void*> jitTlbView() const {
    return {static_cast<void*>(&readTlb_), static_cast<void*>(&writeTlb_)};
  }

  Memory() = default;
  // Moves transfer the page table and explicitly reset both objects'
  // TLBs: the moved-from object must not retain pointers into pages it no
  // longer owns, and the target's old entries are meaningless.
  Memory(Memory&& other) noexcept;
  Memory& operator=(Memory&& other) noexcept;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

private:
  friend class MemorySnapshot;

  using Page = std::array<std::uint8_t, kPageSize>;
  using PageMap = std::unordered_map<std::uint64_t, std::shared_ptr<Page>>;
  /// One SECDED code byte per aligned 64-bit word of a page.
  using EccPage = std::array<std::uint8_t, kPageSize / 8>;
  using EccPageMap =
      std::unordered_map<std::uint64_t, std::shared_ptr<EccPage>>;
  using EccCrcMap = std::unordered_map<std::uint64_t, std::uint64_t>;
  /// Struck word addresses, ordered so a page's range is one lookup.
  using EccPendingSet = std::set<std::uint64_t>;

  const std::uint8_t* readMiss(std::uint64_t pageNo) const;
  std::uint8_t* writeMiss(std::uint64_t pageNo);
  void flushTlb() const;
  void flushWriteTlb() const;

  /// True when a typed access must consult the shadow. Shadows only exist
  /// after injectFault(), so clean runs pay one short-circuited branch.
  bool eccActive() const {
    return eccMode_ != EccMode::Off && !eccPages_.empty();
  }
  /// Verify/correct the shadowed word at `wordAddr` (8-aligned). Ok when
  /// the page has no shadow.
  MemStatus eccCheckWord(std::uint64_t wordAddr);
  /// Recompute the code byte for the (just overwritten) word at `wordAddr`,
  /// drop any pending CRC-scrub entry and heal the word. No-op without a
  /// shadow.
  void eccEncodeWord(std::uint64_t wordAddr);
  /// The word at `wordAddr` is consistent with its code again: retire it
  /// from eccPending_, and drop its page's shadow if no word there is left
  /// pending.
  void eccHealWord(std::uint64_t wordAddr);
  void ensureEccPage(std::uint64_t pageNo, const std::uint8_t* pageData);
  EccPage& eccPageForWrite(std::uint64_t pageNo);
  void moveEccFrom(Memory& other);

  PageMap pages_;
  mutable Tlb readTlb_{};
  mutable Tlb writeTlb_{};
  EccMode eccMode_ = EccMode::Off;
  std::uint64_t eccCorrected_ = 0;
  std::uint64_t eccUncorrectable_ = 0;
  EccPageMap eccPages_;
  EccCrcMap eccWordCrc_;
  EccPendingSet eccPending_;
  /// Armed by setAccessTrace(); mutable so const loads can record. Not
  /// moved with the address space — a trace belongs to one executor's run.
  mutable std::vector<std::uint64_t>* traceSink_ = nullptr;
};

/// An immutable, shareable image of an address space. capture() shares the
/// source's pages (flushing its write TLB so its later stores break the
/// sharing); fork() builds a CoW Memory from the snapshot and is safe to
/// call concurrently from many threads — the campaign engine captures the
/// post-initMemory image once and forks it per trial.
class MemorySnapshot {
public:
  MemorySnapshot() = default;

  static MemorySnapshot capture(Memory& m);
  Memory fork() const;

  bool empty() const { return pages_.empty(); }
  std::uint64_t mappedBytes() const {
    return pages_.size() * Memory::kPageSize;
  }
  /// Sorted page numbers (fault-site sampling over the golden image).
  std::vector<std::uint64_t> pageNumbers() const;

private:
  Memory::PageMap pages_;
  // ECC shadow state rides along so rollback restores the exact
  // detection state captured at the checkpoint (the ECC *mode* and
  // counters stay on the live Memory; Executor::restoreCheckpoint
  // re-applies them across fork()).
  Memory::EccPageMap eccPages_;
  Memory::EccCrcMap eccWordCrc_;
  Memory::EccPendingSet eccPending_;
};

} // namespace care::vm
