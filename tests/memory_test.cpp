// Memory subsystem tests: map-range overflow guard, software-TLB
// invalidation across restore/move/CoW interleavings, copy-on-write page
// sharing (counted via Memory::pageAllocCount), and the typed accessors
// exercised against both plain and CoW-forked address spaces.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "support/error.hpp"
#include "vm/memory.hpp"

namespace care::test {
namespace {

using backend::MType;
using vm::Memory;
using vm::MemorySnapshot;
using vm::MemStatus;

constexpr std::uint64_t kPage = Memory::kPageSize;

// --- map() overflow guard ---------------------------------------------------

TEST(MemoryMap, RangeWrappingAddressSpaceThrows) {
  Memory mem;
  // addr + size wraps the 64-bit space: must refuse, not map a wrong range.
  EXPECT_THROW(mem.map(~0ull - 100, 4096), care::Error);
  EXPECT_THROW(mem.map(0x1000, ~0ull), care::Error);
  EXPECT_THROW(mem.map(~0ull, 2), care::Error);
  EXPECT_EQ(mem.mappedBytes(), 0u);
}

TEST(MemoryMap, RangeEndingAtTopOfAddressSpaceIsFine) {
  Memory mem;
  // Last page of the address space: end == 2^64 - 0? end = addr + size must
  // not wrap, so the highest mappable end is 2^64 - 1.
  mem.map(~0ull - (kPage - 1), kPage - 1);
  EXPECT_TRUE(mem.isMapped(~0ull - 8));
  std::uint64_t v = 0;
  EXPECT_EQ(mem.load(~0ull - 7, MType::I64, v), MemStatus::Ok);
}

TEST(MemoryMap, ZeroSizeMapsNothing) {
  Memory mem;
  mem.map(0x5000, 0);
  EXPECT_FALSE(mem.isMapped(0x5000));
}

// --- TLB invalidation -------------------------------------------------------

// restoreFrom() must drop cached translations: a load served from the TLB
// before the restore must not be served from the old page after it.
TEST(MemoryTlb, RestoreFromInvalidatesReadTlb) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);

  Memory b = a.clone();
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok); // CoW break

  // Warm a's read TLB on the post-break page.
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x22u);

  a.restoreFrom(b);
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u) << "stale read-TLB entry survived restoreFrom()";
}

// The write TLB only ever caches exclusively-owned pages; a cached write
// translation must not let a store scribble on pages that became shared.
TEST(MemoryTlb, CloneAfterWarmWriteTlbStillCopiesOnWrite) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok); // warm write TLB

  Memory b = a.clone(); // shares the page; must drop a's write translation
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok);

  std::uint64_t v = 0;
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u) << "store through a stale write-TLB entry hit a page "
                         "shared with the clone";
}

TEST(MemoryTlb, SnapshotCaptureAfterWarmWriteTlbStillCopiesOnWrite) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);

  const MemorySnapshot snap = MemorySnapshot::capture(a);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok);

  Memory forked = snap.fork();
  std::uint64_t v = 0;
  ASSERT_EQ(forked.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u) << "snapshot saw a store made after capture()";
}

// Moves transfer the page table; neither side may keep translations into
// pages it no longer (exclusively) owns.
TEST(MemoryTlb, MoveConstructInvalidatesBothSides) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Ok); // warm both TLBs

  Memory b(std::move(a));
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);

  // Moved-from object is an empty address space; cached entries must not
  // resurrect the old pages.
  EXPECT_EQ(a.load(0x1000, MType::I64, v), MemStatus::Unmapped);
  EXPECT_EQ(a.store(0x1000, MType::I64, 0x33), MemStatus::Unmapped);
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);
}

TEST(MemoryTlb, MoveAssignInvalidatesTargetTlb) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0xAA), MemStatus::Ok);

  Memory b;
  b.map(0x1000, kPage);
  ASSERT_EQ(b.store(0x1000, MType::I64, 0xBB), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok); // warm b's TLB

  b = std::move(a);
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0xAAu) << "move-assignment left the target's old TLB live";
}

// The interleaving the fast interpreter depends on: map() of a fresh page
// after a load miss cached "unmapped is impossible" state nowhere — a TLB
// entry for page P must not shadow a later map() that replaces P's backing.
TEST(MemoryTlb, MapInvalidatesExistingTranslations) {
  Memory a;
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x11), MemStatus::Ok);
  Memory b = a.clone();
  (void)b; // page now shared; a's write TLB was flushed by clone()

  // map() of an overlapping range keeps existing pages but must flush, so
  // the next store re-checks sharing and breaks CoW.
  a.map(0x1000, kPage);
  ASSERT_EQ(a.store(0x1000, MType::I64, 0x22), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(b.load(0x1000, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 0x11u);
}

// The invariant the JIT's native ECC path rests on (memory.hpp): while a
// page carries a SECDED shadow it never sits in either TLB, while
// readPage()/writePage() and the typed accessors keep serving it — also in
// the copies restoreFrom() and MemorySnapshot::fork() make, which carry the
// shadow along. Other pages, and every page with ECC off, cache as before.
// The strike lands on a word the accesses below never touch, so it stays
// pending and the shadow stays up (EccHealedPageReentersTheTlb covers the
// heal).
bool tlbHolds(const Memory& m, std::uint64_t pageNo) {
  const auto [readTlb, writeTlb] = m.jitTlbView();
  for (const void* view : {readTlb, writeTlb})
    for (const Memory::TlbEntry& e : *static_cast<const Memory::Tlb*>(view))
      if (e.pageNo == pageNo) return true;
  return false;
}

TEST(MemoryTlb, EccShadowedPageNeverEntersTheTlb) {
  constexpr std::uint64_t kHit = 3, kOther = 4; // page numbers
  constexpr std::uint64_t kWord = 0x1234;
  constexpr std::uint64_t kStruck = 24; // page offset no touch() reaches
  const auto touch = [](Memory& m, std::uint64_t pageNo,
                        std::uint64_t expect) {
    std::uint64_t v = 0;
    EXPECT_EQ(m.load(pageNo * kPage + 8, MType::I64, v), MemStatus::Ok);
    EXPECT_EQ(v, expect);
    EXPECT_EQ(m.store(pageNo * kPage + 16, MType::I32, 5), MemStatus::Ok);
    ASSERT_NE(m.readPage(pageNo), nullptr);
    EXPECT_EQ(m.writePage(pageNo), m.readPage(pageNo));
    std::memcpy(&v, m.readPage(pageNo) + 8, 8);
    EXPECT_EQ(v, expect);
  };
  for (const vm::EccMode mode : {vm::EccMode::Secded, vm::EccMode::Off}) {
    SCOPED_TRACE(vm::eccModeName(mode));
    const bool shadowed = mode != vm::EccMode::Off;
    Memory m;
    m.map(0, 8 * kPage);
    m.setEccMode(mode);
    for (const std::uint64_t p : {kHit, kOther}) {
      ASSERT_EQ(m.store(p * kPage + 8, MType::I64, kWord), MemStatus::Ok);
      touch(m, p, kWord);
      ASSERT_TRUE(tlbHolds(m, p)) << "page " << p << " not warm";
    }

    ASSERT_TRUE(m.injectFault(kHit * kPage + kStruck, {5}));
    EXPECT_EQ(tlbHolds(m, kHit), !shadowed) << "strike left the page cached";
    touch(m, kHit, kWord);
    EXPECT_EQ(m.eccCorrected(), 0u);
    EXPECT_EQ(m.eccShadowed(kHit), shadowed);
    EXPECT_EQ(tlbHolds(m, kHit), !shadowed);
    touch(m, kOther, kWord);
    EXPECT_TRUE(tlbHolds(m, kOther));

    Memory restored;
    restored.restoreFrom(m);
    touch(restored, kHit, kWord);
    EXPECT_EQ(tlbHolds(restored, kHit), !shadowed) << "after restoreFrom";

    const MemorySnapshot snap = MemorySnapshot::capture(m);
    Memory forked = snap.fork();
    forked.setEccMode(mode);
    touch(forked, kHit, kWord);
    EXPECT_EQ(tlbHolds(forked, kHit), !shadowed) << "after fork";
    touch(forked, kOther, kWord);
    EXPECT_TRUE(tlbHolds(forked, kOther));
  }
}

// A struck page sheds its shadow once no word in it is pending: after
// SECDED corrects the struck word on a read, or after a store overwrites it
// (the CRC-scrub entry goes with it under secded,crc). The healed page then
// caches again like any clean page, and the correction counters are what
// they were with the shadow kept. An uncorrectable verdict keeps the word
// pending, so the shadow and the TLB exclusion stay. A restoreFrom() of a
// copy taken before the heal brings the shadow back.
TEST(MemoryTlb, EccHealedPageReentersTheTlb) {
  constexpr std::uint64_t kHit = 3; // page number
  constexpr std::uint64_t kAddr = kHit * kPage + 40;
  constexpr std::uint64_t kWord = 0xfeedfacecafeull;
  // Touch a word of the page other than the struck one, through both TLB
  // views; the page caches iff it carries no shadow.
  const auto touchOther = [](Memory& m) {
    std::uint64_t v = 0;
    EXPECT_EQ(m.load(kHit * kPage + 8, MType::I64, v), MemStatus::Ok);
    EXPECT_EQ(m.store(kHit * kPage + 16, MType::I64, 7), MemStatus::Ok);
  };
  const auto struckPage = [&](vm::EccMode mode) {
    Memory m;
    m.map(0, 8 * kPage);
    m.setEccMode(mode);
    EXPECT_EQ(m.store(kAddr, MType::I64, kWord), MemStatus::Ok);
    touchOther(m);
    EXPECT_TRUE(tlbHolds(m, kHit));
    EXPECT_TRUE(m.injectFault(kAddr, {9}));
    touchOther(m);
    EXPECT_TRUE(m.eccShadowed(kHit));
    EXPECT_FALSE(tlbHolds(m, kHit)) << "pending word, yet the page cached";
    return m;
  };

  for (const vm::EccMode mode : {vm::EccMode::Secded, vm::EccMode::SecdedCrc}) {
    SCOPED_TRACE(vm::eccModeName(mode));
    {
      SCOPED_TRACE("heal by correction");
      Memory m = struckPage(mode);
      const Memory beforeHeal = m.clone();
      std::uint64_t v = 0;
      ASSERT_EQ(m.load(kAddr, MType::I64, v), MemStatus::Ok);
      EXPECT_EQ(v, kWord);
      EXPECT_EQ(m.eccCorrected(), 1u);
      EXPECT_FALSE(m.eccShadowed(kHit));
      touchOther(m);
      EXPECT_TRUE(tlbHolds(m, kHit)) << "healed page did not cache";
      EXPECT_EQ(m.scrubEcc(), std::make_pair(std::uint64_t{0},
                                             std::uint64_t{0}));

      // Rolling back to before the heal restores the shadow, and with it
      // the pending word, which corrects once more.
      m.restoreFrom(beforeHeal);
      EXPECT_TRUE(m.eccShadowed(kHit));
      touchOther(m);
      EXPECT_FALSE(tlbHolds(m, kHit)) << "restored shadow, yet cached";
      ASSERT_EQ(m.load(kAddr, MType::I64, v), MemStatus::Ok);
      EXPECT_EQ(v, kWord);
      EXPECT_EQ(m.eccCorrected(), 1u) << "restoreFrom reseats the counters";
      EXPECT_FALSE(m.eccShadowed(kHit));
    }
    {
      SCOPED_TRACE("heal by overwrite");
      Memory m = struckPage(mode);
      ASSERT_EQ(m.store(kAddr, MType::I64, 5), MemStatus::Ok);
      EXPECT_EQ(m.eccCorrected(), 0u);
      EXPECT_FALSE(m.eccShadowed(kHit));
      touchOther(m);
      EXPECT_TRUE(tlbHolds(m, kHit)) << "healed page did not cache";
      std::uint64_t v = 0;
      ASSERT_EQ(m.load(kAddr, MType::I64, v), MemStatus::Ok);
      EXPECT_EQ(v, 5u);
      EXPECT_EQ(m.scrubEcc(), std::make_pair(std::uint64_t{0},
                                             std::uint64_t{0}));
    }
    {
      SCOPED_TRACE("uncorrectable");
      Memory m;
      m.map(0, 8 * kPage);
      m.setEccMode(mode);
      ASSERT_EQ(m.store(kAddr, MType::I64, kWord), MemStatus::Ok);
      ASSERT_TRUE(m.injectFault(kAddr, {9, 10}));
      std::uint64_t v = 0;
      EXPECT_EQ(m.load(kAddr, MType::I64, v), MemStatus::EccUncorrectable);
      EXPECT_TRUE(m.eccShadowed(kHit));
      touchOther(m);
      EXPECT_FALSE(tlbHolds(m, kHit));
    }
  }
}

// --- copy-on-write sharing (page-allocation accounting) ---------------------

TEST(MemoryCow, CloneAllocatesNoPagesUntilStore) {
  Memory a;
  a.map(0, 8 * kPage);
  const std::uint64_t before = Memory::pageAllocCount();
  Memory b = a.clone();
  EXPECT_EQ(Memory::pageAllocCount(), before) << "clone() deep-copied pages";

  // First store to a shared page copies exactly that one page.
  ASSERT_EQ(b.store(3 * kPage + 8, MType::I64, 7), MemStatus::Ok);
  EXPECT_EQ(Memory::pageAllocCount(), before + 1);
  // Second store to the same (now exclusive) page copies nothing.
  ASSERT_EQ(b.store(3 * kPage + 16, MType::I64, 8), MemStatus::Ok);
  EXPECT_EQ(Memory::pageAllocCount(), before + 1);
}

TEST(MemoryCow, SnapshotForkSharesAllPages) {
  Memory a;
  a.map(0, 16 * kPage);
  ASSERT_EQ(a.store(0, MType::I64, 42), MemStatus::Ok);
  const MemorySnapshot snap = MemorySnapshot::capture(a);

  const std::uint64_t before = Memory::pageAllocCount();
  Memory f1 = snap.fork();
  Memory f2 = snap.fork();
  EXPECT_EQ(Memory::pageAllocCount(), before) << "fork() deep-copied pages";

  // Forks are isolated from each other and from the source.
  ASSERT_EQ(f1.store(0, MType::I64, 100), MemStatus::Ok);
  ASSERT_EQ(f2.store(0, MType::I64, 200), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(a.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 42u);
  ASSERT_EQ(f1.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 100u);
  ASSERT_EQ(f2.load(0, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(Memory::pageAllocCount(), before + 2); // one CoW break per fork
}

// --- typed accessors, plain and CoW-forked ----------------------------------

// The accessor semantics (extension rules, alignment faults, page-spanning
// raw access) must hold identically on an address space whose pages are
// CoW-shared with a snapshot — the campaign per-trial configuration.
class MemoryAccessors : public ::testing::TestWithParam<bool> {
protected:
  // Returns a Memory with [0x1000, 0x3000) mapped; when the param is true,
  // every page is CoW-shared with `snap_`.
  Memory make() {
    Memory m;
    m.map(0x1000, 2 * kPage);
    if (GetParam()) {
      snap_ = MemorySnapshot::capture(m);
      return snap_.fork();
    }
    return m;
  }
  MemorySnapshot snap_;
};

TEST_P(MemoryAccessors, I8LoadZeroExtends) {
  Memory m = make();
  ASSERT_EQ(m.store(0x1001, MType::I8, static_cast<std::uint64_t>(-2)),
            MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1001, MType::I8, v), MemStatus::Ok);
  EXPECT_EQ(v, 0xfeu);
}

TEST_P(MemoryAccessors, I32LoadSignExtends) {
  Memory m = make();
  ASSERT_EQ(m.store(0x1004, MType::I32, static_cast<std::uint64_t>(-7)),
            MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1004, MType::I32, v), MemStatus::Ok);
  EXPECT_EQ(static_cast<std::int64_t>(v), -7);
}

TEST_P(MemoryAccessors, I64RoundTripsRaw) {
  Memory m = make();
  const std::uint64_t pattern = 0x8000'0000'dead'beefull;
  ASSERT_EQ(m.store(0x1008, MType::I64, pattern), MemStatus::Ok);
  std::uint64_t v = 0;
  ASSERT_EQ(m.load(0x1008, MType::I64, v), MemStatus::Ok);
  EXPECT_EQ(v, pattern);
}

TEST_P(MemoryAccessors, MisalignmentFaultsAtEveryWidth) {
  Memory m = make();
  std::uint64_t v;
  double fv;
  EXPECT_EQ(m.load(0x1002, MType::I32, v), MemStatus::Misaligned);
  EXPECT_EQ(m.load(0x1004, MType::I64, v), MemStatus::Misaligned);
  EXPECT_EQ(m.loadF(0x1002, MType::F32, fv), MemStatus::Misaligned);
  EXPECT_EQ(m.loadF(0x100c, MType::F64, fv), MemStatus::Misaligned);
  EXPECT_EQ(m.store(0x1002, MType::I32, 0), MemStatus::Misaligned);
  EXPECT_EQ(m.store(0x1004, MType::I64, 0), MemStatus::Misaligned);
  EXPECT_EQ(m.storeF(0x1002, MType::F32, 0.0), MemStatus::Misaligned);
  EXPECT_EQ(m.storeF(0x100c, MType::F64, 0.0), MemStatus::Misaligned);
}

TEST_P(MemoryAccessors, BytesSpanPageBoundary) {
  Memory m = make();
  std::uint8_t data[64];
  for (int i = 0; i < 64; ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  const std::uint64_t addr = 0x2000 - 32; // straddles the two mapped pages
  ASSERT_TRUE(m.writeBytes(addr, data, 64));
  std::uint8_t back[64] = {};
  ASSERT_TRUE(m.readBytes(addr, back, 64));
  EXPECT_EQ(std::memcmp(data, back, 64), 0);
  // Running past the mapped range fails without partial-write confusion.
  EXPECT_FALSE(m.readBytes(0x3000 - 8, back, 16));
}

INSTANTIATE_TEST_SUITE_P(PlainAndCowForked, MemoryAccessors,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CowForked" : "Plain";
                         });

} // namespace
} // namespace care::test
