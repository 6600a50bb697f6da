// Differential testing of the two backends against each other: the
// reference big-switch loop (the executable specification) and the
// per-block template JIT. Every observable — status, instruction count,
// exit code, register file (bitwise), emitted output, per-static-
// instruction profile counts, and trap kind/pc/address — must be identical:
//  * golden (fault-free) runs of all five workloads, detectors unarmed and
//    armed (signature cells, shadow address chains, SentinelTrap),
//  * budget-capped runs stopping mid-execution after a few thousand
//    instructions (exact-budget deopt on the JIT side),
//  * trapping programs (SegFault / Fpe),
//  * fuzzed injection runs that corrupt a register mid-flight at sampled hot
//    instructions and let the corruption play out to whatever end state,
//  * profiled runs, where the JIT counts in native code: checkpointed runs
//    compared at every segment boundary (stops landing mid-block), a
//    SIGSEGV Safeguard repairs and retries, and profiling switched on by a
//    trap hook mid-run.
// All backends in a leg share ONE Image: rebuilding a sentinel-armed module
// is not bit-deterministic across in-process builds, and the contract under
// test is per-image equivalence.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cstring>

#include "care/safeguard.hpp"
#include "inject/experiment.hpp"
#include "sentinel/sentinel.hpp"
#include "support/md5.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "vm/checkpoint_ring.hpp"
#include "vm/decode.hpp"
#include "vm/jit.hpp"
#include "workloads/workloads.hpp"

namespace care::test {
namespace {

using workloads::Workload;

constexpr vm::InterpKind kKinds[] = {vm::InterpKind::Ref, vm::InterpKind::Jit};
constexpr std::size_t kNumKinds = 2;

// The lowered module must outlive the Image.
struct BuildKeep {
  std::unique_ptr<ir::Module> irMod;
  std::unique_ptr<backend::MModule> mMod;
};

std::unique_ptr<vm::Image> lowerWorkload(const Workload& w, BuildKeep& keep,
                                         bool armDetectors = false) {
  keep.irMod = std::make_unique<ir::Module>(w.name);
  for (const auto& s : w.sources)
    lang::compileIntoModule(s.content, s.name, *keep.irMod);
  ir::verifyOrDie(*keep.irMod);
  opt::optimize(*keep.irMod, opt::OptLevel::O0);
  if (armDetectors) {
    sentinel::DetectOptions det;
    det.cfc = det.addr = true;
    sentinel::runSentinel(*keep.irMod, det);
    ir::verifyOrDie(*keep.irMod);
  }
  keep.mMod = backend::lowerModule(*keep.irMod);
  auto image = std::make_unique<vm::Image>();
  image->load(keep.mMod.get());
  image->link();
  return image;
}

// Run to completion (resuming across barriers) under the given interpreter.
vm::RunResult runUnder(vm::Executor& ex, vm::InterpKind kind,
                       const std::string& entry) {
  ex.setInterp(kind);
  return vm::runToCompletion(ex, entry);
}

std::string pairTag(vm::InterpKind a, vm::InterpKind b,
                    const std::string& tag) {
  return tag + " [" + std::string(vm::interpName(a)) + " vs " +
         vm::interpName(b) + "]";
}

void expectSameResult(const vm::RunResult& a, const vm::RunResult& b,
                      const std::string& tag) {
  EXPECT_EQ(a.status, b.status) << tag;
  EXPECT_EQ(a.instrCount, b.instrCount) << tag;
  EXPECT_EQ(a.exitCode, b.exitCode) << tag;
  EXPECT_EQ(a.trap.kind, b.trap.kind) << tag;
  EXPECT_EQ(a.trap.pc, b.trap.pc) << tag;
  EXPECT_EQ(a.trap.addr, b.trap.addr) << tag;
}

void expectSameMachine(vm::Executor& a, vm::Executor& b,
                       const std::string& tag) {
  EXPECT_EQ(std::memcmp(a.state().g, b.state().g, sizeof a.state().g), 0)
      << tag << ": integer register files differ";
  EXPECT_EQ(std::memcmp(a.state().f, b.state().f, sizeof a.state().f), 0)
      << tag << ": FP register files differ";
  EXPECT_EQ(a.output(), b.output()) << tag << ": emitted output differs";
}

void expectSameProfile(const vm::Image& image, vm::Executor& a,
                       vm::Executor& b, const std::string& tag) {
  for (std::size_t m = 0; m < image.numModules(); ++m) {
    const auto& fns = image.module(m).mod->functions;
    for (std::size_t fi = 0; fi < fns.size(); ++fi)
      for (std::size_t i = 0; i < fns[fi].code.size(); ++i) {
        const vm::CodeLoc loc{static_cast<std::int32_t>(m),
                              static_cast<std::int32_t>(fi),
                              static_cast<std::int32_t>(i)};
        ASSERT_EQ(a.profileCount(loc), b.profileCount(loc))
            << tag << ": profile count diverges at (" << m << "," << fi << ","
            << i << ")";
      }
  }
}

// Run one executor per backend against the shared image, then compare every
// backend pair. `arm` customizes each executor before it runs (budget,
// profiling, injection, ...).
template <typename Arm>
std::array<vm::RunResult, kNumKinds>
diffAllBackends(const vm::Image* image, const std::string& entry,
                const std::string& tag, bool profile, Arm arm) {
  std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
  std::array<vm::RunResult, kNumKinds> res;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    ex[k] = std::make_unique<vm::Executor>(image);
    arm(*ex[k]);
    res[k] = runUnder(*ex[k], kKinds[k], entry);
  }
  for (std::size_t a = 0; a < kNumKinds; ++a)
    for (std::size_t b = a + 1; b < kNumKinds; ++b) {
      const std::string t = pairTag(kKinds[a], kKinds[b], tag);
      expectSameResult(res[a], res[b], t);
      expectSameMachine(*ex[a], *ex[b], t);
      if (profile) expectSameProfile(*image, *ex[a], *ex[b], t);
    }
  return res;
}

class WorkloadDiff : public ::testing::TestWithParam<const Workload*> {};

TEST_P(WorkloadDiff, GoldenRunBitIdentical) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  const auto res = diffAllBackends(image.get(), w.entry, w.name,
                                   /*profile=*/true, [](vm::Executor& ex) {
                                     ex.enableProfiling();
                                     ex.setBudget(500'000'000);
                                   });
  ASSERT_EQ(res[0].status, vm::RunStatus::Done) << w.name;
}

// Sentinel-instrumented code (signature cells, shadow address chains, the
// SentinelTrap op itself) must execute identically under all backends.
TEST_P(WorkloadDiff, DetectorsArmedGoldenRunBitIdentical) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep, /*armDetectors=*/true);

  const auto res = diffAllBackends(image.get(), w.entry, w.name + " (detectors)",
                                   /*profile=*/true, [](vm::Executor& ex) {
                                     ex.enableProfiling();
                                     ex.setBudget(500'000'000);
                                   });
  ASSERT_EQ(res[0].status, vm::RunStatus::Done) << w.name;
}

// Exact dynamic-instruction budgets: every backend must stop at precisely
// the same instruction with the same machine state. On the JIT side this
// exercises the block-fit check / deopt-to-interpreter boundary protocol.
TEST_P(WorkloadDiff, BudgetCappedRunStopsIdentically) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  for (const std::uint64_t budget : {1ull, 1000ull, 4096ull, 5001ull}) {
    const std::string tag = w.name + " budget=" + std::to_string(budget);
    const auto res =
        diffAllBackends(image.get(), w.entry, tag, /*profile=*/false,
                        [budget](vm::Executor& ex) { ex.setBudget(budget); });
    ASSERT_EQ(res[0].status, vm::RunStatus::BudgetExceeded) << tag;
  }
}

// --- profiled runs: the JIT counts in native code --------------------------

// FNV-1a over the 64-bit words of `bytes` (a multiple of 8): a cheap
// fingerprint for per-boundary state.
std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ull;

// Every profile counter, in (module, func, instr) order.
std::vector<std::uint64_t> profileCounts(const vm::Image& image,
                                         const vm::Executor& ex) {
  std::vector<std::uint64_t> out;
  for (std::size_t m = 0; m < image.numModules(); ++m) {
    const auto& fns = image.module(m).mod->functions;
    for (std::size_t fi = 0; fi < fns.size(); ++fi)
      for (std::size_t i = 0; i < fns[fi].code.size(); ++i)
        out.push_back(ex.profileCount({static_cast<std::int32_t>(m),
                                       static_cast<std::int32_t>(fi),
                                       static_cast<std::int32_t>(i)}));
  }
  return out;
}

// One segment boundary of a checkpointed run: the ResumePoint's position
// and count verbatim, fingerprints of its registers, output and (when
// asked) address space, and of every profile counter at that moment.
struct Boundary {
  std::uint64_t instrCount;
  std::int32_t module, func, instr;
  bool started;
  std::uint64_t regs, output, memory, profile;
  bool operator==(const Boundary&) const = default;
};

Boundary captureBoundary(const vm::Image& image, vm::Executor& ex,
                         bool withMemory) {
  const vm::Executor::ResumePoint rp = ex.resumePoint();
  Boundary b{rp.instrCount, rp.module, rp.func, rp.instr, rp.started,
             0,             0,         0,       0};
  b.regs = fnv(fnv(kFnvSeed, rp.st.g, sizeof rp.st.g), rp.st.f,
               sizeof rp.st.f);
  b.output = fnv(kFnvSeed, rp.output.data(), 8 * rp.output.size());
  if (withMemory) {
    const vm::Memory mem = rp.mem.fork();
    std::vector<std::uint8_t> page(vm::Memory::kPageSize);
    b.memory = kFnvSeed;
    for (const std::uint64_t pn : mem.pageNumbers()) {
      EXPECT_TRUE(mem.readBytes(pn * vm::Memory::kPageSize, page.data(),
                                page.size()));
      b.memory = fnv(fnv(b.memory, &pn, 8), page.data(), page.size());
    }
  }
  const std::vector<std::uint64_t> counts = profileCounts(image, ex);
  b.profile = fnv(kFnvSeed, counts.data(), 8 * counts.size());
  return b;
}

// A profiled run paused every `interval` instructions by runCheckpointed,
// the way Campaign::profile's checkpoint pass drives it: at every boundary
// the ResumePoint and every profile counter must match across backends.
// golden/64 is the campaign's auto spacing; the odd 997 stops mid-block,
// so the JIT deopts to the reference loop for the block's tail and resumes
// the profiling variant at the next block, counting into the same rows.
TEST_P(WorkloadDiff, ProfiledCheckpointedRunsMatchAtEveryBoundary) {
  const Workload& w = *GetParam();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);
  vm::Executor probe(image.get());
  probe.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(probe, vm::InterpKind::Jit, w.entry);
  ASSERT_EQ(golden.status, vm::RunStatus::Done) << w.name;

  for (const std::uint64_t interval :
       {golden.instrCount / 64, std::uint64_t{997}}) {
    const bool withMemory = interval != 997;
    const std::string tag = w.name + " interval=" + std::to_string(interval);
    std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
    std::array<vm::RunResult, kNumKinds> res;
    std::array<std::vector<Boundary>, kNumKinds> bounds;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      ex[k] = std::make_unique<vm::Executor>(image.get());
      ex[k]->setInterp(kKinds[k]);
      ex[k]->enableProfiling();
      res[k] = vm::runCheckpointed(
          *ex[k], w.entry, interval, 500'000'000, [&](vm::Executor& e) {
            bounds[k].push_back(captureBoundary(*image, e, withMemory));
          });
    }
    ASSERT_EQ(res[0].status, vm::RunStatus::Done) << tag;
    ASSERT_GT(bounds[0].size(), 60u) << tag;
    for (std::size_t a = 0; a < kNumKinds; ++a)
      for (std::size_t b = a + 1; b < kNumKinds; ++b) {
        const std::string t = pairTag(kKinds[a], kKinds[b], tag);
        expectSameResult(res[a], res[b], t);
        expectSameMachine(*ex[a], *ex[b], t);
        expectSameProfile(*image, *ex[a], *ex[b], t);
        ASSERT_EQ(bounds[a].size(), bounds[b].size()) << t;
        for (std::size_t i = 0; i < bounds[a].size(); ++i)
          ASSERT_EQ(bounds[a][i], bounds[b][i])
              << t << ": boundary " << i << " (instrCount "
              << bounds[a][i].instrCount << ") differs";
      }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDiff,
    ::testing::ValuesIn(workloads::allWorkloads()),
    [](const ::testing::TestParamInfo<const Workload*>& info) {
      std::string n = info.param->name;
      for (char& c : n)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

// --- trapping programs ------------------------------------------------------

void diffProgram(const std::string& src, vm::RunStatus wantStatus,
                 vm::TrapKind wantKind, const std::string& tag) {
  Program p = buildProgram(src, opt::OptLevel::O0);
  const auto res =
      diffAllBackends(p.image.get(), "main", tag, /*profile=*/false,
                      [](vm::Executor& ex) { ex.setBudget(10'000'000); });
  ASSERT_EQ(res[0].status, wantStatus) << tag;
  if (wantStatus == vm::RunStatus::Trapped)
    ASSERT_EQ(res[0].trap.kind, wantKind) << tag;
}

TEST(TrapDiff, OutOfBoundsStoreSegfaultsIdentically) {
  diffProgram(R"(
    int a[4];
    int main() {
      int i = 1000000;
      a[i] = 3;
      return a[0];
    })", vm::RunStatus::Trapped, vm::TrapKind::SegFault, "oob-store");
}

TEST(TrapDiff, OutOfBoundsLoadSegfaultsIdentically) {
  diffProgram(R"(
    double a[8];
    int main() {
      int i = 800000;
      return (int)(a[i]);
    })", vm::RunStatus::Trapped, vm::TrapKind::SegFault, "oob-load");
}

TEST(TrapDiff, DivisionByZeroFpeIdentically) {
  diffProgram(R"(
    int main() {
      int x = 7;
      int y = 0;
      return x / y;
    })", vm::RunStatus::Trapped, vm::TrapKind::Fpe, "div-zero");
}

TEST(TrapDiff, RemainderOverflowFpeIdentically) {
  diffProgram(R"(
    int main() {
      int x = -2147483648;
      int y = -1;
      return x % y;
    })", vm::RunStatus::Trapped, vm::TrapKind::Fpe, "rem-overflow");
}

// --- fused divide-from-memory ------------------------------------------------

// `x / g` and `x % g` with `g` a global load fuse into IAluMem divides
// (src/backend/isel.cpp). The JIT emits them natively with the reference
// loop's Fpe checks at both widths: a hot loop of them must match ref and
// retire nothing on the reference loop, and its divide by zero and its
// MIN / -1 must trap with the same kind at the same instruction count.
TEST(FusedDivideDiff, GlobalDivisorLoopMatchesRefNatively) {
  // Compile on first touch so "nothing on the reference loop" holds under
  // a raised CARE_JIT_THRESHOLD too (JitImage reads it at construction).
  const ScopedEnv firstTouch("CARE_JIT_THRESHOLD", "1");
  struct Leg {
    const char* tag;
    const char* trapAt; // statement run at i == 1500, or "" for none
  };
  const Leg legs[] = {
      {"no trap", ""},
      {"i32 div by zero", "gi = 0;"},
      {"i64 div by zero", "gl = 0;"},
      {"i32 MIN / -1", "gi = -1; vi = -2147483647 - 1;"},
      {"i64 MIN / -1", "gl = -1; vl = mn;"},
  };
  for (const Leg& leg : legs) {
    const std::string src = std::string(R"(
      int gi = 7;
      long gl = 5;
      int main() {
        int s = 0;
        long t = 0;
        long mn = 1;
        for (int k = 0; k < 63; k = k + 1) mn = mn * 2;
        for (int i = 1; i < 2000; i = i + 1) {
          int vi = i * 3;
          long vl = t + i;
          if (i == 1500) { )") + leg.trapAt + R"( }
          s = s + vi / gi + vi % gi;
          t = t + vl / gl + vl % gl;
        }
        emiti(t);
        return s;
      })";
    Program p = buildProgram(src, opt::OptLevel::O0);
    // The divides under test really are fused loads of both widths.
    bool i32 = false, i64 = false;
    for (const auto& fn : p.image->decoded().funcs[0])
      for (const vm::DInst& d : fn.code)
        if (d.kind == vm::DKind::IAluMem &&
            (static_cast<backend::MOp>(d.sub) == backend::MOp::IDiv ||
             static_cast<backend::MOp>(d.sub) == backend::MOp::IRem)) {
          i32 |= d.memType == backend::MType::I32;
          i64 |= d.memType == backend::MType::I64;
        }
    ASSERT_TRUE(i32 && i64) << leg.tag << ": no fused divide of each width";

    const auto res = diffAllBackends(
        p.image.get(), "main", leg.tag, /*profile=*/false, [](vm::Executor& ex) {
          ex.setBudget(10'000'000);
        });
    if (*leg.trapAt) {
      ASSERT_EQ(res[0].status, vm::RunStatus::Trapped) << leg.tag;
      EXPECT_EQ(res[0].trap.kind, vm::TrapKind::Fpe) << leg.tag;
    } else {
      ASSERT_EQ(res[0].status, vm::RunStatus::Done) << leg.tag;
    }
    if (vm::jitAvailable()) {
      vm::Executor jit(p.image.get());
      jit.setInterp(vm::InterpKind::Jit);
      jit.setBudget(10'000'000);
      const vm::RunResult r = vm::runToCompletion(jit, "main");
      EXPECT_EQ(r.instrCount, res[0].instrCount) << leg.tag;
      EXPECT_EQ(jit.jitInterpretedInstrs(), 0u)
          << leg.tag << ": fused divides left native code";
    }
  }
}

// --- injection fuzz ---------------------------------------------------------

// Corrupt one integer register at the n-th execution of a hot instruction
// and let the fault play out: soft failure, masked run, or silent
// corruption — whatever happens, all backends must land on the same bits.
// This sweeps the trap paths (SegFault/Bus/BadPC from wild addresses), the
// injection arming/firing bookkeeping, and the post-injection
// instrumented→plain handoff (which on the JIT backend is the handoff from
// the armed window back to native code) in one go.
TEST(InjectionDiff, RegisterCorruptionPlaysOutIdentically) {
  const Workload& w = workloads::hpccg();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  // Profile once (reference loop) to find hot instructions worth hitting.
  vm::Executor prof(image.get());
  prof.enableProfiling();
  prof.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(prof, vm::InterpKind::Ref, w.entry);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  struct Hot {
    vm::CodeLoc loc;
    std::uint64_t count;
  };
  std::vector<Hot> hot;
  for (std::size_t m = 0; m < image->numModules(); ++m) {
    const auto& fns = image->module(m).mod->functions;
    for (std::size_t fi = 0; fi < fns.size(); ++fi)
      for (std::size_t i = 0; i < fns[fi].code.size(); ++i) {
        const vm::CodeLoc loc{static_cast<std::int32_t>(m),
                              static_cast<std::int32_t>(fi),
                              static_cast<std::int32_t>(i)};
        const std::uint64_t c = prof.profileCount(loc);
        if (c > 1000) hot.push_back({loc, c});
      }
  }
  ASSERT_GT(hot.size(), 8u);

  Rng rng(0xD1FF);
  int trapped = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const Hot& h = hot[rng.next() % hot.size()];
    const std::uint64_t nth = 1 + rng.next() % h.count;
    const int reg = static_cast<int>(rng.next() % backend::kNumRegs);
    const int bit = static_cast<int>(rng.next() % 64);
    const auto corrupt = [reg, bit](vm::Executor& ex) {
      ex.state().g[reg] ^= 1ull << bit;
    };

    const std::string tag = "trial " + std::to_string(trial) + " @(" +
                            std::to_string(h.loc.module) + "," +
                            std::to_string(h.loc.func) + "," +
                            std::to_string(h.loc.instr) + ") nth=" +
                            std::to_string(nth) + " g" + std::to_string(reg) +
                            "^bit" + std::to_string(bit);
    const auto res = diffAllBackends(
        image.get(), w.entry, tag, /*profile=*/false,
        [&](vm::Executor& ex) {
          ex.setBudget(2 * golden.instrCount);
          ex.armInjection(h.loc, nth, corrupt);
        });
    if (res[0].status == vm::RunStatus::Trapped) ++trapped;
  }
  // The sweep should have found at least one hard fault to be meaningful.
  EXPECT_GT(trapped, 0) << "fuzz never produced a trap; widen the sweep";
}

// --- memory-fault fuzz (DESIGN.md §4i) --------------------------------------

// Digest of the whole mapped address space, page by page in page order.
std::string memoryDigest(vm::Executor& ex) {
  Md5 h;
  std::vector<std::uint8_t> buf(vm::Memory::kPageSize);
  for (const std::uint64_t pn : ex.memory().pageNumbers()) {
    EXPECT_TRUE(
        ex.memory().readBytes(pn * vm::Memory::kPageSize, buf.data(),
                              buf.size()));
    h.update(buf.data(), buf.size());
  }
  return h.finish().hex();
}

// True for the accesses narrower than the 64-bit word ECC protects: a
// sub-word load verifies the whole word, a sub-word store verifies it before
// merging its bytes.
bool subWordAccess(const vm::DInst& d) {
  switch (d.kind) {
  case vm::DKind::LoadI8: case vm::DKind::LoadI32: case vm::DKind::LoadF32:
  case vm::DKind::StoreI8: case vm::DKind::StoreI32: case vm::DKind::StoreF32:
    return true;
  case vm::DKind::IAluMem: case vm::DKind::FAluMem:
    return d.memType != backend::MType::I64 &&
           d.memType != backend::MType::F64;
  default:
    return false;
  }
}

// The word the first sub-word access at or after instruction `at` touches,
// found by single-stepping a ref run with the access trace armed.
std::uint64_t nextSubWordTarget(const vm::Image* image, const Workload& w,
                                std::uint64_t at) {
  vm::Executor ex(image);
  ex.setInterp(vm::InterpKind::Ref);
  EXPECT_EQ(ex.runBounded(at, w.entry).status,
            vm::RunStatus::BudgetExceeded);
  std::vector<std::uint64_t> trace;
  ex.memory().setAccessTrace(&trace);
  for (int step = 0; step < 1'000'000; ++step) {
    const vm::CodeLoc loc = image->locate(ex.currentPC());
    const vm::DInst& d =
        image->decoded()
            .funcs[static_cast<std::size_t>(loc.module)]
                  [static_cast<std::size_t>(loc.func)]
            .code[static_cast<std::size_t>(loc.instr)];
    trace.clear();
    if (ex.runBounded(ex.instrCount() + 1, w.entry).status !=
        vm::RunStatus::BudgetExceeded)
      break;
    if (subWordAccess(d) && !trace.empty()) return trace.back();
  }
  ADD_FAILURE() << "no sub-word access after instruction " << at;
  return 0;
}

// A word on a page the JIT backend holds in both its read and its write TLB
// when it stops at instruction `at`.
std::uint64_t warmPageTarget(const vm::Image* image, const Workload& w,
                             std::uint64_t at, Rng& rng) {
  vm::Executor ex(image);
  ex.setInterp(vm::InterpKind::Jit);
  EXPECT_EQ(ex.runBounded(at, w.entry).status,
            vm::RunStatus::BudgetExceeded);
  const auto [readView, writeView] = ex.memory().jitTlbView();
  const auto& readTlb = *static_cast<const vm::Memory::Tlb*>(readView);
  const auto& writeTlb = *static_cast<const vm::Memory::Tlb*>(writeView);
  std::vector<std::uint64_t> warm;
  for (const vm::Memory::TlbEntry& r : readTlb)
    for (const vm::Memory::TlbEntry& wr : writeTlb)
      if (r.data && r.pageNo == wr.pageNo) warm.push_back(r.pageNo);
  if (warm.empty()) {
    ADD_FAILURE() << "no page warm in both TLBs at instruction " << at;
    return 0;
  }
  return warm[rng.next() % warm.size()] * vm::Memory::kPageSize +
         8 * (rng.next() % 512);
}

// Flip bits in a mapped word at a sampled dynamic-instruction time and let
// the corruption play out under all three backends, with ECC off, SECDED
// and SECDED+CRC: trap kind, faulting instrCount, registers, output, ECC
// counters and the full post-run memory image must be pairwise identical.
// Models rotate across strikes: single bit, adjacent pair, 8-bit lane burst.
// Besides uniformly sampled words, targeted strikes hit words the run is
// sure to touch again, so on the JIT the shadowed page leaves native code
// through each translating template: the word at the stack pointer (Call
// and Ret), a word on a page warm in both TLBs at strike time (the strike
// must evict it), and the word of the next sub-word load or store.
TEST(InjectionDiff, MemoryFaultPlaysOutIdenticallyAcrossBackends) {
  const Workload& w = workloads::hpccg();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);

  vm::Executor prof(image.get());
  prof.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(prof, vm::InterpKind::Ref, w.entry);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  vm::Executor probe(image.get());
  const std::vector<std::uint64_t> pages = probe.memory().pageNumbers();
  ASSERT_FALSE(pages.empty());

  enum class Target { Uniform, StackPointer, WarmPage, SubWord };
  struct Strike {
    Target target;
    std::uint64_t at;
    std::uint64_t addr;
    std::vector<unsigned> bits;
  };
  Rng rng(0xECC);
  std::vector<Strike> strikes;
  for (const Target target : {Target::Uniform, Target::StackPointer,
                              Target::WarmPage, Target::SubWord}) {
    const int count = target == Target::Uniform ? 9 : 3;
    for (int i = 0; i < count; ++i) {
      Strike st{target, 1 + rng.next() % (golden.instrCount - 1), 0, {}};
      switch (target) {
      case Target::Uniform:
        st.addr = pages[rng.next() % pages.size()] * vm::Memory::kPageSize +
                  8 * (rng.next() % 512);
        break;
      case Target::StackPointer: {
        vm::Executor ex(image.get());
        ex.setInterp(vm::InterpKind::Ref);
        ASSERT_EQ(ex.runBounded(st.at, w.entry).status,
                  vm::RunStatus::BudgetExceeded);
        st.addr = ex.state().g[backend::kSP] & ~7ull;
        break;
      }
      case Target::WarmPage:
        st.addr = warmPageTarget(image.get(), w, st.at, rng);
        break;
      case Target::SubWord:
        st.addr = nextSubWordTarget(image.get(), w, st.at);
        break;
      }
      switch (i % 3) {
      case 0: // mem1
        st.bits = {static_cast<unsigned>(rng.next() % 64)};
        break;
      case 1: { // mem2adj
        const unsigned p = static_cast<unsigned>(rng.next() % 63);
        st.bits = {p, p + 1};
        break;
      }
      default: { // burst: one byte lane
        const unsigned lane = static_cast<unsigned>(rng.next() % 8);
        for (unsigned b = 0; b < 8; ++b) st.bits.push_back(8 * lane + b);
        break;
      }
      }
      strikes.push_back(std::move(st));
    }
  }

  static constexpr const char* kTargetName[] = {"uniform", "sp", "warm",
                                                "subword"};
  for (std::size_t si = 0; si < strikes.size(); ++si) {
    const Strike& st = strikes[si];
    for (const vm::EccMode mode : {vm::EccMode::Off, vm::EccMode::Secded,
                                   vm::EccMode::SecdedCrc}) {
      const std::string tag =
          "strike " + std::to_string(si) + " (" +
          kTargetName[static_cast<int>(st.target)] +
          ") addr=" + std::to_string(st.addr) +
          " at=" + std::to_string(st.at) + " ecc=" + vm::eccModeName(mode);
      std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
      std::array<vm::RunResult, kNumKinds> res;
      std::array<std::string, kNumKinds> digest;
      for (std::size_t k = 0; k < kNumKinds; ++k) {
        ex[k] = std::make_unique<vm::Executor>(image.get());
        ex[k]->setInterp(kKinds[k]);
        ex[k]->memory().setEccMode(mode);
        ex[k]->setBudget(2 * golden.instrCount);
        const vm::RunResult stop = ex[k]->runBounded(st.at, w.entry);
        ASSERT_EQ(stop.status, vm::RunStatus::BudgetExceeded) << tag;
        ASSERT_EQ(stop.instrCount, st.at) << tag;
        ASSERT_TRUE(ex[k]->memory().injectFault(st.addr, st.bits)) << tag;
        const std::uint64_t interpBefore = ex[k]->jitInterpretedInstrs();
        res[k] = vm::runToCompletion(*ex[k], w.entry);
        digest[k] = memoryDigest(*ex[k]);
        // A targeted word is touched again, so with a shadow on its page
        // the JIT must have left native code for at least that access.
        if (kKinds[k] == vm::InterpKind::Jit && vm::jitAvailable() &&
            mode != vm::EccMode::Off && st.target != Target::Uniform)
          EXPECT_GT(ex[k]->jitInterpretedInstrs(), interpBefore)
              << tag << ": no shadowed-page exit";
      }
      for (std::size_t a = 0; a < kNumKinds; ++a)
        for (std::size_t b = a + 1; b < kNumKinds; ++b) {
          const std::string t = pairTag(kKinds[a], kKinds[b], tag);
          expectSameResult(res[a], res[b], t);
          expectSameMachine(*ex[a], *ex[b], t);
          EXPECT_EQ(digest[a], digest[b])
              << t << ": post-fault memory images differ";
          EXPECT_EQ(ex[a]->memory().eccCorrected(),
                    ex[b]->memory().eccCorrected()) << t;
          EXPECT_EQ(ex[a]->memory().eccUncorrectable(),
                    ex[b]->memory().eccUncorrectable()) << t;
        }
    }
  }
}

// --- profiled traps ----------------------------------------------------------

// A register fault that Safeguard repairs: a campaign point whose plain run
// dies of SIGSEGV and whose CARE run recovers. The corruption is applied at
// an exact budget stop instead of through an armed injection, so on the JIT
// the profiled run reaches the fault on native code, the SIGSEGV leaves the
// profiling variant through its trap exit mid-block, and Safeguard's Retry
// re-enters it at the patched instruction. Counts, registers and output
// must match ref, which counts the trapping instruction once per attempt.
TEST(ProfiledTrapDiff, SafeguardRepairedSegfaultCountsIdentically) {
  const Workload& w = workloads::hpccg();
  inject::ExperimentConfig ecfg;
  ecfg.cacheDir = "care_test_artifacts/vm_diff_profiled_trap";
  ecfg.armor.detectAuto = false;
  ecfg.armor.detectSampleAuto = false;
  const inject::BuiltWorkload built = inject::buildWorkload(w, ecfg);
  inject::CampaignConfig cfg;
  cfg.entry = w.entry;
  cfg.fault = inject::FaultModel::Reg;
  cfg.ecc = vm::EccMode::Off;
  inject::Campaign campaign(built.image.get(), cfg);
  ASSERT_TRUE(campaign.profile());

  Rng rng(0x5E6F);
  inject::InjectionPoint pt;
  bool found = false;
  for (int i = 0; i < 400 && !found; ++i) {
    pt = campaign.sample(rng);
    const inject::InjectionResult plain = campaign.runInjection(pt);
    found = plain.outcome == inject::Outcome::SoftFailure &&
            plain.signal == vm::TrapKind::SegFault &&
            campaign.runInjection(pt, &built.artifacts).careRecovered;
  }
  ASSERT_TRUE(found) << "no Safeguard-repairable SIGSEGV among the samples";

  // The instruction count at which the injection fires.
  std::uint64_t fireAt = 0;
  {
    vm::Executor ex(built.image.get());
    ex.setInterp(vm::InterpKind::Ref);
    ex.armInjection(pt.loc, pt.nth,
                    [&fireAt](vm::Executor& e) { fireAt = e.instrCount(); });
    ASSERT_EQ(runUnder(ex, vm::InterpKind::Ref, w.entry).status,
              vm::RunStatus::Done);
  }
  ASSERT_GT(fireAt, 0u);

  std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
  std::array<std::unique_ptr<core::Safeguard>, kNumKinds> sg;
  std::array<vm::RunResult, kNumKinds> res;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    ex[k] = std::make_unique<vm::Executor>(built.image.get());
    ex[k]->setInterp(kKinds[k]);
    ex[k]->enableProfiling();
    ex[k]->setBudget(2 * campaign.goldenInstrs());
    sg[k] = std::make_unique<core::Safeguard>();
    for (const auto& [mi, arts] : built.artifacts) sg[k]->addModule(mi, arts);
    sg[k]->attach(*ex[k]);
    ASSERT_EQ(ex[k]->runBounded(fireAt, w.entry).status,
              vm::RunStatus::BudgetExceeded);
    inject::Campaign::corruptDestination(*ex[k], pt.loc, pt.bits);
    const std::uint64_t interpBefore = ex[k]->jitInterpretedInstrs();
    res[k] = vm::runToCompletion(*ex[k], w.entry);
    EXPECT_GT(sg[k]->stats().recovered, 0u) << vm::interpName(kKinds[k]);
    if (kKinds[k] == vm::InterpKind::Jit && vm::jitAvailable())
      EXPECT_LT(100 * (ex[k]->jitInterpretedInstrs() - interpBefore),
                res[k].instrCount - fireAt)
          << "the repaired remainder did not run on the profiling variant";
  }
  ASSERT_EQ(res[0].status, vm::RunStatus::Done);
  for (std::size_t a = 0; a < kNumKinds; ++a)
    for (std::size_t b = a + 1; b < kNumKinds; ++b) {
      const std::string t = pairTag(kKinds[a], kKinds[b], "segv repair");
      expectSameResult(res[a], res[b], t);
      expectSameMachine(*ex[a], *ex[b], t);
      expectSameProfile(*built.image, *ex[a], *ex[b], t);
      EXPECT_EQ(sg[a]->stats().activations, sg[b]->stats().activations) << t;
    }
}

// Profiling switched on by a trap hook mid-run. Every 1000th iteration
// divides by a zero global (through a register, so the JIT traps in a
// native template rather than in a single-stepped fused op); the hook enables profiling at the first trap,
// patches the divisor register and retries. The JIT driver then enters the
// counting variant at the retried instruction instead of handing the rest
// of the run to the reference loop, and the later traps leave the counting
// variant through its trap exit. Counts start at the first trap on every
// backend (enableProfiling zeroes them), so they must match exactly.
TEST(ProfiledTrapDiff, TrapHookEnablingProfilingSwitchesVariant) {
  Program p = buildProgram(R"(
    int d = 0;
    double acc[512];
    int main() {
      int s = 0;
      for (int i = 0; i < 20000; i = i + 1) {
        acc[i % 512] = acc[i % 512] + i * 0.5;
        if (i % 1000 == 999) s = s + 1000 / (d + 0); // register divisor
      }
      emit(acc[3]);
      return s;
    })", opt::OptLevel::O0);
  const vm::Image& image = *p.image;
  std::array<int, kNumKinds> traps{};
  std::size_t armed = 0; // diffAllBackends arms the backends in kKinds order
  const auto res = diffAllBackends(
      p.image.get(), "main", "hook enables profiling", /*profile=*/true,
      [&image, &traps, &armed](vm::Executor& ex) {
        const std::size_t k = armed++;
        ex.setBudget(10'000'000);
        ex.setTrapHook([&image, &traps, k](vm::Executor& e,
                                           const vm::Trap& t) {
          const backend::MInst& in = image.instruction(image.locate(t.pc));
          if (t.kind != vm::TrapKind::Fpe || in.op != backend::MOp::IDiv ||
              in.src2 == backend::kNoReg)
            return vm::TrapAction::Propagate;
          if (traps[k]++ == 0) e.enableProfiling();
          e.state().g[in.src2] = 1;
          return vm::TrapAction::Retry;
        });
      });
  ASSERT_EQ(res[0].status, vm::RunStatus::Done);
  ASSERT_EQ(res[0].exitCode, 20 * 1000);
  for (std::size_t k = 0; k < kNumKinds; ++k) EXPECT_EQ(traps[k], 20);
}

// A profiled run through a SECDED-shadowed page. The strike lands on the
// word at the stack pointer, so the run touches the struck page again at
// once: on the JIT the profiling variant's TLB-miss stub finds the page
// shadowed and exits to the reference loop, un-counting the instruction it
// had already counted; the reference loop then counts it once. Counts,
// registers, output, the address space and the ECC counters must match ref.
TEST(ProfiledTrapDiff, ShadowedPageExitsUncountIdentically) {
  const Workload& w = workloads::hpccg();
  BuildKeep keep;
  const auto image = lowerWorkload(w, keep);
  vm::Executor probe(image.get());
  probe.setBudget(500'000'000);
  const vm::RunResult golden = runUnder(probe, vm::InterpKind::Jit, w.entry);
  ASSERT_EQ(golden.status, vm::RunStatus::Done);

  Rng rng(0x5AD0);
  for (int strike = 0; strike < 4; ++strike) {
    const std::uint64_t at = 1 + rng.next() % (golden.instrCount - 1);
    const std::vector<unsigned> bits = {
        static_cast<unsigned>(rng.next() % 64)};
    const vm::EccMode mode =
        strike % 2 ? vm::EccMode::SecdedCrc : vm::EccMode::Secded;
    const std::string tag = "strike at " + std::to_string(at) + " ecc=" +
                            vm::eccModeName(mode);
    std::array<std::unique_ptr<vm::Executor>, kNumKinds> ex;
    std::array<vm::RunResult, kNumKinds> res;
    std::array<std::string, kNumKinds> digest;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      ex[k] = std::make_unique<vm::Executor>(image.get());
      ex[k]->setInterp(kKinds[k]);
      ex[k]->enableProfiling();
      ex[k]->memory().setEccMode(mode);
      ex[k]->setBudget(2 * golden.instrCount);
      ASSERT_EQ(ex[k]->runBounded(at, w.entry).status,
                vm::RunStatus::BudgetExceeded) << tag;
      ASSERT_TRUE(ex[k]->memory().injectFault(
          ex[k]->state().g[backend::kSP] & ~7ull, bits)) << tag;
      const std::uint64_t interpBefore = ex[k]->jitInterpretedInstrs();
      res[k] = vm::runToCompletion(*ex[k], w.entry);
      digest[k] = memoryDigest(*ex[k]);
      if (kKinds[k] == vm::InterpKind::Jit && vm::jitAvailable())
        EXPECT_GT(ex[k]->jitInterpretedInstrs(), interpBefore)
            << tag << ": no shadowed-page exit";
    }
    for (std::size_t a = 0; a < kNumKinds; ++a)
      for (std::size_t b = a + 1; b < kNumKinds; ++b) {
        const std::string t = pairTag(kKinds[a], kKinds[b], tag);
        expectSameResult(res[a], res[b], t);
        expectSameMachine(*ex[a], *ex[b], t);
        expectSameProfile(*image, *ex[a], *ex[b], t);
        EXPECT_EQ(digest[a], digest[b]) << t;
        EXPECT_EQ(ex[a]->memory().eccCorrected(),
                  ex[b]->memory().eccCorrected()) << t;
        EXPECT_EQ(ex[a]->memory().eccUncorrectable(),
                  ex[b]->memory().eccUncorrectable()) << t;
      }
  }
}

} // namespace
} // namespace care::test
