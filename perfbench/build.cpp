#include "build.hpp"

#include <filesystem>

#include "backend/regalloc.hpp"
#include "care/armor.hpp"
#include "care/safeguard.hpp"
#include "ir/names.hpp"
#include "ir/serialize.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "opt/passes.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

namespace carebench {

using namespace care;

namespace {

struct StageNames {
  const char* lang;
  const char* opt;
  const char* armor;
  const char* sentinel;
  const char* backend;
};
constexpr StageNames kProtectedStages{"build.lang", "build.opt", "build.armor",
                                      "build.sentinel", "build.backend"};
constexpr StageNames kPlainStages{"plain.lang", "plain.opt", "plain.armor",
                                  "plain.sentinel", "plain.backend"};

std::size_t irInstrs(const ir::Module& m) {
  std::size_t n = 0;
  for (const ir::Function* f : m)
    for (const ir::BasicBlock* bb : *f) n += bb->size();
  return n;
}

/// careCompile, one stage at a time (care/driver.cpp keeps the order).
core::CompiledModule compileStaged(const std::vector<core::SourceFile>& srcs,
                                   const std::string& name,
                                   const BuildConfig& cfg, BuildStats& st) {
  const StageNames& sn = cfg.protectedSpans ? kProtectedStages : kPlainStages;
  core::CompiledModule out;
  {
    trace::Span span(sn.lang, "build");
    out.irMod = std::make_unique<ir::Module>(name);
    for (const core::SourceFile& src : srcs)
      lang::compileIntoModule(src.content, src.name, *out.irMod);
    ir::verifyOrDie(*out.irMod);
  }
  st.langIr += irInstrs(*out.irMod);
  {
    trace::Span span(sn.opt, "build");
    opt::optimize(*out.irMod, cfg.level);
    ir::verifyOrDie(*out.irMod);
    ir::uniquifyNames(*out.irMod);
  }
  st.optIr += irInstrs(*out.irMod);
  if (cfg.care) {
    trace::Span span(sn.armor, "build");
    core::ArmorOptions ao;
    ao.detectAuto = ao.detectSampleAuto = ao.recoverAuto = false;
    core::ArmorResult armor = core::runArmor(*out.irMod, ao);
    ir::verifyOrDie(*armor.kernelModule);
    std::filesystem::create_directories(cfg.artifactDir);
    out.artifacts.tablePath = cfg.artifactDir + "/" + name + ".rtable";
    out.artifacts.libPath = cfg.artifactDir + "/" + name + ".rlib";
    armor.table.writeFile(out.artifacts.tablePath);
    ir::writeModuleFile(*armor.kernelModule, out.artifacts.libPath);
    out.armorStats = armor.stats;
    st.armorKernels += armor.stats.kernelsBuilt;
    st.armorKernelInstrs += armor.stats.kernelInstrs;
  }
  if (cfg.detect.any()) {
    trace::Span span(sn.sentinel, "build");
    out.sentinelStats =
        sentinel::runSentinel(*out.irMod, cfg.detect, cfg.sample);
    ir::verifyOrDie(*out.irMod);
    st.sentinelAdded += out.sentinelStats.addedInstrs();
    st.sentinelArmed += out.sentinelStats.armedSites();
    st.sentinelTotal += out.sentinelStats.totalSites();
  }
  {
    trace::Span span(sn.backend, "build");
    out.mmod = backend::lowerModule(*out.irMod);
  }
  for (const backend::MFunction& f : out.mmod->functions)
    st.mirInstrs += f.code.size();
  return out;
}

std::string moduleName(const ProgramSpec& spec, std::size_t i) {
  return spec.modules[i]->name;
}

} // namespace

std::vector<ProgramSpec> careApps() {
  std::vector<ProgramSpec> out;
  for (const auto* w : workloads::careWorkloads()) out.push_back({w->name, {w}});
  return out;
}

std::vector<ProgramSpec> allApps() {
  std::vector<ProgramSpec> out;
  for (const auto* w : workloads::allWorkloads()) out.push_back({w->name, {w}});
  return out;
}

std::vector<ProgramSpec> allAppsAndBlas() {
  std::vector<ProgramSpec> out = allApps();
  out.push_back({"sblat1",
                 {&workloads::sblat1Driver(), &workloads::blasLibrary()}});
  return out;
}

Program buildProgram(const ProgramSpec& spec, const BuildConfig& cfg,
                     BuildStats& stats) {
  Program p;
  p.name = spec.name;
  for (std::size_t i = 0; i < spec.modules.size(); ++i)
    p.modules.push_back(compileStaged(spec.modules[i]->sources,
                                      moduleName(spec, i), cfg, stats));
  trace::Span span("vm.load_link", "vm");
  p.image = std::make_unique<vm::Image>();
  for (const core::CompiledModule& m : p.modules) p.image->load(m.mmod.get());
  p.image->link();
  if (cfg.care)
    for (std::size_t i = 0; i < p.modules.size(); ++i)
      p.artifacts[static_cast<std::int32_t>(i)] = p.modules[i].artifacts;
  return p;
}

bool stagedMatchesCareCompile(const ProgramSpec& spec, BuildConfig cfg) {
  cfg.artifactDir += "/staging-check";
  cfg.protectedSpans = false;
  BuildStats ignored;
  const Program staged = buildProgram(spec, cfg, ignored);
  for (std::size_t i = 0; i < spec.modules.size(); ++i) {
    core::CompileOptions o;
    o.optLevel = cfg.level;
    o.enableCare = cfg.care;
    o.armor.detectAuto = o.armor.detectSampleAuto = o.armor.recoverAuto =
        false;
    o.armor.detect = cfg.detect;
    o.armor.detectSample = cfg.sample;
    o.artifactDir = cfg.artifactDir;
    const core::CompiledModule ref =
        core::careCompile(spec.modules[i]->sources, moduleName(spec, i), o);
    const backend::MModule& a = *staged.modules[i].mmod;
    const backend::MModule& b = *ref.mmod;
    if (a.functions.size() != b.functions.size()) return false;
    for (std::size_t f = 0; f < a.functions.size(); ++f)
      if (backend::toString(a.functions[f]) !=
              backend::toString(b.functions[f]) ||
          !(a.functions[f].lineTable == b.functions[f].lineTable))
        return false;
  }
  return true;
}

CleanRun runClean(const Program& p, Guard guard, std::uint64_t ringInterval) {
  vm::Executor ex(p.image.get());
  core::Safeguard sg;
  vm::CheckpointRing ring;
  if (guard != Guard::None) {
    for (const auto& [mi, arts] : p.artifacts) sg.addModule(mi, arts);
    if (guard == Guard::RollbackRing) {
      sg.setStrategy(core::RecoveryStrategy::RepairThenRollback);
      sg.setRollbackSource(&ring);
    }
    if (guard == Guard::Ecc) ex.memory().setEccMode(vm::EccMode::Secded);
    sg.attach(ex);
  }
  vm::RunResult res;
  if (guard == Guard::RollbackRing)
    res = vm::runCheckpointed(ex, "main", ringInterval, ~0ull,
                              [&](vm::Executor& e) { ring.push(e); });
  else
    res = vm::runToCompletion(ex, "main");
  CleanRun out;
  out.done = res.status == vm::RunStatus::Done &&
             (guard == Guard::None || sg.stats().activations == 0);
  out.instrs = res.instrCount;
  out.output = ex.output();
  return out;
}

PassTimes cleanPass(const std::vector<Program>& prot,
                    const std::vector<Program>& plain, Guard guard,
                    const std::vector<std::uint64_t>& ringInterval,
                    const std::vector<std::vector<std::uint64_t>>& reference,
                    Gates& gates) {
  PassTimes t;
  for (std::size_t i = 0; i < prot.size(); ++i) {
    Clock::time_point t0 = Clock::now();
    CleanRun r;
    {
      trace::Span span("vm.run", "vm");
      r = runClean(prot[i], guard, i < ringInterval.size() ? ringInterval[i] : 0);
    }
    const double ms = msSince(t0);
    t.protRunMs.push_back(ms);
    t.protMs += ms;
    gates.check(r.done && r.output == reference[i],
                prot[i].name + ": protected run output != reference");
    t0 = Clock::now();
    {
      trace::Span span("plain.run", "vm");
      r = runClean(plain[i], Guard::None);
    }
    t.plainMs += msSince(t0);
    gates.check(r.done && r.output == reference[i],
                plain[i].name + ": unprotected run output != reference");
  }
  return t;
}

std::size_t jitFunctions(const std::vector<Program>& programs, Gates& gates) {
  std::size_t n = 0;
  for (const Program& p : programs) {
    gates.check(p.image->jit().usable(), p.name + ": JIT image unusable");
    n += p.image->jit().compiledFunctions();
  }
  return n;
}

CleanRun runReference(const Program& p) {
  vm::Executor ex(p.image.get());
  ex.setInterp(vm::InterpKind::Ref);
  const vm::RunResult res = vm::runToCompletion(ex, "main");
  CleanRun out;
  out.done = res.status == vm::RunStatus::Done;
  out.instrs = res.instrCount;
  out.output = ex.output();
  return out;
}

} // namespace carebench
