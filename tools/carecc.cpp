// carecc — command-line driver for the CARE toolchain.
//
// Lets a user point CARE at their own MiniC program without writing any
// C++ against the library:
//
//   carecc compile app.c -O1 -d artifacts/   Armor-compile, write artifacts
//   carecc run app.c [-O1]                   compile and execute in the VM
//   carecc inspect app.c [-O1]               dump optimized IR + kernels
//   carecc inject app.c -n 200 [--no-care]   seeded injection campaign
//
// Exit code: the program's exit code for `run`, 0/1 for the other modes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "care/driver.hpp"
#include "inject/engine.hpp"
#include "inject/experiment.hpp"
#include "ir/printer.hpp"
#include "ir/serialize.hpp"
#include "pareto/prune.hpp"
#include "pareto/sample.hpp"
#include "sentinel/sentinel.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "vm/checkpoint_ring.hpp"

using namespace care;

namespace {

struct Args {
  std::string mode;
  std::string file;
  opt::OptLevel level = opt::OptLevel::O0;
  std::string artifactDir = "care_artifacts";
  std::string entry = "main";
  int injections = 200;
  std::uint64_t seed = 2026;
  int threads = 0; // 0 = hardware concurrency
  int procs = inject::kProcsAuto; // --procs pins it (CARE_PROCS ignored)
  bool resultStoreGiven = false;  // --result-store pins it likewise
  std::string resultStore;
  std::uint64_t ckptInterval = inject::CampaignConfig::kCkptAuto;
  bool withCare = true;
  bool inductionRecovery = false;
  bool detectGiven = false; // --detect pins the config (CARE_DETECT ignored)
  sentinel::DetectOptions detect;
  bool recoverGiven = false; // --recover pins it (CARE_RECOVER ignored)
  core::RecoveryStrategy recover = core::RecoveryStrategy::Repair;
  std::size_t rollbackRing = 0; // 0 = CARE_ROLLBACK_RING or default
  bool faultGiven = false; // --fault pins it (CARE_FAULT ignored)
  inject::FaultModel fault = inject::FaultModel::Reg;
  bool eccGiven = false; // --ecc pins it (CARE_ECC ignored)
  vm::EccMode ecc = vm::EccMode::Off;
  bool sampleGiven = false; // --detect-sample pins it
  pareto::SampleConfig sample;
  bool pruneGiven = false; // --prune pins it (CARE_PRUNE ignored)
  bool prune = false;
  bool pruneAuditGiven = false; // --prune-audit pins it
  int pruneAudit = 0;
};

void usage() {
  std::fprintf(stderr,
               "usage: carecc <compile|run|inspect|inject> <file.c>\n"
               "  -O0|-O1            optimization level (default -O0)\n"
               "  -d <dir>           artifact directory\n"
               "  -e <entry>         entry function (default main)\n"
               "  -n <count>         injections (inject mode)\n"
               "  -s <seed>          campaign seed\n"
               "  -j <threads>       campaign workers (0 = all cores; any\n"
               "                     value yields identical results)\n"
               "  --procs=<n>        forked worker processes for the\n"
               "                     campaign (crash-isolated; 0 = in-\n"
               "                     process engine; default CARE_PROCS or\n"
               "                     0; any value yields identical results)\n"
               "  --result-store=<d> shard result-store directory: repeated\n"
               "                     or overlapping campaigns resume from\n"
               "                     previously computed shards (default\n"
               "                     CARE_RESULT_STORE; empty = off)\n"
               "  --ckpt-interval <n> replay-cache segment length in instrs\n"
               "                     (0 = off; default CARE_CKPT_INTERVAL or\n"
               "                     golden/64; any value yields identical\n"
               "                     results)\n"
               "  --interp=<b>       execution backend: jit (template JIT,\n"
               "                     default) or ref (big-switch\n"
               "                     reference); bit-identical\n"
               "  --no-care          inject without Safeguard attached\n"
               "  --iv-recovery      enable the Fig. 11 extension\n"
               "  --detect=<list>    arm Sentinel detectors: comma list of\n"
               "                     cfc (control-flow signatures) and addr\n"
               "                     (address-chain duplication), or all /\n"
               "                     none; overrides CARE_DETECT\n"
               "  --detect-sample=<r> sample detector sites at rate 1/r,\n"
               "                     optionally with a rotation epoch as\n"
               "                     r@e (1 = every site, the default);\n"
               "                     overrides CARE_DETECT_SAMPLE\n"
               "  --prune=<on|off>   prune the campaign to one trial per\n"
               "                     provable equivalence class, expanding\n"
               "                     the records afterwards (identical\n"
               "                     outcome counts); overrides CARE_PRUNE\n"
               "  --prune-audit=<k>  re-run k pruned trials exhaustively and\n"
               "                     fail on any divergence from their\n"
               "                     representative; overrides\n"
               "                     CARE_PRUNE_AUDIT\n"
               "  --recover=<s>      Safeguard policy: repair (default),\n"
               "                     rollback, repair_then_rollback, none;\n"
               "                     overrides CARE_RECOVER\n"
               "  --rollback-ring <n> rollback checkpoint ring capacity\n"
               "                     (default CARE_ROLLBACK_RING or 8)\n"
               "  --fault=<m>        fault model: reg (destination operand,\n"
               "                     default), mem1 (one memory bit),\n"
               "                     mem2adj (two adjacent bits), burst\n"
               "                     (8-bit lane); overrides CARE_FAULT\n"
               "  --ecc=<m>          ECC on trial memory: off (default),\n"
               "                     secded, or secded,crc (scrub cross-\n"
               "                     check); overrides CARE_ECC\n"
               "  --trace=<file>     write a Chrome trace-event JSON of the\n"
               "                     recovery/campaign phases (%%p expands to\n"
               "                     the PID; CARE_TRACE=<file> does the same\n"
               "                     for any CARE binary)\n");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) raise("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

core::ArmorOptions armorOptions(const Args& a) {
  core::ArmorOptions armor;
  armor.inductionRecovery = a.inductionRecovery;
  if (a.detectGiven) {
    armor.detect = a.detect;
    armor.detectAuto = false;
  }
  if (a.sampleGiven) {
    armor.detectSample = a.sample;
    armor.detectSampleAuto = false;
  }
  return armor;
}

core::CompiledModule compileFile(const Args& a) {
  core::CompileOptions opts;
  opts.optLevel = a.level;
  opts.artifactDir = a.artifactDir;
  opts.armor = armorOptions(a);
  return core::careCompile({{a.file, slurp(a.file)}}, "app", opts);
}

int cmdCompile(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  std::printf("compiled %s at %s\n", a.file.c_str(),
              a.level == opt::OptLevel::O0 ? "-O0" : "-O1");
  std::printf("  functions            : %zu\n", cm.mmod->functions.size());
  std::printf("  memory accesses      : %zu\n", cm.armorStats.memAccesses);
  std::printf("  recovery kernels     : %zu (avg %.1f IR instrs)\n",
              cm.armorStats.kernelsBuilt, cm.armorStats.avgKernelInstrs());
  if (!cm.sentinelStats.functions.empty()) {
    std::printf("  sentinel added instrs: %zu (%zu signature blocks, "
                "%zu shadow chains)\n",
                cm.sentinelStats.addedInstrs(),
                cm.sentinelStats.signatureBlocks(),
                cm.sentinelStats.shadowChains());
  }
  std::printf("  normal compile time  : %.4f s\n", cm.timings.normalSec);
  std::printf("  Armor overhead       : %.4f s\n", cm.timings.armorSec);
  if (cm.timings.sentinelSec > 0)
    std::printf("  Sentinel overhead    : %.4f s\n", cm.timings.sentinelSec);
  std::printf("  recovery table       : %s\n", cm.artifacts.tablePath.c_str());
  std::printf("  recovery library     : %s\n", cm.artifacts.libPath.c_str());
  return 0;
}

int cmdRun(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  vm::Image image;
  image.load(cm.mmod.get());
  image.link();
  vm::Executor ex(&image);
  core::Safeguard safeguard;
  safeguard.addModule(0, cm.artifacts);
  safeguard.attach(ex);
  const core::RecoveryStrategy recover =
      a.recoverGiven ? a.recover
                     : core::recoverFromEnv(core::RecoveryStrategy::Repair);
  safeguard.setStrategy(recover);
  constexpr std::uint64_t kRunBudget = 5'000'000'000ull;
  vm::RunResult r;
  vm::CheckpointRing ring(
      a.rollbackRing ? a.rollbackRing : vm::rollbackRingFromEnv(8));
  if (core::strategyRollsBack(recover)) {
    // Rollback needs live checkpoints: drive the run through boundary
    // pauses, feeding the ring. Outside a campaign there is no golden
    // instruction count to derive an interval from, so --ckpt-interval /
    // CARE_CKPT_INTERVAL apply directly (default 100k instructions).
    safeguard.setRollbackSource(&ring);
    std::uint64_t interval = a.ckptInterval;
    if (interval == inject::CampaignConfig::kCkptAuto)
      interval = inject::ckptIntervalFromEnv(100'000);
    r = vm::runCheckpointed(ex, a.entry, interval, kRunBudget,
                            [&](vm::Executor& e) { ring.push(e); });
  } else {
    ex.setBudget(kRunBudget);
    r = vm::runToCompletion(ex, a.entry);
  }
  if (const auto& st = safeguard.stats(); st.rollbacks > 0)
    std::printf("safeguard: %llu rollback(s), %llu instructions "
                "re-executed\n",
                static_cast<unsigned long long>(st.rollbacks),
                static_cast<unsigned long long>([&] {
                  std::uint64_t n = 0;
                  for (const auto& rec : st.records) n += rec.discardedInstrs;
                  return n;
                }()));
  for (std::uint64_t bits : ex.output()) {
    double d;
    std::memcpy(&d, &bits, 8);
    std::printf("emit: %.17g  (raw 0x%016llx)\n", d,
                static_cast<unsigned long long>(bits));
  }
  switch (r.status) {
  case vm::RunStatus::Done:
    std::printf("exited with code %lld after %llu instructions\n",
                static_cast<long long>(r.exitCode),
                static_cast<unsigned long long>(r.instrCount));
    return static_cast<int>(r.exitCode);
  case vm::RunStatus::Trapped:
    std::printf("terminated by %s at pc=0x%llx addr=0x%llx\n",
                vm::trapKindName(r.trap.kind),
                static_cast<unsigned long long>(r.trap.pc),
                static_cast<unsigned long long>(r.trap.addr));
    return 128;
  default:
    std::printf("instruction budget exceeded (hang?)\n");
    return 124;
  }
}

int cmdInspect(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  std::printf("=== optimized IR ===\n%s\n", ir::toString(cm.irMod.get()).c_str());
  auto kernels = ir::readModuleFile(cm.artifacts.libPath);
  std::printf("=== recovery library (%zu functions) ===\n",
              kernels->numFunctions());
  for (const ir::Function* f : *kernels)
    if (!f->isDeclaration()) std::printf("%s\n", ir::toString(f).c_str());
  if (!cm.sentinelStats.functions.empty()) {
    std::printf("=== sentinel instrumentation ===\n");
    std::printf("%-24s %10s %8s %8s %8s\n", "function", "sig-blocks",
                "checks", "chains", "added");
    for (const sentinel::FunctionSentinelStats& fs :
         cm.sentinelStats.functions)
      std::printf("%-24s %10zu %8zu %8zu %8zu\n", fs.function.c_str(),
                  fs.signatureBlocks, fs.signatureChecks, fs.shadowChains,
                  fs.addedInstrs);
    std::printf("%-24s %10zu %8zu %8zu %8zu\n", "(total)",
                cm.sentinelStats.signatureBlocks(),
                cm.sentinelStats.signatureChecks(),
                cm.sentinelStats.shadowChains(),
                cm.sentinelStats.addedInstrs());
  }
  return 0;
}

int cmdInject(const Args& a) {
  core::CompiledModule cm = compileFile(a);
  vm::Image image;
  image.load(cm.mmod.get());
  image.link();
  std::map<std::int32_t, core::ModuleArtifacts> arts{{0, cm.artifacts}};

  inject::CampaignConfig ccfg;
  ccfg.seed = a.seed;
  ccfg.entry = a.entry;
  ccfg.checkpointEveryInstrs = a.ckptInterval;
  if (a.recoverGiven) ccfg.recover = a.recover; // else: CARE_RECOVER default
  if (a.rollbackRing) ccfg.rollbackRingCap = a.rollbackRing;
  if (a.faultGiven) ccfg.fault = a.fault; // else: CARE_FAULT default
  if (a.eccGiven) ccfg.ecc = a.ecc;       // else: CARE_ECC default
  if (a.pruneGiven) ccfg.prune.enabled = a.prune; // else: CARE_PRUNE default
  if (a.pruneAuditGiven) ccfg.prune.auditK = a.pruneAudit;
  inject::Campaign campaign(&image, ccfg);
  if (!campaign.profile()) {
    std::fprintf(stderr, "program failed its golden run\n");
    return 1;
  }
  std::printf("golden run: %llu instructions\n",
              static_cast<unsigned long long>(campaign.goldenInstrs()));
  if (campaign.checkpointInterval() > 0)
    std::printf("replay cache: %zu checkpoints every %llu instructions\n",
                campaign.checkpoints().size(),
                static_cast<unsigned long long>(campaign.checkpointInterval()));

  // Pre-derive the points in serial order, then shard the trials over the
  // worker pool; counts are identical for every -j / --procs value.
  Rng rng(a.seed);
  std::vector<inject::InjectionPoint> points;
  points.reserve(static_cast<std::size_t>(a.injections));
  for (int i = 0; i < a.injections; ++i) points.push_back(campaign.sample(rng));

  inject::ServiceConfig svc;
  svc.processes = inject::resolveProcesses(a.procs);
  svc.threads = a.threads;
  if (a.resultStoreGiven) {
    svc.storeDir = a.resultStore;
  } else if (const char* e = std::getenv("CARE_RESULT_STORE")) {
    svc.storeDir = e;
  }
  // Keyed like runExperiment's campaigns, with the source text as the
  // program identity: longer reruns resume from shorter ones.
  if (!svc.storeDir.empty())
    svc.storeKey = inject::campaignKey(slurp(a.file), a.level,
                                       armorOptions(a), a.withCare, ccfg);

  inject::CampaignTelemetry tel;
  tel.workload = a.file;
  tel.fault = inject::faultModelName(campaign.faultModel());
  tel.ecc = vm::eccModeName(campaign.eccMode());
  const auto records = inject::runCampaignTrials(
      campaign, points, a.seed, svc,
      [&](int i, Rng&) {
        inject::InjectionRecord rec;
        rec.point = points[static_cast<std::size_t>(i)];
        rec.plain =
            campaign.runInjection(rec.point, a.withCare ? &arts : nullptr);
        return rec;
      },
      &tel);
  tel.ckptCount = campaign.checkpoints().size();
  inject::publishTelemetry(tel);

  int benign = 0, sdc = 0, hang = 0, segv = 0, otherSig = 0, detected = 0,
      recovered = 0, rolledBack = 0, corrected = 0;
  double recoveryUs = 0;
  for (const inject::InjectionRecord& rec : records) {
    const inject::InjectionResult& r = rec.plain;
    switch (r.outcome) {
    case inject::Outcome::Benign: ++benign; break;
    case inject::Outcome::SDC: ++sdc; break;
    case inject::Outcome::Hang: ++hang; break;
    case inject::Outcome::Detected: ++detected; break;
    case inject::Outcome::RolledBack: ++rolledBack; break;
    case inject::Outcome::Corrected: ++corrected; break;
    case inject::Outcome::SoftFailure:
      if (r.signal == vm::TrapKind::SegFault) ++segv;
      else ++otherSig;
      break;
    }
    if (r.careRecovered) {
      ++recovered;
      recoveryUs += r.recoveryUsTotal;
    }
  }
  std::printf("injections : %d (seed %llu)\n", a.injections,
              static_cast<unsigned long long>(a.seed));
  std::printf("benign     : %d\n", benign);
  std::printf("SDC        : %d\n", sdc);
  std::printf("hang       : %d\n", hang);
  std::printf("SIGSEGV    : %d%s\n", segv,
              a.withCare ? " (surviving faults counted as benign/SDC)" : "");
  std::printf("other sig  : %d\n", otherSig);
  if (detected || tel.detected)
    std::printf("detected   : %d (sentinel/ECC, avg latency %.1f instrs)\n",
                detected, tel.detectLatencyInstrs);
  if (corrected || tel.eccCorrected || tel.eccUncorrectable)
    std::printf("corrected  : %d trials (ECC: %llu words corrected, %llu "
                "uncorrectable)\n",
                corrected,
                static_cast<unsigned long long>(tel.eccCorrected),
                static_cast<unsigned long long>(tel.eccUncorrectable));
  if (a.withCare) {
    std::printf("recovered  : %d (avg %.1f us per recovery)\n", recovered,
                recovered ? recoveryUs / recovered : 0.0);
    if (rolledBack)
      std::printf("rolled back: %d (strategy %s)\n", rolledBack,
                  core::recoveryStrategyName(ccfg.recover));
  }
  std::printf("campaign   : %.2fs wall, %.1f trials/s, %.1f MIPS, "
              "threads=%d, utilization %.0f%%\n",
              tel.wallSec, tel.trialsPerSec, tel.mips, tel.threads,
              100.0 * tel.utilization);
  if (tel.processes > 0 || tel.storeHits + tel.storeMisses > 0)
    std::printf("service    : procs=%d, %d shards, store %d hit%s / %d "
                "miss%s, %d requeued, %d restarts\n",
                tel.processes, tel.shards, tel.storeHits,
                tel.storeHits == 1 ? "" : "s", tel.storeMisses,
                tel.storeMisses == 1 ? "" : "es", tel.shardsRequeued,
                tel.workerRestarts);
  if (tel.replaySavedInstrs > 0)
    std::printf("replay     : %llu prefix instrs skipped "
                "(%.1f effective MIPS)\n",
                static_cast<unsigned long long>(tel.replaySavedInstrs),
                tel.effectiveMips);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (s == "-O0") a.level = opt::OptLevel::O0;
    else if (s == "-O1") a.level = opt::OptLevel::O1;
    else if (s == "-d") a.artifactDir = next();
    else if (s == "-e") a.entry = next();
    else if (s == "-n") a.injections = std::atoi(next().c_str());
    else if (s == "-s") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (s == "-j") a.threads = std::atoi(next().c_str());
    else if (s.rfind("--procs=", 0) == 0)
      a.procs = std::atoi(s.c_str() + std::strlen("--procs="));
    else if (s.rfind("--result-store=", 0) == 0) {
      a.resultStoreGiven = true;
      a.resultStore = s.substr(std::strlen("--result-store="));
    }
    else if (s == "--ckpt-interval")
      a.ckptInterval = std::strtoull(next().c_str(), nullptr, 10);
    else if (s.rfind("--interp=", 0) == 0) {
      try {
        vm::setDefaultInterp(
            vm::parseInterp(s.substr(std::strlen("--interp="))));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--detect-sample=", 0) == 0) {
      a.sampleGiven = true;
      try {
        a.sample = pareto::parseDetectSample(
            s.substr(std::strlen("--detect-sample=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--prune=", 0) == 0) {
      a.pruneGiven = true;
      try {
        a.prune = pareto::parsePruneFlag(s.substr(std::strlen("--prune=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--prune-audit=", 0) == 0) {
      a.pruneAuditGiven = true;
      try {
        a.pruneAudit =
            pareto::parsePruneAudit(s.substr(std::strlen("--prune-audit=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--detect=", 0) == 0) {
      a.detectGiven = true;
      try {
        a.detect = sentinel::parseDetect(s.substr(std::strlen("--detect=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--recover=", 0) == 0) {
      a.recoverGiven = true;
      try {
        a.recover = core::parseRecoveryStrategy(
            s.substr(std::strlen("--recover=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s == "--rollback-ring")
      a.rollbackRing = std::strtoull(next().c_str(), nullptr, 10);
    else if (s.rfind("--fault=", 0) == 0) {
      a.faultGiven = true;
      try {
        a.fault =
            inject::parseFaultModel(s.substr(std::strlen("--fault=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--ecc=", 0) == 0) {
      a.eccGiven = true;
      try {
        a.ecc = vm::parseEccMode(s.substr(std::strlen("--ecc=")));
      } catch (const Error& e) {
        std::fprintf(stderr, "carecc: %s\n", e.what());
        return 2;
      }
    }
    else if (s.rfind("--trace=", 0) == 0)
      trace::enable(s.substr(std::strlen("--trace=")));
    else if (s == "--trace") trace::enable(next());
    else if (s == "--no-care") a.withCare = false;
    else if (s == "--iv-recovery") a.inductionRecovery = true;
    else if (s == "-h" || s == "--help") { usage(); return 0; }
    else positional.push_back(s);
  }
  if (positional.size() != 2) {
    usage();
    return 2;
  }
  a.mode = positional[0];
  a.file = positional[1];
  try {
    if (a.mode == "compile") return cmdCompile(a);
    if (a.mode == "run") return cmdRun(a);
    if (a.mode == "inspect") return cmdInspect(a);
    if (a.mode == "inject") return cmdInject(a);
    usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "carecc: %s\n", e.what());
    return 1;
  }
}
