// The compile and clean-run layers as the benchmark drives them.
//
// careCompile's stages are called one by one (front end, optimizer, Armor,
// Sentinel, lowering) so each gets its own span; the sequence is the one
// careCompile runs, which a setup gate checks by comparing the result with
// careCompile's own.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "care/driver.hpp"
#include "common.hpp"
#include "sentinel/sentinel.hpp"
#include "vm/executor.hpp"
#include "vm/jit.hpp"
#include "workloads/workloads.hpp"

namespace carebench {

struct BuildConfig {
  care::opt::OptLevel level = care::opt::OptLevel::O0;
  bool care = true;                      // Armor artifacts for Safeguard
  care::sentinel::DetectOptions detect;  // Sentinel detectors
  care::pareto::SampleConfig sample;     // Sentinel site sampling
  std::string artifactDir;
  /// Span names of the five stages; protected and unprotected builds use
  /// different ones so the per-layer numbers cover protected builds only.
  bool protectedSpans = true;
};

/// Sizes a build produced, summed over its modules.
struct BuildStats {
  std::size_t langIr = 0;   // IR instructions after the front end
  std::size_t optIr = 0;    // IR instructions after the optimizer
  std::size_t mirInstrs = 0;
  std::size_t armorKernels = 0;
  std::size_t armorKernelInstrs = 0;
  std::size_t sentinelAdded = 0;
  std::size_t sentinelArmed = 0;
  std::size_t sentinelTotal = 0;
};

/// A deployable program: the main executable and its libraries.
struct ProgramSpec {
  std::string name;
  std::vector<const care::workloads::Workload*> modules; // [0] = executable
};

struct Program {
  std::string name;
  std::vector<care::core::CompiledModule> modules;
  std::unique_ptr<care::vm::Image> image;
  std::map<std::int32_t, care::core::ModuleArtifacts> artifacts;
};

/// The four CARE mini-apps, all five, or all five plus sblat1 over BLAS.
std::vector<ProgramSpec> careApps();
std::vector<ProgramSpec> allApps();
std::vector<ProgramSpec> allAppsAndBlas();

/// Compile every module of `spec` stage by stage, then load and link.
Program buildProgram(const ProgramSpec& spec, const BuildConfig& cfg,
                     BuildStats& stats);

/// True when a stage-by-stage build of `spec` equals careCompile's (MIR
/// text and line tables of every function). Only meaningful where the
/// compiler is deterministic: at O1 two careCompile calls in one process
/// can already disagree, so callers check at O0.
bool stagedMatchesCareCompile(const ProgramSpec& spec, BuildConfig cfg);

/// The defenses a fault-free run carries.
enum class Guard {
  None,         // bare executor: the unprotected baseline
  Safeguard,    // Safeguard attached, paper repair strategy
  RollbackRing, // Safeguard repair_then_rollback fed by a checkpoint ring
  Ecc,          // SECDED ECC on the address space, Safeguard attached
};

struct CleanRun {
  bool done = false;
  std::uint64_t instrs = 0;
  std::vector<std::uint64_t> output;
};

/// One fault-free run of `p` on the pinned backend. `ringInterval` is the
/// checkpoint spacing for Guard::RollbackRing.
CleanRun runClean(const Program& p, Guard guard,
                  std::uint64_t ringInterval = 0);

/// One fault-free pass over every program, the protected and the
/// unprotected run of each image back to back, so that a change in machine
/// speed hits both sides of overhead_x alike. Every output must equal
/// `reference`; `ringInterval` is per program (Guard::RollbackRing only).
struct PassTimes {
  double protMs = 0, plainMs = 0;
  std::vector<double> protRunMs; // per program
};
PassTimes cleanPass(const std::vector<Program>& prot,
                    const std::vector<Program>& plain, Guard guard,
                    const std::vector<std::uint64_t>& ringInterval,
                    const std::vector<std::vector<std::uint64_t>>& reference,
                    Gates& gates);

/// Functions the JIT compiled across `programs`. An image whose JIT gave
/// up fails a gate: its runs silently fell back to the fast interpreter.
std::size_t jitFunctions(const std::vector<Program>& programs, Gates& gates);

/// The reference output: `p` (an unprotected build) run on the `ref`
/// interpreter, the executable specification.
CleanRun runReference(const Program& p);

} // namespace carebench
