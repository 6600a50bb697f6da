// VM throughput: reference loop vs. template JIT.
//
// Runs each workload's golden (fault-free) execution under both backends
// and reports millions of simulated instructions per wall second (MIPS).
// The reference loop is the big-switch interpreter kept as the executable
// specification (DESIGN.md §4b); jit is the per-block template JIT
// (DESIGN.md §4h). Each (workload, interp) cell is best-of-CARE_VM_REPS
// (default 3) to damp scheduler noise. In-bench gate: both backends must
// retire the identical golden instruction count. Writes BENCH_vm.json
// (path: CARE_BENCH_VM_JSON).
#include <chrono>
#include <fstream>

#include "bench_util.hpp"
#include "vm/executor.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Cell {
  double sec = 0;              // best-of-reps wall time
  std::uint64_t instrs = 0;    // golden instruction count
  double mips() const { return sec > 0 ? instrs / 1e6 / sec : 0; }
};

Cell golden(const care::vm::Image* image, const std::string& entry,
            care::vm::InterpKind kind, int reps) {
  using namespace care;
  Cell cell;
  for (int r = 0; r < reps; ++r) {
    vm::Executor ex(image);
    ex.setInterp(kind);
    ex.setBudget(5'000'000'000ull);
    const Clock::time_point t0 = Clock::now();
    const vm::RunResult res = vm::runToCompletion(ex, entry);
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    if (res.status != vm::RunStatus::Done)
      raise("bench_vm_throughput: golden run did not complete");
    cell.instrs = res.instrCount;
    if (r == 0 || sec < cell.sec) cell.sec = sec;
  }
  return cell;
}

} // namespace

int main() {
  using namespace care;
  const int reps = bench::envInt("CARE_VM_REPS", 3);
  bench::header("VM throughput: ref loop vs. template JIT",
                "the campaign-engine substrate; not a paper table");
  std::printf("%-10s %12s %9s %10s %9s  (best of %d)\n", "Workload",
              "instrs", "ref MIPS", "jit MIPS", "jit/ref", reps);

  std::string rows;
  for (const auto* w : workloads::allWorkloads()) {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    inject::BuiltWorkload built = inject::buildWorkload(*w, cfg);
    const Cell ref = golden(built.image.get(), w->entry,
                            vm::InterpKind::Ref, reps);
    const Cell jit = golden(built.image.get(), w->entry,
                            vm::InterpKind::Jit, reps);
    // Identity gate: all backends must retire the same golden instruction
    // stream — the exactness contract the recovery stack depends on.
    if (ref.instrs != jit.instrs)
      raise("bench_vm_throughput: backend instruction counts diverge on " +
            w->name);
    const double jitup = jit.sec > 0 ? ref.sec / jit.sec : 0;
    std::printf("%-10s %12llu %9.1f %10.1f %8.2fx\n", w->name.c_str(),
                static_cast<unsigned long long>(ref.instrs), ref.mips(),
                jit.mips(), jitup);
    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s    {\"workload\":\"%s\",\"instrs\":%llu,"
                  "\"ref_sec\":%.6f,\"ref_mips\":%.2f,"
                  "\"jit_sec\":%.6f,\"jit_mips\":%.2f,"
                  "\"jit_speedup\":%.3f}",
                  rows.empty() ? "" : ",\n", w->name.c_str(),
                  static_cast<unsigned long long>(ref.instrs), ref.sec,
                  ref.mips(), jit.sec, jit.mips(), jitup);
    rows += row;
  }

  const char* out = std::getenv("CARE_BENCH_VM_JSON");
  const std::string path = out && *out ? out : "BENCH_vm.json";
  std::ofstream f(path);
  f << "{\n  \"bench\": \"vm_throughput\",\n  \"reps\": " << reps
    << ",\n  \"rows\": [\n" << rows << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  bench::footer();
  return 0;
}
