// Campaign throughput: replay cache on vs. off (DESIGN.md §4c), and the
// fast interpreter vs. the template JIT (DESIGN.md §4h).
//
// Runs the Table 2-shaped campaign (single-bit, CARE on SIGSEGV) over each
// workload three times, each on a pinned backend: checkpointing disabled
// on `fast`, then at the auto interval (goldenInstrs/64, or
// CARE_CKPT_INTERVAL) on `fast` and on `jit`, and reports trials per wall
// second. The jit column is skipped (written as null) on a host where the
// JIT cannot map executable memory. All campaigns run the exact same
// trials; the bench asserts their serializeDeterministic() byte streams are
// equal before reporting, so a speedup can never be bought with a changed
// record. Each cell is best-of-CARE_CAMPAIGN_REPS (default 3) to damp
// scheduler noise. Writes BENCH_campaign.json (path:
// CARE_BENCH_CAMPAIGN_JSON).
#include <chrono>
#include <fstream>

#include "bench_util.hpp"
#include "vm/jit.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace care;

struct Cell {
  double sec = 0;                       // best-of-reps wall time
  inject::CampaignTelemetry tel;        // telemetry of the best rep
  std::vector<inject::InjectionRecord> records;
  double trialsPerSec(int trials) const { return sec > 0 ? trials / sec : 0; }
};

Cell runCell(const inject::Campaign& campaign, vm::InterpKind interp,
             int trials, std::uint64_t seed, int threads,
             const std::map<std::int32_t, core::ModuleArtifacts>* arts,
             int reps) {
  vm::setDefaultInterp(interp);
  Cell cell;
  for (int r = 0; r < reps; ++r) {
    inject::CampaignTelemetry tel;
    const Clock::time_point t0 = Clock::now();
    auto records = inject::runCampaign(campaign, trials, seed, threads,
                                       arts, &tel);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || sec < cell.sec) {
      cell.sec = sec;
      cell.tel = tel;
      cell.records = std::move(records);
    }
  }
  return cell;
}

/// `v` printed with `f`, or `none` for a column the host cannot measure.
std::string cellText(bool have, const char* f, double v, const char* none) {
  if (!have) return none;
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

} // namespace

int main() {
  const int reps = bench::envInt("CARE_CAMPAIGN_REPS", 3);
  const int trials = bench::envInt("CARE_INJECTIONS", 400);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(bench::envInt("CARE_SEED", 2026));
  const int threads = bench::envInt("CARE_THREADS", 0);
  bench::header("Campaign throughput: replay cache on vs. off, fast vs. jit",
                "the §5.1 campaign engine; not a paper table");
  const bool jit = vm::jitAvailable();
  if (!jit)
    std::printf("note: the jit backend is unavailable here; its column is "
                "skipped\n");
  std::printf("%-10s %7s %6s %9s %9s %9s %7s %7s %12s  (best of %d)\n",
              "Workload", "trials", "ckpts", "off tr/s", "fast tr/s",
              "jit tr/s", "replay", "jit", "saved Minstr", reps);

  std::string rows;
  for (const auto* w : workloads::allWorkloads()) {
    auto cfg = bench::baseConfig(opt::OptLevel::O0);
    inject::BuiltWorkload built = inject::buildWorkload(*w, cfg);

    inject::CampaignConfig offCfg;
    offCfg.seed = cfg.seed;
    offCfg.hangFactor = 4;
    offCfg.checkpointEveryInstrs = 0;
    inject::CampaignConfig onCfg = offCfg;
    onCfg.checkpointEveryInstrs = inject::CampaignConfig::kCkptAuto;
    inject::Campaign off(built.image.get(), offCfg);
    inject::Campaign on(built.image.get(), onCfg);
    if (!off.profile() || !on.profile())
      raise("bench_campaign_throughput: " + w->name + " failed to profile");

    // off: from scratch on fast; on: replay cache on fast; jit: replay
    // cache on the template JIT.
    const Cell coff = runCell(off, vm::InterpKind::Fast, trials, seed,
                              threads, &built.artifacts, reps);
    const Cell con = runCell(on, vm::InterpKind::Fast, trials, seed, threads,
                             &built.artifacts, reps);
    const Cell cjit = jit ? runCell(on, vm::InterpKind::Jit, trials, seed,
                                    threads, &built.artifacts, reps)
                          : Cell{};

    // Equivalence gate: a throughput number only counts if the records are
    // byte-identical to the from-scratch campaign on the fast interpreter.
    auto bytes = [&](const inject::Campaign& c, const Cell& cell) {
      inject::ExperimentResult r;
      r.workload = w->name;
      r.level = opt::OptLevel::O0;
      r.goldenInstrs = c.goldenInstrs();
      r.records = cell.records;
      return inject::serializeDeterministic(r);
    };
    const auto want = bytes(off, coff);
    if (bytes(on, con) != want)
      raise("bench_campaign_throughput: checkpointed campaign diverged from "
            "from-scratch on " + w->name);
    if (jit && bytes(on, cjit) != want)
      raise("bench_campaign_throughput: jit campaign diverged from fast on " +
            w->name);
    if (con.tel.replaySavedInstrs == 0)
      raise("bench_campaign_throughput: replay cache saved nothing on " +
            w->name);

    const double speedup = con.sec > 0 ? coff.sec / con.sec : 0;
    const double jitSpeedup = cjit.sec > 0 ? con.sec / cjit.sec : 0;
    std::printf("%-10s %7d %6llu %9.1f %9.1f %9s %6.2fx %6s %12.1f\n",
                w->name.c_str(), trials,
                static_cast<unsigned long long>(con.tel.ckptCount),
                coff.trialsPerSec(trials), con.trialsPerSec(trials),
                cellText(jit, "%.1f", cjit.trialsPerSec(trials), "-").c_str(),
                speedup, cellText(jit, "%.2fx", jitSpeedup, "-").c_str(),
                con.tel.replaySavedInstrs / 1e6);
    char row[768];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"workload\":\"%s\",\"trials\":%d,\"golden_instrs\":%llu,"
        "\"ckpt_count\":%llu,\"ckpt_interval\":%llu,"
        "\"off_sec\":%.6f,\"off_trials_per_sec\":%.2f,"
        "\"on_sec\":%.6f,\"on_trials_per_sec\":%.2f,\"speedup\":%.3f,"
        "\"jit_sec\":%s,"
        "\"jit_trials_per_sec\":%s,\"jit_speedup\":%s,"
        "\"replay_saved_instrs\":%llu,\"mips\":%.2f,"
        "\"effective_mips\":%.2f,\"jit_mips\":%s}",
        rows.empty() ? "" : ",\n", w->name.c_str(), trials,
        static_cast<unsigned long long>(on.goldenInstrs()),
        static_cast<unsigned long long>(con.tel.ckptCount),
        static_cast<unsigned long long>(on.checkpointInterval()),
        coff.sec, coff.trialsPerSec(trials), con.sec,
        con.trialsPerSec(trials), speedup,
        cellText(jit, "%.6f", cjit.sec, "null").c_str(),
        cellText(jit, "%.2f", cjit.trialsPerSec(trials), "null").c_str(),
        cellText(jit, "%.3f", jitSpeedup, "null").c_str(),
        static_cast<unsigned long long>(con.tel.replaySavedInstrs),
        con.tel.mips, con.tel.effectiveMips,
        cellText(jit, "%.2f", cjit.tel.mips, "null").c_str());
    rows += row;
  }

  const char* out = std::getenv("CARE_BENCH_CAMPAIGN_JSON");
  const std::string path = out && *out ? out : "BENCH_campaign.json";
  std::ofstream f(path);
  f << "{\n  \"bench\": \"campaign_throughput\",\n  \"reps\": " << reps
    << ",\n  \"backends\": {\"off\": \"fast\", \"on\": \"fast\", "
       "\"jit\": "
    << (jit ? "\"jit\"" : "null") << "},\n  \"rows\": [\n"
    << rows << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  bench::footer();
  return 0;
}
