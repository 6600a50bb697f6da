// carebench: the repository benchmark (see README.md in this directory).
//
//   carebench --workload <reg_care|mem_ecc|build_run> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//   carebench --schema
//
// Prints a human-readable report and, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 the workload
// runs twice (untraced, then traced, half the time each) and the metrics
// are the per-layer ones from the traced half plus the tracing overhead.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "support/trace.hpp"
#include "vm/executor.hpp"
#include "vm/jit.hpp"

extern char** environ;

namespace carebench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

// Must match BENCHMARK.json (run.py --smoke checks it). Each end-to-end
// metric has one meaning per workload; README.md tabulates them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"throughput_per_s", "1/s", "higher"},
    {"latency_ms_p50", "ms", "lower"},
    {"latency_ms_p90", "ms", "lower"},
    {"overhead_x", "x", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"lang.ms", "ms", "lower"},
    {"lang.ir_instrs", "count", "lower"},
    {"opt.ms", "ms", "lower"},
    {"opt.ir_instrs_after", "count", "lower"},
    {"armor.ms", "ms", "lower"},
    {"armor.kernels", "count", "higher"},
    {"armor.kernel_instrs", "count", "lower"},
    {"sentinel.ms", "ms", "lower"},
    {"sentinel.added_instrs", "count", "lower"},
    {"sentinel.armed_sites", "count", "higher"},
    {"sentinel.total_sites", "count", "higher"},
    {"backend.ms", "ms", "lower"},
    {"backend.mir_instrs", "count", "lower"},
    {"build.divergent_rebuilds", "count", "lower"},
    {"vm.load_link_ms", "ms", "lower"},
    {"vm.run_ms", "ms", "lower"},
    {"vm.run_ms_p90", "ms", "lower"},
    {"vm.jit.compile_ms", "ms", "lower"},
    {"vm.jit.compiled_functions", "count", "higher"},
    {"vm.sim_instrs", "count", "lower"},
    {"vm.mips", "MIPS", "higher"},
    {"ecc.corrected", "count", "higher"},
    {"ecc.uncorrectable", "count", "lower"},
    {"ring.rollbacks", "count", "lower"},
    {"ring.reexec_instrs", "count", "lower"},
    {"ring.rollback_us", "us", "lower"},
    {"inject.profile_ms", "ms", "lower"},
    {"inject.ckpt_count", "count", "higher"},
    {"inject.replay_saved_instrs", "count", "higher"},
    {"inject.replay_share", "ratio", "higher"},
    {"inject.trial_ms_p50", "ms", "lower"},
    {"inject.trial_ms_p90", "ms", "lower"},
    {"inject.care_rerun_ms_p50", "ms", "lower"},
    {"inject.care_reruns", "count", "lower"},
    {"engine.busy_s", "s", "lower"},
    {"engine.utilization", "ratio", "higher"},
    {"service.shards", "count", "lower"},
    {"service.busy_s", "s", "lower"},
    {"service.utilization", "ratio", "higher"},
    {"service.requeued", "count", "lower"},
    {"service.restarts", "count", "lower"},
    {"store.hits", "count", "higher"},
    {"store.misses", "count", "lower"},
    {"store.hit_ratio", "ratio", "higher"},
    {"safeguard.activations", "count", "lower"},
    {"safeguard.repair_ratio", "ratio", "higher"},
    {"safeguard.key_us", "us", "lower"},
    {"safeguard.load_us", "us", "lower"},
    {"safeguard.param_us", "us", "lower"},
    {"safeguard.kernel_us", "us", "lower"},
    {"safeguard.patch_us", "us", "lower"},
    {"safeguard.on_trap_us", "us", "lower"},
    {"prune.groups", "count", "lower"},
    {"prune.weighted_trials", "count", "higher"},
    {"prune.exec_ratio", "ratio", "lower"},
    {"outcome.coverage_pct", "%", "higher"},
    {"outcome.sdc_pct", "%", "lower"},
    {"outcome.crash_pct", "%", "lower"},
    {"trace.events", "count", "lower"},
    {"trace.dropped", "count", "lower"},
    {"trace.throughput_ratio", "ratio", "higher"},
    {"trace.run_ms_ratio", "ratio", "lower"},
};

struct Workload {
  const char* name;
  WorkloadFn fn;
};
constexpr Workload kWorkloads[] = {
    {"reg_care", runRegCare},
    {"mem_ecc", runMemEcc},
    {"build_run", runBuildRun},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "carebench: %s\nusage: carebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> | --schema\n",
               why);
  std::exit(2);
}

void printSchema() {
  auto list = [](const char* key, const auto& defs, bool last) {
    std::printf("\"%s\":[", key);
    bool first = true;
    for (const MetricDef& m : defs) {
      std::printf("%s{\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\"}",
                  first ? "" : ",", m.name, m.unit, m.better);
      first = false;
    }
    std::printf("]%s", last ? "" : ",");
  };
  std::printf("{");
  list("end_to_end", kEndToEnd, false);
  list("per_layer", kPerLayer, true);
  std::printf("}\n");
}

/// Unset every CARE_* variable so no environment knob can change a
/// workload; returns the names cleared. CARE_TRACE is read before main, so
/// its recorder is disarmed and emptied too.
std::string clearCareEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "CARE_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                                : std::strlen(*e));
    }
  std::string list;
  for (const std::string& n : names) {
    ::unsetenv(n.c_str());
    list += (list.empty() ? "" : ",") + n;
  }
  care::trace::disable();
  care::trace::reset();
  return list.empty() ? "none" : list;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

} // namespace
} // namespace carebench

int main(int argc, char** argv) {
  using namespace carebench;
  Options o;
  bool haveWorkload = false, haveScratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--schema") {
      printSchema();
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--scratch") {
      o.scratchDir = v;
      haveScratch = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!haveWorkload || !haveScratch) usage("--workload and --scratch needed");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  WorkloadFn fn = nullptr;
  for (const Workload& w : kWorkloads)
    if (o.workload == w.name) fn = w.fn;
  if (!fn) usage(("unknown workload " + o.workload).c_str());

  const std::string cleared = clearCareEnvironment();
  const std::string buildType = CAREBENCH_BUILD_TYPE;
  if (buildType == "Debug") {
    std::fprintf(stderr, "carebench: refusing to measure a Debug build\n");
    return 3;
  }
  care::vm::setDefaultInterp(care::vm::InterpKind::Jit);
  if (!care::vm::jitAvailable()) {
    // A silent fallback to the fast interpreter would shift every timing.
    std::fprintf(stderr, "carebench: the JIT backend is unavailable here\n");
    return 3;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  o.threads = static_cast<int>(std::min(hw, 4u));
  std::filesystem::create_directories(o.scratchDir);

  std::printf("carebench: workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("carebench: nproc=%u threads=%d build_type=%s interp=%s "
              "jit_available=1 cleared_env=%s\n",
              hw, o.threads, buildType.c_str(),
              care::vm::interpName(care::vm::defaultInterp()),
              cleared.c_str());
  std::fflush(stdout);

  Gates gates;
  Phase result;
  std::map<std::string, double> metrics;
  try {
    if (!o.trace) {
      result = fn(o, false, o.seconds, gates);
      metrics = result.e2e;
      metrics["peak_rss_mb"] = peakRssMb();
    } else {
      const Phase plain = fn(o, false, o.seconds / 2, gates);
      result = fn(o, true, o.seconds / 2, gates);
      gates.check(plain.digest == result.digest,
                  "traced records differ from untraced records");
      gates.check(result.layer["trace.dropped"] == 0,
                  "trace rings dropped events");
      metrics = result.layer;
      const double tp = plain.e2e.at("throughput_per_s");
      const double rp = plain.passMs;
      metrics["trace.throughput_ratio"] =
          tp > 0 ? result.e2e.at("throughput_per_s") / tp : 0;
      metrics["trace.run_ms_ratio"] =
          rp > 0 ? result.passMs / rp : 0;
    }
  } catch (const std::exception& e) {
    gates.fail(std::string("workload threw: ") + e.what());
  }
  const auto jitFns = result.layer.find("vm.jit.compiled_functions");
  gates.check(jitFns != result.layer.end() && jitFns->second > 0,
              "no function was JIT-compiled");
  std::printf("carebench: jit_compiled_functions=%g\n",
              jitFns == result.layer.end() ? 0.0 : jitFns->second);

  const auto& defs = o.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                      std::end(kPerLayer))
                             : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                      std::end(kEndToEnd));
  for (const MetricDef& m : defs) {
    const auto it = metrics.find(m.name);
    gates.check(it != metrics.end() && std::isfinite(it->second),
                std::string("metric missing or not finite: ") + m.name);
  }

  for (const std::string& line : result.report)
    std::printf("carebench: %s %s\n", o.workload.c_str(), line.c_str());
  for (const std::string& msg : gates.messages())
    std::printf("carebench: FAILED %s\n", msg.c_str());

  std::string json = "{\"correct\": ";
  json += gates.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gates.attempted());
  json += ", \"failed\": " + std::to_string(gates.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const MetricDef& m = defs[i];
    double v = metrics.count(m.name) ? metrics[m.name] : 0;
    if (!std::isfinite(v)) v = 0;
    std::printf("carebench: %s %-28s %16.6f %-6s (%s is better)\n",
                o.workload.c_str(), m.name, v, m.unit, m.better);
    json += std::string(i ? ", " : "") + "\"" + m.name +
            "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
