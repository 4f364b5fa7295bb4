// Host throughput — how fast the simulator itself runs.
//
// Unlike every other bench, the numbers here are about the *host*: simulated accesses and
// simulated cycles retired per host second, for each reload strategy, and the
// configuration sweep run serially versus on the SweepRunner thread pool. The pooled pass
// must be simulation-invisible, so it cross-checks simulated accesses and cycles against
// the serial pass.
//
// PPCMM_QUICK=1 shrinks the workload for smoke runs (bench/run_all.sh --quick).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/kernel_compile.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

struct Strategy {
  const char* name;
  MachineConfig machine;
  OptimizationConfig opts;
};

struct RunStats {
  double host_seconds = 0;
  uint64_t sim_accesses = 0;
  uint64_t sim_cycles = 0;
};

bool QuickMode() {
  const char* env = std::getenv("PPCMM_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One full simulation of the kernel compile under `strategy`, timed on the host clock.
RunStats RunOnce(const Strategy& strategy, uint32_t units) {
  const auto start = std::chrono::steady_clock::now();
  System system(strategy.machine, strategy.opts);
  KernelCompileConfig cc;
  cc.compilation_units = units;
  RunKernelCompile(system, cc);
  RunStats stats;
  stats.host_seconds = Seconds(std::chrono::steady_clock::now() - start);
  const HwCounters& c = system.counters();
  stats.sim_accesses = c.itlb_accesses + c.dtlb_accesses + c.bat_translations;
  stats.sim_cycles = c.cycles;
  return stats;
}

int Main() {
  const bool quick = QuickMode();
  // Full-mode runs are sized so one simulation takes a few hundred host milliseconds —
  // short windows drown in scheduler noise on a shared host.
  const uint32_t units = quick ? 2 : 48;
  BenchReport::Global().SetName("host_throughput");
  BenchReport::Global().SetMeta("workload", "kernel compile");
  BenchReport::Global().SetMeta("strategies", "604 hw-walk, 603 sw-htab, 603 direct");

  Headline("Host throughput: simulator speed per reload strategy (kernel compile)");
  std::printf("workload: kernel compile, %u units%s\n\n", units, quick ? " (quick mode)" : "");

  const std::vector<Strategy> strategies = {
      {"604 hw-walk baseline", MachineConfig::Ppc604(133), OptimizationConfig::Baseline()},
      {"604 hw-walk optimized", MachineConfig::Ppc604(133),
       OptimizationConfig::AllOptimizations()},
      {"603 sw-htab baseline", MachineConfig::Ppc603(133), OptimizationConfig::Baseline()},
      {"603 direct reload", MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload()},
  };

  // One untimed warmup so first-run costs (allocator growth, cold host caches) are not
  // charged to the first timed configuration.
  RunOnce(strategies.front(), quick ? 1 : 2);

  // The serial pass doubles as the per-strategy speed table; the SweepRunner pass runs the
  // identical deterministic simulations on the thread pool, so its results must match.
  std::vector<RunStats> serial;
  serial.reserve(strategies.size());
  const auto serial_start = std::chrono::steady_clock::now();
  for (const Strategy& strategy : strategies) {
    serial.push_back(RunOnce(strategy, units));
  }
  const double serial_s = Seconds(std::chrono::steady_clock::now() - serial_start);

  SweepRunner runner;
  const auto par_start = std::chrono::steady_clock::now();
  const std::vector<RunStats> pooled =
      runner.Map(strategies.size(), [&](size_t i) { return RunOnce(strategies[i], units); });
  const double parallel_s = Seconds(std::chrono::steady_clock::now() - par_start);

  TextTable table({"strategy", "Maccess/s", "Mcycles/s"});
  bool pooled_identical = true;
  for (size_t i = 0; i < strategies.size(); ++i) {
    const RunStats& run = serial[i];
    pooled_identical = pooled_identical && pooled[i].sim_accesses == run.sim_accesses &&
                       pooled[i].sim_cycles == run.sim_cycles;
    const double maccess = static_cast<double>(run.sim_accesses) / run.host_seconds / 1e6;
    const double mcycles = static_cast<double>(run.sim_cycles) / run.host_seconds / 1e6;
    table.AddRow({strategies[i].name, TextTable::Num(maccess, 2), TextTable::Num(mcycles, 1)});
    const std::string name(strategies[i].name);
    BenchReport::Global().Add(name + ".sim_accesses_per_sec", maccess * 1e6, "1/s");
    BenchReport::Global().Add(name + ".sim_cycles_per_sec", mcycles * 1e6, "1/s");
  }
  std::printf("%s\n", table.ToString().c_str());
  const double parallel_speedup = serial_s / parallel_s;
  std::printf("parallel sweep: %u threads (host cores: %u)\n", runner.threads(),
              std::thread::hardware_concurrency());
  std::printf("  serial %.2fs, parallel %.2fs -> %.2fx\n", serial_s, parallel_s,
              parallel_speedup);
  std::printf("pooled sweep simulation-invisible (cycles+accesses identical to serial): %s\n",
              pooled_identical ? "HOLDS" : "FAILS");
  BenchReport::Global().Add("sweep_threads", runner.threads(), "");
  BenchReport::Global().Add("parallel_speedup", parallel_speedup, "x");

  return pooled_identical ? 0 : 1;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
