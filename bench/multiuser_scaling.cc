// Multiuser scaling — the load the paper says its optimizations target.
//
// §5.1: "this optimizes for the situation of several processes running in separate memory
// contexts (not threads) which is the typical load on a multiuser system", and §5.1's
// Talluri caveat: workloads that really stress TLB capacity "would possibly show an even
// greater performance gain". This bench scales the user count and measures the aggregate
// throughput gap between the unoptimized and optimized kernels — the gap should widen as
// contexts multiply.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/sweep_runner.h"
#include "src/workloads/multiuser.h"
#include "src/workloads/report.h"

namespace ppcmm {
namespace {

int Main() {
  Headline("Multiuser scaling: aggregate throughput, baseline vs optimized (604/133)");

  // One independent simulation per (user count, kernel) cell; sweep all eight across host
  // threads and render the table from the index-ordered results.
  const std::vector<uint32_t> user_counts = {1u, 2u, 4u, 8u};
  SweepRunner runner;
  const auto run_cell = [&](size_t i) {
    MultiuserConfig config;
    config.users = user_counts[i / 2];
    System system(MachineConfig::Ppc604(133), i % 2 == 0
                                                  ? OptimizationConfig::Baseline()
                                                  : OptimizationConfig::AllOptimizations());
    return RunMultiuserWorkload(system, config);
  };
  const std::vector<MultiuserResult> results = runner.Map(user_counts.size() * 2, run_cell);

  TextTable table({"users", "baseline ops/s", "optimized ops/s", "speedup",
                   "baseline TLB miss/op", "optimized TLB miss/op"});
  double speedup_small = 0;
  double speedup_large = 0;
  for (size_t row = 0; row < user_counts.size(); ++row) {
    const uint32_t users = user_counts[row];
    const MultiuserResult& rb = results[row * 2];
    const MultiuserResult& ro = results[row * 2 + 1];
    const double speedup = ro.ops_per_second / rb.ops_per_second;
    if (users == 1) {
      speedup_small = speedup;
    }
    if (users == 8) {
      speedup_large = speedup;
    }
    auto misses_per_op = [](const MultiuserResult& r) {
      return static_cast<double>(r.counters.itlb_misses + r.counters.dtlb_misses) /
             static_cast<double>(r.operations);
    };
    table.AddRow({std::to_string(users), TextTable::Num(rb.ops_per_second, 0),
                  TextTable::Num(ro.ops_per_second, 0), TextTable::Num(speedup, 2) + "x",
                  TextTable::Num(misses_per_op(rb), 0), TextTable::Num(misses_per_op(ro), 0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("Claims:\n");
  std::printf("  optimizations speed the multiuser load:        %s (%.2fx at 8 users)\n",
              speedup_large > 1.05 ? "HOLDS" : "FAILS", speedup_large);
  std::printf("  the gain does not shrink as contexts multiply: %s (%.2fx -> %.2fx)\n",
              speedup_large >= speedup_small * 0.9 ? "HOLDS" : "FAILS", speedup_small,
              speedup_large);
  return 0;
}

}  // namespace
}  // namespace ppcmm

int main() { return ppcmm::Main(); }
