// The batched-run contract: UserTouchRun / Mmu::AccessRun must be bit-identical to
// issuing the same accesses one UserTouch at a time — full HwCounters, cycles and the
// attribution ledger — across every fuzz preset and every reload strategy, at one CPU and
// at four. The driven workloads cross every boundary a translation span must not batch
// across: demand faults mid-run, COW breaks mid-run, a run whose first access misses the
// TLB, deferred first-store C-bit traps through clean entries, framebuffer BAT runs and a
// BAT rewrite between runs, eager (tlbie) and lazy (VSID-bump) munmap flushes between
// runs, an armed fault injector, context switches, CPU switches and sub-page strides.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/fault_injector.h"
#include "src/verify/fuzz/differential.h"

namespace ppcmm {
namespace {

void ExpectCountersIdentical(const HwCounters& single, const HwCounters& batched) {
  single.ForEachField([&](const char* name, uint64_t value_single, bool) {
    bool found = false;
    batched.ForEachField([&](const char* batched_name, uint64_t value_batched, bool) {
      if (std::string(name) == batched_name) {
        EXPECT_EQ(value_single, value_batched) << name;
        found = true;
      }
    });
    EXPECT_TRUE(found) << name;
  });
  EXPECT_EQ(single.cycles, batched.cycles);
}

void ExpectLedgersIdentical(const CycleLedger& single, const CycleLedger& batched) {
  const std::vector<CycleLedger::Cell> a = single.Cells();
  const std::vector<CycleLedger::Cell> b = batched.Cells();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].path, b[i].path) << "cell " << i;
    EXPECT_EQ(a[i].task, b[i].task) << "cell " << i;
    EXPECT_EQ(a[i].cycles, b[i].cycles) << "cell " << i;
  }
  EXPECT_EQ(single.TotalAttributed(), batched.TotalAttributed());
}

// Every touch in the workload goes through here: as one page-grained run, or unrolled
// into the per-access calls the run claims to be equivalent to.
void Touch(Kernel& kernel, bool batched, EffAddr start, uint32_t stride, uint32_t count,
           AccessKind kind) {
  if (batched) {
    kernel.UserTouchRun(start, stride, count, kind);
  } else {
    for (uint32_t i = 0; i < count; ++i) {
      kernel.UserTouch(start + i * stride, kind);
    }
  }
}

void DriveWorkload(System& sys, bool batched) {
  Kernel& kernel = sys.kernel();
  auto touch = [&](EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
    Touch(kernel, batched, start, stride, count, kind);
  };
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(a);
  // Demand-fault 32 pages inside one sub-page-stride run.
  touch(EffAddr(kUserDataBase), 1024, 32 * 4, AccessKind::kStore);
  // Re-stream part of the resident set at cache-line stride (pure span replay).
  touch(EffAddr(kUserDataBase), 64, 8 * (kPageSize / 64), AccessKind::kLoad);
  const TaskId child = kernel.Fork(a);
  kernel.SwitchTo(child);
  // Loads install the read-only shared translations, then the store run COW-breaks every
  // page.
  touch(EffAddr(kUserDataBase), kPageSize, 16, AccessKind::kLoad);
  touch(EffAddr(kUserDataBase), kPageSize, 16, AccessKind::kStore);
  const uint32_t map = kernel.Mmap(30);
  touch(EffAddr::FromPage(map), 2048, 60, AccessKind::kStore);
  kernel.Munmap(map, 30);  // above the cutoff: lazy VSID-bump context flush
  const uint32_t map2 = kernel.Mmap(4);
  touch(EffAddr::FromPage(map2), kPageSize, 4, AccessKind::kStore);
  kernel.Munmap(map2, 4);  // below the cutoff: eager per-page tlbie flush
  // Post-flush re-touch: spans must see the flushes above, never a stale translation.
  touch(EffAddr(kUserDataBase), kPageSize, 32, AccessKind::kLoad);
  kernel.SwitchTo(a);
  touch(EffAddr(kUserDataBase), 512, 16 * 8, AccessKind::kLoad);
  kernel.Exit(child);
  kernel.RunIdle(Cycles(20000));

  const TaskId second = kernel.Fork(a);
  kernel.SwitchTo(second);
  // A store run that hits COW pages mid-run: page 0 is broken first, so the run starts
  // on a private page and meets a still-shared one at every later page boundary.
  touch(EffAddr(kUserDataBase), kPageSize, 1, AccessKind::kStore);
  touch(EffAddr(kUserDataBase), 1024, 4 * 4, AccessKind::kStore);
  // A run whose first access misses the TLB: every page reloads, then the rest replays.
  sys.mmu().TlbInvalidateAll();
  touch(EffAddr(kUserDataBase), 256, 4 * (kPageSize / 256), AccessKind::kLoad);
  // The loads above reloaded clean entries (unless the preset marks dirty eagerly), so
  // each page's first store traps for the C bit and the rest of the page replays.
  touch(EffAddr(kUserDataBase), 256, 4 * (kPageSize / 256), AccessKind::kStore);
  // Framebuffer runs at stride 1024: through the DBAT, then, after the BAT is cleared
  // between runs, through cache-inhibited TLB entries for the I/O VMA.
  const uint32_t fb = kernel.MapFramebuffer();
  kernel.SetFramebufferBat(true);
  touch(EffAddr::FromPage(fb), 1024, 8 * 4, AccessKind::kStore);
  kernel.SetFramebufferBat(false);
  touch(EffAddr::FromPage(fb), 1024, 8 * 4, AccessKind::kLoad);
  // An armed fault injector polls on every access, so no span may form while it is set.
  FaultInjector injector(0x5EED);
  injector.Enable(FaultClass::kSpuriousTlbFlush, 5);
  kernel.SetFaultInjector(&injector);
  const uint64_t spans_before = sys.mmu().span_accesses();
  touch(EffAddr(kUserDataBase), 128, 4 * (kPageSize / 128), AccessKind::kLoad);
  touch(EffAddr(kUserDataBase), 128, 4 * (kPageSize / 128), AccessKind::kStore);
  EXPECT_EQ(sys.mmu().span_accesses(), spans_before) << "a span formed under the injector";
  kernel.SetFaultInjector(nullptr);
  kernel.Exit(second);
  kernel.RunIdle(Cycles(20000));
}

// Four CPUs, SwitchCpu between runs, and tasks migrating between CPUs so munmap flushes
// reach remote TLBs through IPI shootdowns (eager below the cutoff, lazy above it).
void DriveSmpWorkload(System& sys, bool batched) {
  Kernel& kernel = sys.kernel();
  auto touch = [&](EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
    Touch(kernel, batched, start, stride, count, kind);
  };
  const uint32_t ncpus = kernel.ncpus();
  std::vector<TaskId> tasks;
  for (uint32_t i = 0; i <= ncpus; ++i) {  // one spare task to rotate onto CPUs
    const TaskId t = kernel.CreateTask("smp");
    kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 16, .stack_pages = 2});
    tasks.push_back(t);
  }
  for (uint32_t cpu = 0; cpu < ncpus; ++cpu) {
    kernel.SwitchCpu(cpu);
    kernel.SwitchTo(tasks[cpu]);
    touch(EffAddr(kUserDataBase), 512, 8 * (kPageSize / 512), AccessKind::kStore);
  }
  size_t spare = ncpus;
  for (uint32_t round = 0; round < 12; ++round) {
    const uint32_t cpu = (round * 3) % ncpus;
    kernel.SwitchCpu(cpu);
    if (round % 3 == 2) {
      // Migrate: the spare task runs here, the task it displaces becomes the spare.
      const TaskId displaced = kernel.CurrentOn(cpu);
      kernel.SwitchTo(tasks[spare]);
      spare = static_cast<size_t>(
          std::find(tasks.begin(), tasks.end(), displaced) - tasks.begin());
    }
    touch(EffAddr(kUserDataBase), 256, 4 * (kPageSize / 256),
          round % 2 == 0 ? AccessKind::kLoad : AccessKind::kStore);
    const uint32_t pages = round % 4 == 3 ? 24 : 3;
    const uint32_t map = kernel.Mmap(pages);
    touch(EffAddr::FromPage(map), 1024, pages * 4, AccessKind::kStore);
    kernel.Munmap(map, pages);
  }
}

// The reload-strategy axis, pinned the way RunDifferential pins it.
struct StrategyCase {
  const char* name;
  MachineConfig machine;
  bool direct_reload;
};

std::vector<StrategyCase> Strategies() {
  return {
      {"hw_walk", MachineConfig::Ppc604(185), false},
      {"sw_htab", MachineConfig::Ppc603(80), false},
      {"sw_direct", MachineConfig::Ppc603(80), true},
  };
}

// Runs `drive` per-access and batched on two fresh Systems and compares everything the
// simulation exposes. Per-access calls never form spans; the batched side must.
void ExpectBatchedMatchesSingle(const MachineConfig& machine, const OptimizationConfig& config,
                                void (*drive)(System&, bool)) {
  System single(machine, config);
  single.machine().attr().SetEnabled(true);
  drive(single, /*batched=*/false);

  System batched(machine, config);
  batched.machine().attr().SetEnabled(true);
  drive(batched, /*batched=*/true);

  ExpectCountersIdentical(single.counters(), batched.counters());
  ExpectLedgersIdentical(single.machine().attr(), batched.machine().attr());
  EXPECT_EQ(single.mmu().span_accesses(), 0u);
  EXPECT_GT(batched.mmu().span_accesses(), 0u) << "spans never engaged";
}

TEST(BatchedRunTest, BitIdenticalAcrossPresetsAndStrategies) {
  for (const FuzzPreset& preset : FuzzPresets()) {
    for (const StrategyCase& s : Strategies()) {
      for (const uint32_t ncpus : {1u, 4u}) {
        SCOPED_TRACE(preset.name + "/" + s.name + "/ncpus" + std::to_string(ncpus));
        OptimizationConfig config = preset.config;
        config.no_htab_direct_reload = s.direct_reload;
        MachineConfig machine = s.machine;
        machine.ncpus = ncpus;
        ExpectBatchedMatchesSingle(machine, config,
                                   ncpus == 1 ? DriveWorkload : DriveSmpWorkload);
      }
    }
  }
}

TEST(BatchedRunTest, AttributionSumsBitExactlyUnderSpans) {
  // CycleLedger conservation: with attribution on, batched and per-access runs charge the
  // identical total, and that total equals the machine's clock advance over the window.
  auto run = [](bool batched) {
    System sys(MachineConfig::Ppc604(133), OptimizationConfig::AllOptimizations());
    sys.machine().attr().SetEnabled(true);
    const uint64_t start = sys.machine().Now().value;
    DriveWorkload(sys, batched);
    const uint64_t elapsed = sys.machine().Now().value - start;
    uint64_t cell_sum = 0;
    for (const CycleLedger::Cell& cell : sys.machine().attr().Cells()) {
      cell_sum += cell.cycles;
    }
    return std::tuple<uint64_t, uint64_t, uint64_t>(
        sys.machine().attr().TotalAttributed(), cell_sum, elapsed);
  };
  const auto [total_single, cells_single, elapsed_single] = run(false);
  const auto [total_batched, cells_batched, elapsed_batched] = run(true);
  EXPECT_EQ(total_single, total_batched);
  EXPECT_EQ(cells_batched, total_batched);
  EXPECT_EQ(cells_single, total_single);
  EXPECT_EQ(elapsed_single, elapsed_batched);
  EXPECT_EQ(total_batched, elapsed_batched);
}

TEST(BatchedRunTest, SpansCarryMostOfASteadyStateStream) {
  // The perf claim behind the API: once a working set is resident, nearly every access in
  // a page-grained run rides a span; only each page's first access takes the full path.
  System sys(MachineConfig::Ppc603(133), OptimizationConfig::OnlyDirectReload());
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{.text_pages = 2, .data_pages = 40, .stack_pages = 2});
  kernel.SwitchTo(t);
  kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 32 * (kPageSize / 64),
                      AccessKind::kStore);  // fault in
  const uint64_t warm_spans = sys.mmu().span_accesses();
  for (int pass = 0; pass < 4; ++pass) {
    kernel.UserTouchRun(EffAddr(kUserDataBase), 64, 32 * (kPageSize / 64),
                        AccessKind::kLoad);
  }
  const uint64_t stream_accesses = 4ull * 32 * (kPageSize / 64);
  const uint64_t stream_spans = sys.mmu().span_accesses() - warm_spans;
  EXPECT_GT(stream_spans, stream_accesses * 95 / 100)
      << stream_spans << " of " << stream_accesses << " accesses rode spans";
  // And each span covers many accesses: the whole point of translating once per page.
  EXPECT_GT(sys.mmu().span_accesses() / sys.mmu().span_runs(), 16u);
}

}  // namespace
}  // namespace ppcmm
