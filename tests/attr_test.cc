// The cycle-attribution ledger's two contracts:
//
//  1. Conservation: with attribution on, the per-cause cells sum bit-exactly to the cycles
//     the machine simulated — no cycle is lost, none is double-counted, and there is no
//     "unknown" bucket to hide in (the base cell is "instruction" by construction). Checked
//     across every fuzz preset x reload strategy combination.
//  2. Zero perturbation: observation (on or off) never changes what the simulation does —
//     hardware counters are identical with every observer running (ledger, ring, latency
//     probes, timeline sampler, metrics), and with the switch off nothing is recorded.
//
// Plus unit coverage for the ledger mechanics (Rebind, nesting, per-task cells, the ring)
// and the src/obs/attr exporters built on top.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/attr/attr_export.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/verify/fuzz/differential.h"
#include "src/verify/torture.h"

namespace ppcmm {
namespace {

// Crosses every instrumented path: faults, COW breaks, TLB reloads, range and context
// flushes, syscalls, pipes, file I/O, context switches, idle reclaim and zeroing.
void Workload(System& sys) {
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{.text_pages = 4, .data_pages = 64, .stack_pages = 4});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 32; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  const TaskId child = kernel.Fork(a);
  kernel.SwitchTo(child);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);  // COW
  }
  const uint32_t map = kernel.Mmap(30);
  for (uint32_t i = 0; i < 30; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map + i), AccessKind::kStore);
  }
  kernel.Munmap(map, 30);  // above the cutoff: lazy context flush
  const uint32_t map2 = kernel.Mmap(4);
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.UserTouch(EffAddr::FromPage(map2 + i), AccessKind::kStore);
  }
  kernel.Munmap(map2, 4);  // below the cutoff: eager per-page flush
  kernel.SwitchTo(a);
  kernel.Exit(child);
  kernel.RunIdle(Cycles(20000));  // reclaim + zeroing passes
}

uint64_t CellSum(const CycleLedger& ledger) {
  uint64_t sum = 0;
  for (const CycleLedger::Cell& cell : ledger.Cells()) {
    sum += cell.cycles;
  }
  return sum;
}

TEST(AttrTest, ConservationAcrossEveryPresetAndStrategy) {
  const ReloadStrategy strategies[] = {ReloadStrategy::kSoftwareDirect,
                                       ReloadStrategy::kSoftwareHtab,
                                       ReloadStrategy::kHardwareHtabWalk};
  for (const FuzzPreset& preset : FuzzPresets()) {
    for (const ReloadStrategy strategy : strategies) {
      // Same machine/config derivation the differential fuzzer uses: the strategy pins
      // the direct-reload bit, hardware walk needs a 604, the software paths a 603.
      OptimizationConfig config = preset.config;
      config.no_htab_direct_reload = strategy == ReloadStrategy::kSoftwareDirect;
      const MachineConfig machine = strategy == ReloadStrategy::kHardwareHtabWalk
                                        ? MachineConfig::Ppc604(185)
                                        : MachineConfig::Ppc603(80);
      System sys(machine, config);
      CycleLedger& ledger = sys.machine().attr();
      ledger.SetEnabled(true);
      const uint64_t before = sys.counters().cycles;
      Workload(sys);
      const uint64_t simulated = sys.counters().cycles - before;
      const std::string where =
          preset.name + " / " + ReloadStrategyName(strategy);
      ASSERT_GT(simulated, 0u) << where;
      // Bit-exact: every simulated cycle is attributed, exactly once.
      EXPECT_EQ(ledger.TotalAttributed(), simulated) << where;
      EXPECT_EQ(CellSum(ledger), simulated) << where;
    }
  }
}

TEST(AttrTest, EnabledAttributionDoesNotPerturbTheSimulation) {
  System off(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Workload(off);

  System on(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  on.machine().attr().SetEnabled(true);
  TimelineSampler sampler(on, Cycles(1000));
  sampler.Install();
  Workload(on);

  // Every observer really observed something...
  EXPECT_GT(on.machine().attr().TotalAttributed(), 0u);
  EXPECT_GT(on.machine().attr().TotalRecorded(), 0u);
  EXPECT_GT(on.machine().probes().TotalRecorded(), 0u);
  EXPECT_FALSE(on.machine().probes().hash_miss_per_pteg().empty());
  EXPECT_GT(sampler.samples().size(), 0u);
  EXPECT_GT(MetricsRegistry(on).Snapshot().counters.size(), 0u);

  // ...and yet every hardware counter — cycles first of all — is identical.
  const HwCounters& c_off = off.counters();
  const HwCounters& c_on = on.counters();
  c_off.ForEachField([&](const char* name, uint64_t value_off, bool) {
    bool found = false;
    c_on.ForEachField([&](const char* on_name, uint64_t value_on, bool) {
      if (std::string(name) == on_name) {
        EXPECT_EQ(value_off, value_on) << name;
        found = true;
      }
    });
    EXPECT_TRUE(found) << name;
  });
  EXPECT_EQ(c_off.cycles, c_on.cycles);
}

TEST(AttrTest, DisabledLedgerRecordsNothing) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  ASSERT_FALSE(sys.machine().attr().enabled());
  Workload(sys);
  // The workload crossed every Machine::Trace, RecordLatency and RecordHashMiss hook;
  // none of them wrote anything, while the hardware counters kept counting.
  EXPECT_EQ(sys.machine().attr().TotalAttributed(), 0u);
  EXPECT_TRUE(sys.machine().attr().Cells().empty());
  EXPECT_TRUE(sys.machine().attr().Records().empty());
  EXPECT_EQ(sys.machine().attr().TotalRecorded(), 0u);
  EXPECT_EQ(sys.machine().probes().TotalRecorded(), 0u);
  EXPECT_TRUE(sys.machine().probes().hash_miss_per_pteg().empty());
  EXPECT_GT(sys.counters().cycles, 0u);
  EXPECT_GT(sys.counters().page_faults, 0u);
  EXPECT_GT(sys.counters().htab_misses, 0u);
  // The metrics view over an unobserved machine reports zero latency samples.
  const MetricsSnapshot snap = MetricsRegistry(sys).Snapshot();
  const uint64_t* count = snap.FindCounter("lat.page_fault.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(*count, 0u);
}

TEST(AttrTest, ScopesNestAndRebindMovesCycles) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.AddCycles(Cycles(7));  // base cell: instruction
  {
    CycleScope outer(machine, AttrCause::kSyscall);
    machine.AddCycles(Cycles(10));
    {
      CycleScope inner(machine, AttrCause::kHashSearchPrimary);
      machine.AddCycles(Cycles(3));
      inner.Rebind(AttrCause::kHashSearchMiss);  // primary turned out to be a miss
      machine.AddCycles(Cycles(2));
    }
    machine.AddCycles(Cycles(1));
  }
  const std::map<std::string, uint64_t> totals = AttrCauseTotals(machine.attr());
  EXPECT_EQ(totals.at("instruction"), 7u);
  EXPECT_EQ(totals.at("syscall"), 11u);
  EXPECT_EQ(totals.at("syscall;hash_miss"), 5u);
  EXPECT_EQ(totals.count("syscall;hash_primary"), 0u);
  EXPECT_EQ(machine.attr().TotalAttributed(), 23u);
}

TEST(AttrTest, CellsAreKeyedByTask) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.attr().SetCurrentTask(1);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(4));
  }
  machine.attr().SetCurrentTask(2);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(9));
  }
  uint64_t task1 = 0, task2 = 0;
  for (const CycleLedger::Cell& cell : machine.attr().Cells()) {
    if (cell.task == 1) task1 += cell.cycles;
    if (cell.task == 2) task2 += cell.cycles;
  }
  EXPECT_EQ(task1, 4u);
  EXPECT_EQ(task2, 9u);
}

TEST(AttrTest, FlightRingKeepsTheNewestEvents) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  // Each iteration appends a point record, then its scope's close record.
  constexpr uint32_t kIterations = CycleLedger::kRingCapacity / 2 + 100;
  for (uint32_t i = 1; i <= kIterations; ++i) {
    CycleScope scope(machine, AttrCause::kSyscall);
    machine.AddCycles(Cycles(i));
    machine.Trace(TraceEvent::kSyscall, i, 7);
  }
  EXPECT_EQ(machine.attr().TotalRecorded(), 2u * kIterations);
  const std::vector<TraceRecord> records = machine.attr().Records();
  ASSERT_EQ(records.size(), CycleLedger::kRingCapacity);
  // Oldest first: the window holds the last kRingCapacity / 2 iterations, in order, each
  // point followed by its scope close.
  const uint32_t first = kIterations - CycleLedger::kRingCapacity / 2 + 1;
  for (size_t k = 0; k < records.size(); k += 2) {
    const uint32_t i = first + static_cast<uint32_t>(k / 2);
    const TraceRecord& point = records[k];
    const TraceRecord& scope = records[k + 1];
    ASSERT_FALSE(point.is_scope()) << k;
    EXPECT_EQ(point.event, TraceEvent::kSyscall);
    EXPECT_EQ(point.a, i);
    EXPECT_EQ(point.b, 7u);
    ASSERT_TRUE(scope.is_scope()) << k;
    EXPECT_EQ(scope.cause, AttrCause::kSyscall);
    EXPECT_EQ(scope.depth, 1u);
    EXPECT_EQ(scope.cycles, i);
    EXPECT_EQ(scope.cycle, point.cycle);
    if (k > 0) {
      EXPECT_EQ(point.cycle, records[k - 1].cycle + i);
    }
  }

  const std::string dump = RingDump(machine.attr(), "unit test", 4);
  EXPECT_NE(dump.find("event ring: unit test"), std::string::npos) << dump;
  EXPECT_NE(dump.find("last 4 of " + std::to_string(2 * kIterations)), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("syscall"), std::string::npos) << dump;
  static_assert(kIterations == 0x864);
  EXPECT_NE(dump.find("a=0x864 b=0x7"), std::string::npos) << dump;
  EXPECT_NE(dump.find(std::to_string(kIterations) + " cycles"), std::string::npos) << dump;
  EXPECT_NE(dump.find("cpu=0"), std::string::npos) << dump;
}

TEST(AttrTest, ExportersRoundTrip) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.AddCycles(Cycles(100));
  {
    CycleScope scope(machine, AttrCause::kCowFault);
    machine.AddCycles(Cycles(40));
    {
      CycleScope copy(machine, AttrCause::kCowCopy);
      machine.AddCycles(Cycles(60));
    }
  }

  const std::string folded = AttrToFolded(machine.attr());
  EXPECT_NE(folded.find("task0;instruction 100"), std::string::npos);
  EXPECT_NE(folded.find("task0;cow_fault 40"), std::string::npos);
  EXPECT_NE(folded.find("task0;cow_fault;cow_copy 60"), std::string::npos);

  const JsonValue doc = AttrToJson(machine.attr());
  EXPECT_EQ(doc.Find("total_cycles")->AsNumber(), 200.0);
  const std::map<std::string, uint64_t> totals = AttrCauseTotalsFromJson(doc);
  EXPECT_EQ(totals, AttrCauseTotals(machine.attr()));

  // A serialize -> parse round trip preserves the cause map the diff tool consumes.
  std::string error;
  const std::optional<JsonValue> parsed = JsonValue::Parse(doc.Serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(AttrCauseTotalsFromJson(*parsed), totals);
}

TEST(AttrTest, DiffReportOrdersByMagnitudeAndMarksNewCauses) {
  const std::map<std::string, uint64_t> a{{"pipe", 1000}, {"syscall", 500}};
  const std::map<std::string, uint64_t> b{{"pipe", 400}, {"syscall", 510}, {"fork", 90}};
  const std::string report = AttrDiffReport("a", a, "b", b);
  const size_t pipe = report.find("pipe");
  const size_t fork = report.find("fork");
  const size_t syscall = report.find("syscall");
  ASSERT_NE(pipe, std::string::npos);
  ASSERT_NE(fork, std::string::npos);
  ASSERT_NE(syscall, std::string::npos);
  EXPECT_LT(pipe, fork);     // |delta| 600 before 90
  EXPECT_LT(fork, syscall);  // 90 before 10
  EXPECT_NE(report.find("new"), std::string::npos);
  EXPECT_NE(report.find("TOTAL"), std::string::npos);
}

TEST(AttrTest, ClearResetsButStaysEnabled) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  {
    CycleScope scope(machine, AttrCause::kExec);
    machine.AddCycles(Cycles(5));
    machine.Trace(TraceEvent::kFlushContext, 7, 8);
  }
  ASSERT_EQ(machine.attr().TotalRecorded(), 2u);
  machine.attr().Clear();
  EXPECT_EQ(machine.attr().TotalAttributed(), 0u);
  EXPECT_EQ(machine.attr().TotalRecorded(), 0u);
  EXPECT_TRUE(machine.attr().Records().empty());
  EXPECT_NE(RingDump(machine.attr(), "cleared").find("no records"), std::string::npos);
  machine.AddCycles(Cycles(3));  // still attributing and recording after Clear
  machine.Trace(TraceEvent::kSyscall, 1);
  EXPECT_EQ(machine.attr().TotalAttributed(), 3u);
  ASSERT_EQ(machine.attr().Records().size(), 1u);
  EXPECT_EQ(machine.attr().Records()[0].event, TraceEvent::kSyscall);
}

}  // namespace
}  // namespace ppcmm
