// Event ring tests: record stamps, event names, and the streams the MMU/kernel paths append
// to the cycle ledger's ring.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"

namespace ppcmm {
namespace {

size_t CountOf(const std::vector<TraceRecord>& records, TraceEvent event) {
  size_t n = 0;
  for (const TraceRecord& r : records) {
    n += !r.is_scope() && r.event == event ? 1 : 0;
  }
  return n;
}

TEST(RingTest, EveryEventHasAName) {
  for (uint32_t e = 0; e <= static_cast<uint32_t>(TraceEvent::kVsidEpochRollover); ++e) {
    EXPECT_STRNE(TraceEventName(static_cast<TraceEvent>(e)), "unknown");
  }
}

TEST(RingTest, RecordsStampTaskAndCpu) {
  MachineConfig config = MachineConfig::Ppc604(185);
  config.ncpus = 2;
  Machine machine(config);
  machine.attr().SetEnabled(true);
  machine.Trace(TraceEvent::kTlbMiss, 0x100);
  machine.attr().SetCurrentTask(5);
  machine.SetCurrentCpu(1);
  machine.Trace(TraceEvent::kPageFault, 0x200);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(3));
  }
  const std::vector<TraceRecord> records = machine.attr().Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].task, 0u);
  EXPECT_EQ(records[0].cpu, 0u);
  EXPECT_EQ(records[1].task, 5u);
  EXPECT_EQ(records[1].cpu, 1u);
  ASSERT_TRUE(records[2].is_scope());
  EXPECT_EQ(records[2].task, 5u);
  EXPECT_EQ(records[2].cpu, 1u);
  EXPECT_EQ(records[2].cycles, 3u);
}

TEST(RingTest, DisablingFreezesEveryObserver) {
  Machine machine(MachineConfig::Ppc604(185));
  machine.attr().SetEnabled(true);
  machine.Trace(TraceEvent::kSyscall, 1);
  machine.RecordLatency(LatencyProbe::kPageFault, Cycles(0));
  machine.attr().SetEnabled(false);
  // The ring's storage stays allocated, but nothing is appended or sampled while off.
  machine.Trace(TraceEvent::kSyscall, 2);
  machine.RecordLatency(LatencyProbe::kPageFault, Cycles(0));
  machine.RecordHashMiss(3);
  {
    CycleScope scope(machine, AttrCause::kPipe);
    machine.AddCycles(Cycles(4));
  }
  ASSERT_EQ(machine.attr().Records().size(), 1u);
  EXPECT_EQ(machine.attr().Records()[0].a, 1u);
  EXPECT_EQ(machine.probes().TotalRecorded(), 1u);
  EXPECT_TRUE(machine.probes().hash_miss_per_pteg().empty());
  EXPECT_EQ(machine.attr().TotalAttributed(), 0u);
  machine.attr().SetEnabled(true);
  machine.Trace(TraceEvent::kSyscall, 3);
  EXPECT_EQ(machine.attr().TotalRecorded(), 2u);
}

TEST(TraceIntegrationTest, KernelActivityProducesTheExpectedStream) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::OnlyLazyFlush(20));
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  kernel.NullSyscall();
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);  // fault + tlb misses
  kernel.SwitchTo(b);
  const uint32_t start = kernel.Mmap(40);
  for (uint32_t i = 0; i < 40; ++i) {
    kernel.UserTouch(EffAddr::FromPage(start + i), AccessKind::kStore);
  }
  kernel.Munmap(start, 40);  // above the cutoff: a context flush
  kernel.RunIdle(Cycles(5000));

  // The whole run fits in the ring, so the counts below are exact.
  ASSERT_LE(sys.machine().attr().TotalRecorded(), CycleLedger::kRingCapacity);
  const std::vector<TraceRecord> records = sys.machine().attr().Records();
  EXPECT_GT(CountOf(records, TraceEvent::kSyscall), 0u);
  EXPECT_GT(CountOf(records, TraceEvent::kPageFault), 40u);
  EXPECT_GT(CountOf(records, TraceEvent::kTlbMiss), 40u);
  EXPECT_GE(CountOf(records, TraceEvent::kContextSwitch), 2u);
  EXPECT_GE(CountOf(records, TraceEvent::kFlushContext), 1u);
  EXPECT_GE(CountOf(records, TraceEvent::kIdleSlice), 1u);
  // Cycle stamps are monotonic. A switch is stamped with the outgoing task where it
  // starts and with the incoming task where its scope closes.
  size_t switch_closes = 0;
  uint32_t incoming = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (i > 0) {
      EXPECT_LE(records[i - 1].cycle, r.cycle);
    }
    if (!r.is_scope() && r.event == TraceEvent::kContextSwitch) {
      EXPECT_EQ(r.task, r.a);
      incoming = r.b;
    }
    if (r.is_scope() && r.cause == AttrCause::kContextSwitch) {
      ++switch_closes;
      EXPECT_EQ(r.task, incoming);
    }
  }
  EXPECT_EQ(switch_closes, CountOf(records, TraceEvent::kContextSwitch));
}

TEST(TraceIntegrationTest, DeferredDirtySchemeTracesUpdates) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId t = kernel.CreateTask("t");
  kernel.Exec(t, ExecImage{});
  kernel.SwitchTo(t);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kLoad);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  EXPECT_GE(CountOf(sys.machine().attr().Records(), TraceEvent::kDirtyBitUpdate), 1u);
}

}  // namespace
}  // namespace ppcmm
