// Coherence auditor tests: clean bills of health across configurations, zombies tolerated,
// and deliberate corruption of each audited invariant caught with a structured report.

#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/sim/check.h"
#include "src/verify/coherence_auditor.h"

namespace ppcmm {
namespace {

// A small but representative workload: exec, touches, fork + COW writes, mmap/munmap,
// context switches.
void RunWorkload(Kernel& kernel) {
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  for (uint32_t p = 0; p < 8; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
  }
  const TaskId b = kernel.Fork(a);
  kernel.SwitchTo(b);
  for (uint32_t p = 0; p < 8; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize),
                     p % 2 == 0 ? AccessKind::kStore : AccessKind::kLoad);
  }
  const uint32_t start = kernel.Mmap(24);
  for (uint32_t p = 0; p < 24; ++p) {
    kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
  }
  kernel.Munmap(start, 24);
  kernel.SwitchTo(a);
  for (uint32_t p = 0; p < 8; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
  }
  kernel.Exit(b);
  kernel.RunIdle(Cycles(20000));
}

class AuditorConfigs : public ::testing::TestWithParam<int> {
 protected:
  static OptimizationConfig Config() {
    switch (GetParam()) {
      case 0:
        return OptimizationConfig::Baseline();
      case 1:
        return OptimizationConfig::AllOptimizations();
      default:
        return OptimizationConfig::AllPlusUncachedPageTables();
    }
  }
};

TEST_P(AuditorConfigs, CleanAfterWorkloadOn604) {
  System sys(MachineConfig::Ppc604(185), Config());
  CoherenceAuditor auditor(sys.kernel());
  RunWorkload(sys.kernel());
  auditor.Audit();
  EXPECT_GT(auditor.stats().tlb_entries_checked, 0u);
  EXPECT_GT(auditor.stats().htab_entries_checked, 0u);
  EXPECT_GT(auditor.stats().pte_mappings_checked, 0u);
}

TEST_P(AuditorConfigs, CleanAfterWorkloadOn603) {
  System sys(MachineConfig::Ppc603(80), Config());
  CoherenceAuditor auditor(sys.kernel());
  RunWorkload(sys.kernel());
  auditor.Audit();
  EXPECT_GT(auditor.stats().tlb_entries_checked, 0u);
}

TEST_P(AuditorConfigs, CleanAfterWorkloadOn603DirectReload) {
  OptimizationConfig config = Config();
  config.no_htab_direct_reload = true;
  System sys(MachineConfig::Ppc603(80), config);
  CoherenceAuditor auditor(sys.kernel());
  RunWorkload(sys.kernel());
  auditor.Audit();
  EXPECT_EQ(auditor.stats().htab_entries_checked, 0u) << "direct reload uses no HTAB";
}

INSTANTIATE_TEST_SUITE_P(Configs, AuditorConfigs, ::testing::Values(0, 1, 2));

TEST(CoherenceAuditorTest, LazyFlushZombiesAreCountedNotFlagged) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  for (uint32_t p = 0; p < 8; ++p) {
    kernel.UserTouch(EffAddr(kUserDataBase + p * kPageSize), AccessKind::kStore);
  }
  // Exec flushes the context lazily: the old translations become zombies in place.
  kernel.Exec(a, ExecImage{});
  CoherenceAuditor auditor(kernel);
  auditor.Audit();
  EXPECT_GT(auditor.stats().htab_zombies_seen + auditor.stats().tlb_zombies_seen, 0u);
}

TEST(CoherenceAuditorTest, PeriodicModeAuditsEveryNthEvent) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  CoherenceAuditor auditor(sys.kernel());
  auditor.SetPeriod(4);
  for (int i = 0; i < 10; ++i) {
    auditor.NoteEvent();
  }
  EXPECT_EQ(auditor.stats().audits, 2u);
}

// ---- deliberate corruption: every sabotage must be caught with a structured report ----

TEST(CoherenceAuditorTest, CatchesBrokenTlbInvalidateOnMunmap) {
  // Eager flushing with the tlbie sabotaged: munmap clears the HTAB entry and the Linux PTE
  // but leaves the TLB entry live — the classic missing-flush kernel bug.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  const uint32_t start = kernel.Mmap(4);
  for (uint32_t p = 0; p < 4; ++p) {
    kernel.UserTouch(EffAddr::FromPage(start + p), AccessKind::kStore);
  }
  CoherenceAuditor auditor(kernel);
  auditor.Audit();  // clean before the sabotage

  kernel.flusher().TestOnlyBreakTlbInvalidate(true);
  kernel.Munmap(start, 4);
  try {
    auditor.Audit();
    FAIL() << "stale TLB entry not detected";
  } catch (const CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find("CoherenceAuditor violation"), std::string::npos) << what;
    EXPECT_NE(what.find("tier=TLB"), std::string::npos) << what;
    EXPECT_NE(what.find("vsid=0x"), std::string::npos) << what;
  }
}

TEST(CoherenceAuditorTest, CatchesLostDirtyBit) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  const EffAddr ea(kUserDataBase);
  kernel.UserTouch(ea, AccessKind::kStore);  // C bit set in the TLB, dirty in the PTE
  CoherenceAuditor auditor(kernel);
  auditor.Audit();

  // Sabotage: clear the Linux dirty bit behind the MMU's back.
  kernel.task(a).mm->page_table->Update(ea, [](LinuxPte& p) { p.dirty = false; }, nullptr);
  EXPECT_THROW(auditor.Audit(), CheckFailure);
}

TEST(CoherenceAuditorTest, CatchesFrameMismatch) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  const EffAddr ea(kUserDataBase);
  const EffAddr other(kUserDataBase + kPageSize);
  kernel.UserTouch(ea, AccessKind::kStore);
  kernel.UserTouch(other, AccessKind::kStore);
  CoherenceAuditor auditor(kernel);
  auditor.Audit();

  // Sabotage: repoint the first PTE at the second page's frame without any flush.
  const uint32_t hijacked = kernel.task(a).mm->page_table->LookupQuiet(other)->frame;
  kernel.task(a).mm->page_table->Update(ea, [hijacked](LinuxPte& p) { p.frame = hijacked; },
                                        nullptr);
  EXPECT_THROW(auditor.Audit(), CheckFailure);
}

TEST(CoherenceAuditorTest, CatchesStaleWritableAfterSabotagedCow) {
  // Fork write-protects the parent's pages; with the tlbie sabotaged the parent's TLB still
  // says writable while the PTE says read-only — exactly the window a COW bug opens.
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::Baseline());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  CoherenceAuditor auditor(kernel);
  auditor.Audit();

  kernel.flusher().TestOnlyBreakTlbInvalidate(true);
  kernel.Fork(a);
  EXPECT_THROW(auditor.Audit(), CheckFailure);
}

// Where the leaf entry for `ea` lives in simulated memory, found through the PGD word.
PhysAddr PteSlotOf(const PhysicalMemory& memory, const PageTable& table, EffAddr ea) {
  const PhysAddr pgd_entry = PhysAddr::FromFrame(table.pgd_frame(), (ea.value >> kPgdShift) * 4);
  const uint32_t pte_frame = memory.Read32(pgd_entry) >> 12;
  return PhysAddr::FromFrame(pte_frame, ea.EffPageNumber() % kPteEntriesPerPage * 4);
}

TEST(CoherenceAuditorTest, CatchesPresentPteMissingFromTheIndex) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  CoherenceAuditor auditor(kernel);
  auditor.Audit();

  // Sabotage: a present PTE written into the PTE page behind the page table's back, on a
  // frame the task legitimately owns, so only the index disagrees with the tree.
  PhysicalMemory& memory = sys.machine().memory();
  const PageTable& table = *kernel.task(a).mm->page_table;
  const EffAddr hidden(kUserDataBase + 7 * kPageSize);
  ASSERT_FALSE(table.LookupQuiet(hidden)->present);
  const LinuxPte owned = *table.LookupQuiet(EffAddr(kUserDataBase));
  memory.Write32(PteSlotOf(memory, table, hidden), owned.Encode());
  try {
    auditor.Audit();
    FAIL() << "expected an INDEX violation";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tier=INDEX"), std::string::npos) << what;
    EXPECT_NE(what.find("page_index=0x10007"), std::string::npos) << what;
    EXPECT_NE(what.find("tree present=1"), std::string::npos) << what;
    EXPECT_NE(what.find("index present=0"), std::string::npos) << what;
  }
}

TEST(CoherenceAuditorTest, CatchesIndexedPteClearedFromTheTree) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  kernel.Exec(a, ExecImage{});
  kernel.SwitchTo(a);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  // The child inherits the PTE but has never run, so no TLB or HTAB entry caches it.
  const TaskId b = kernel.Fork(a);
  CoherenceAuditor auditor(kernel);
  auditor.Audit();

  // Sabotage: the child's PTE cleared behind the page table's back.
  PhysicalMemory& memory = sys.machine().memory();
  memory.Write32(PteSlotOf(memory, *kernel.task(b).mm->page_table, EffAddr(kUserDataBase)), 0);
  try {
    auditor.Audit();
    FAIL() << "expected an INDEX violation";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tier=INDEX"), std::string::npos) << what;
    EXPECT_NE(what.find("tree present=0"), std::string::npos) << what;
    EXPECT_NE(what.find("index present=1"), std::string::npos) << what;
    EXPECT_NE(what.find("task " + std::to_string(b.value)), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ppcmm
