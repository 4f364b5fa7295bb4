// Cross-checks the three translation tiers the paper's optimizations play against each
// other: the TLBs, the hashed page table, and the per-task Linux PTE trees.
//
// The lazy-flush machinery (§7) is correct only under invariants no single tier can state
// alone: a retired VSID must be unreachable everywhere, a live translation must agree with
// the owning task's PTE tree, and a changed (C) bit must never exist without the matching
// Linux dirty bit. The auditor walks all tiers and throws CheckFailure with a structured
// report (tier, VSID, page, expected vs. found) on the first violation.
//
// Invariants checked, per Audit():
//   1. Every valid TLB entry with a live VSID has an owner (kernel or a task) whose PTE tree
//      maps the page to the same frame with the same writable/cache-inhibited bits.
//   2. A TLB entry's C (changed) bit implies the Linux PTE's dirty bit (dirty never lost).
//   3. Every valid TLB/HTAB entry with a dead VSID is a zombie: unreachable because no live
//      context or kernel segment resolves to that VSID (counted, never an error).
//   4. Same as 1–2 for every valid HTAB PTE, plus hash placement: the entry sits in its
//      primary or secondary PTEG.
//   5. Every CPU's segment registers hold exactly that CPU's current task's VSID image
//      (kernel VSIDs fixed on all CPUs).
//   6. Every task's context is live, and no two live contexts share a VSID.
//   7. Every frame mapped by a user PTE is allocator-owned with refcount >= the number of
//      user mappings observed (I/O aperture frames excepted).
//   8. Every PTE tree's present-entry index (kernel and tasks) lists exactly the entries a
//      full scan of the tree in simulated memory finds present (PageTable::CheckPresentIndex).
//
// SMP: invariants 1-3 run against every CPU's I/D TLBs. The cross-CPU staleness rule is
// that no CPU may hold a translation invalidated by a COMPLETED shootdown; a CPU still
// marked flush-pending (its shootdown was deferred because it was idle) is exempt — its
// whole TLB is logically invalid and will be wiped at switch-in, so its entries are
// tolerated and counted rather than checked.

#ifndef PPCMM_SRC_VERIFY_COHERENCE_AUDITOR_H_
#define PPCMM_SRC_VERIFY_COHERENCE_AUDITOR_H_

#include <cstdint>

#include "src/kernel/kernel.h"

namespace ppcmm {

// Running totals across audits (instrumentation, not invariants).
struct AuditStats {
  uint64_t audits = 0;
  uint64_t tlb_entries_checked = 0;
  uint64_t htab_entries_checked = 0;
  uint64_t tlb_zombies_seen = 0;
  // Valid entries skipped on flush-pending CPUs: logically invalid, wiped before next use.
  uint64_t tlb_stale_tolerated = 0;
  uint64_t htab_zombies_seen = 0;
  uint64_t pte_mappings_checked = 0;
};

// The auditor. Holds no state about the kernel beyond a reference; every Audit() rebuilds
// its view from scratch, so it can run at any quiescent point (between kernel operations).
class CoherenceAuditor {
 public:
  explicit CoherenceAuditor(Kernel& kernel) : kernel_(kernel) {}

  // Full cross-tier audit; throws CheckFailure with a structured report on any violation.
  void Audit();

  // Every-N-events mode: NoteEvent() runs Audit() on every `period`-th call (0 = manual).
  void SetPeriod(uint64_t period) { period_ = period; }
  void NoteEvent() {
    if (period_ != 0 && ++events_ % period_ == 0) {
      Audit();
    }
  }

  const AuditStats& stats() const { return stats_; }

 private:
  Kernel& kernel_;
  AuditStats stats_;
  uint64_t period_ = 0;
  uint64_t events_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_COHERENCE_AUDITOR_H_
