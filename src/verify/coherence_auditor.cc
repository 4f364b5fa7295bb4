#include "src/verify/coherence_auditor.h"

#include <sstream>
#include <string>
#include <map>

#include "src/sim/check.h"

namespace ppcmm {
namespace {

// Who a live VSID belongs to: the authoritative PTE tree plus enough identity to report.
struct Owner {
  PageTable* table = nullptr;
  uint32_t segment = 0;  // segment register index this VSID is loaded into (0..15)
  uint32_t task_id = 0;  // 0 for the kernel
  bool is_kernel = false;
};

[[noreturn]] void Violation(const std::string& tier, Vsid vsid, uint32_t page_index,
                            const std::string& expected, const std::string& found,
                            const std::string& context) {
  std::ostringstream os;
  os << "CoherenceAuditor violation: tier=" << tier << " vsid=0x" << std::hex << vsid.value
     << " page_index=0x" << page_index << std::dec << " expected=" << expected
     << " found=" << found;
  if (!context.empty()) {
    os << " (" << context << ")";
  }
  throw CheckFailure(os.str());
}

std::string OwnerDesc(const Owner& owner) {
  std::ostringstream os;
  if (owner.is_kernel) {
    os << "kernel, segment " << owner.segment;
  } else {
    os << "task " << owner.task_id << ", segment " << owner.segment;
  }
  return os.str();
}

}  // namespace

void CoherenceAuditor::Audit() {
  ++stats_.audits;
  VsidSpace& vsids = kernel_.vsids();

  // ---- build the reverse map: live VSID -> owning PTE tree ----
  std::map<uint32_t, Owner> owners;
  for (uint32_t seg = kFirstKernelSegment; seg < kNumSegments; ++seg) {
    owners[VsidSpace::KernelVsid(seg).value] =
        Owner{&kernel_.kernel_page_table(), seg, 0, /*is_kernel=*/true};
  }
  kernel_.ForEachTask([&](Task& task) {
    if (task.mm == nullptr) {
      return;
    }
    const ContextId ctx = task.mm->context;
    if (!vsids.ContextLive(ctx)) {
      Violation("TASK", vsids.UserVsid(ctx, 0), 0, "a live context",
                "retired context " + std::to_string(ctx.value),
                "task " + std::to_string(task.id.value));
    }
    for (uint32_t seg = 0; seg < kFirstKernelSegment; ++seg) {
      const Vsid vsid = vsids.UserVsid(ctx, seg);
      const auto [it, fresh] = owners.emplace(
          vsid.value, Owner{task.mm->page_table.get(), seg, task.id.value, false});
      if (!fresh) {
        Violation("VSID", vsid, 0, "one owner per VSID",
                  "shared by " + OwnerDesc(it->second) + " and task " +
                      std::to_string(task.id.value),
                  "VSID collision between live owners");
      }
    }
  });

  // Checks one cached translation (TLB or HTAB flavor) against the owner's Linux PTE tree.
  // Returns false when the VSID is dead (a zombie: unreachable by construction, never an
  // error); throws on any disagreement with the authoritative tree.
  const auto check_against_owner = [&](const std::string& tier, Vsid vsid, uint32_t page_index,
                                       uint32_t frame, bool writable, bool cache_inhibited,
                                       bool changed) {
    const auto it = owners.find(vsid.value);
    if (it == owners.end()) {
      if (vsids.IsLive(vsid)) {
        Violation(tier, vsid, page_index, "every live VSID to have an owning context",
                  "live VSID owned by no task and no kernel segment", "");
      }
      return false;  // zombie
    }
    const Owner& owner = it->second;
    const EffAddr ea = EffAddr::FromPage((owner.segment << kPageIndexBits) | page_index);
    const std::optional<LinuxPte> pte = owner.table->LookupQuiet(ea);
    if (!pte.has_value() || !pte->present) {
      Violation(tier, vsid, page_index, "a present Linux PTE backing the cached translation",
                "no present PTE (stale translation survived a flush)", OwnerDesc(owner));
    }
    if (pte->frame != frame) {
      Violation(tier, vsid, page_index, "frame 0x" + std::to_string(pte->frame),
                "frame 0x" + std::to_string(frame), OwnerDesc(owner));
    }
    if (pte->writable != writable) {
      Violation(tier, vsid, page_index,
                std::string("writable=") + (pte->writable ? "1" : "0"),
                std::string("writable=") + (writable ? "1" : "0"), OwnerDesc(owner));
    }
    if (pte->cache_inhibited != cache_inhibited) {
      Violation(tier, vsid, page_index,
                std::string("cache_inhibited=") + (pte->cache_inhibited ? "1" : "0"),
                std::string("cache_inhibited=") + (cache_inhibited ? "1" : "0"),
                OwnerDesc(owner));
    }
    // Dirty information must never be lost: a C bit in a cached user translation without the
    // Linux dirty bit would vanish at the next eviction. (Kernel linear-map PTEs do not
    // track dirtiness — nothing consumes it — so the invariant is user-only.)
    if (!owner.is_kernel && changed && !pte->dirty) {
      Violation(tier, vsid, page_index, "Linux dirty bit set wherever the C bit is set",
                "changed=1 with dirty=0 (dirty bit would be lost)", OwnerDesc(owner));
    }
    return true;
  };

  // ---- TLBs: every CPU's, under the cross-CPU staleness rule ----
  // A completed shootdown must have left no stale entry anywhere, so every CPU's TLB is
  // held to the same invariants as the local one. The one exemption is a CPU still owing a
  // deferred flush (it was idle when the shootdown ran): its whole TLB is logically invalid
  // and is wiped before anything runs there, so its entries are counted, not checked.
  const auto check_tlb = [&](Tlb& tlb, const std::string& tier, bool flush_pending) {
    tlb.ForEachValid([&](const TlbEntry& entry) {
      if (flush_pending) {
        ++stats_.tlb_stale_tolerated;
        return;
      }
      ++stats_.tlb_entries_checked;
      const auto it = owners.find(entry.vsid.value);
      if (it != owners.end() && it->second.is_kernel != entry.is_kernel) {
        Violation(tier, entry.vsid, entry.page_index,
                  std::string("is_kernel=") + (it->second.is_kernel ? "1" : "0"),
                  std::string("is_kernel=") + (entry.is_kernel ? "1" : "0"),
                  OwnerDesc(it->second));
      }
      if (!check_against_owner(tier, entry.vsid, entry.page_index, entry.frame, entry.writable,
                               entry.cache_inhibited, entry.changed)) {
        ++stats_.tlb_zombies_seen;
      }
    });
  };
  for (uint32_t cpu = 0; cpu < kernel_.ncpus(); ++cpu) {
    const bool flush_pending = kernel_.FlushPendingOn(cpu);
    const std::string at = cpu == 0 ? "" : ",cpu" + std::to_string(cpu);
    check_tlb(kernel_.mmu().itlb(cpu), "TLB(itlb" + at + ")", flush_pending);
    check_tlb(kernel_.mmu().dtlb(cpu), "TLB(dtlb" + at + ")", flush_pending);
  }

  // ---- HTAB ----
  if (kernel_.mmu().policy().UsesHtab()) {
    const HashTable& htab = kernel_.mmu().htab();
    for (uint32_t pteg = 0; pteg < htab.num_ptegs(); ++pteg) {
      for (uint32_t slot = 0; slot < kPtesPerPteg; ++slot) {
        const HashedPte& pte = htab.At(pteg, slot);
        if (!pte.valid) {
          continue;
        }
        ++stats_.htab_entries_checked;
        const VirtPage vp = pte.virt_page();
        if (pteg != htab.PrimaryPteg(vp) && pteg != htab.SecondaryPteg(vp)) {
          Violation("HTAB", pte.vsid, pte.page_index,
                    "entry in its primary or secondary PTEG",
                    "entry in unrelated PTEG " + std::to_string(pteg),
                    "hash placement invariant");
        }
        if (!check_against_owner("HTAB", pte.vsid, pte.page_index, pte.rpn, pte.writable,
                                 pte.cache_inhibited, pte.changed)) {
          ++stats_.htab_zombies_seen;
        }
      }
    }
  }

  // ---- segment registers: every CPU's, against that CPU's current task ----
  for (uint32_t cpu = 0; cpu < kernel_.ncpus(); ++cpu) {
    SegmentRegs& regs = kernel_.mmu().segments(cpu);
    for (uint32_t seg = kFirstKernelSegment; seg < kNumSegments; ++seg) {
      if (regs.Get(seg) != VsidSpace::KernelVsid(seg)) {
        Violation("SEGREG", regs.Get(seg), seg, "fixed kernel VSID in segment register",
                  "non-kernel VSID loaded",
                  "cpu " + std::to_string(cpu) + ", segment " + std::to_string(seg));
      }
    }
    const TaskId on_cpu = kernel_.CurrentOn(cpu);
    if (on_cpu.value != 0) {
      Task& current = kernel_.task(on_cpu);
      if (current.mm != nullptr) {
        const auto image = vsids.SegmentImage(current.mm->context);
        for (uint32_t seg = 0; seg < kNumSegments; ++seg) {
          if (regs.Get(seg) != image[seg]) {
            Violation("SEGREG", regs.Get(seg), seg,
                      "current task's VSID image (vsid 0x" +
                          std::to_string(image[seg].value) + ")",
                      "a different VSID loaded",
                      "cpu " + std::to_string(cpu) + ", task " +
                          std::to_string(current.id.value) + ", segment " +
                          std::to_string(seg));
          }
        }
      }
    }
  }

  // ---- present-entry indexes: each tree's index against a full scan of the tree ----
  // The frame check below walks the trees through their indexes, so the indexes are held
  // to the tree in simulated memory first.
  const auto check_index = [&](const PageTable& table, const std::string& owner) {
    const std::optional<PageTable::IndexMismatch> mismatch = table.CheckPresentIndex();
    if (mismatch.has_value()) {
      Violation("INDEX", Vsid(0), mismatch->ea.EffPageNumber(),
                std::string("present-entry index to match the PTE tree (tree present=") +
                    (mismatch->in_tree ? "1" : "0") + ")",
                std::string("index present=") + (mismatch->in_index ? "1" : "0"), owner);
    }
  };
  check_index(kernel_.kernel_page_table(), "kernel");
  kernel_.ForEachTask([&](Task& task) {
    if (task.mm != nullptr) {
      check_index(*task.mm->page_table, "task " + std::to_string(task.id.value));
    }
  });

  // ---- frames: every user mapping sits on an allocated frame with enough references ----
  PageAllocator& allocator = kernel_.allocator();
  const uint32_t arena_begin = allocator.first_frame();
  const uint32_t arena_end = arena_begin + allocator.TotalCount();
  // Ordered: violation messages are emitted in iteration order and must be
  // reproducible run to run.
  std::map<uint32_t, uint32_t> mappings_per_frame;
  kernel_.ForEachTask([&](Task& task) {
    if (task.mm == nullptr) {
      return;
    }
    task.mm->page_table->ForEachPresent([&](EffAddr ea, const LinuxPte& pte) {
      ++stats_.pte_mappings_checked;
      if (kernel_.IsIoFrame(pte.frame)) {
        return;  // aperture frames are not allocator-owned
      }
      if (pte.frame < arena_begin || pte.frame >= arena_end) {
        Violation("FRAME", Vsid(0), ea.EffPageNumber(), "user frame inside the allocator arena",
                  "frame 0x" + std::to_string(pte.frame) + " outside it",
                  "task " + std::to_string(task.id.value));
      }
      if (!allocator.IsAllocated(pte.frame)) {
        Violation("FRAME", Vsid(0), ea.EffPageNumber(), "mapped frame to be allocated",
                  "frame 0x" + std::to_string(pte.frame) + " is on the free list",
                  "task " + std::to_string(task.id.value));
      }
      ++mappings_per_frame[pte.frame];
    });
  });
  for (const auto& [frame, count] : mappings_per_frame) {
    if (allocator.RefCount(frame) < count) {
      Violation("FRAME", Vsid(0), frame, std::to_string(count) + "+ references",
                "refcount " + std::to_string(allocator.RefCount(frame)) + " below " +
                    std::to_string(count) + " user mappings",
                "per-frame reference audit");
    }
  }
}

}  // namespace ppcmm
