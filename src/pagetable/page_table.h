// The Linux two-level page table (PGD → PTE page → frame).
//
// Layout mirrors the classic 32-bit scheme: the PGD is one 4 KB frame of 1024 word-sized
// entries, each pointing at a PTE page that maps 4 MB (1024 × 4 KB). A lookup is therefore
// at most two loads here plus one load of the PGD pointer in the task structure — the
// "three loads in the worst case" of §6.1. Directory frames live in simulated physical
// memory, so walks hit the data cache exactly like the real handler's loads did.
//
// A host-side present-entry index (one bit per populated PGD slot, one bit per present
// entry of each PTE page) lets ForEachPresent and the destructor visit only what is mapped
// instead of scanning the 4 GB tree. It is never charged and holds no PTE contents: only
// Map (a fresh entry) and Unmap flip presence, and every visit decodes the entry from
// simulated memory. CheckPresentIndex is the full-tree scan it replaces, kept as the
// reference the coherence auditor holds the index to.

#ifndef PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_
#define PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/addr.h"
#include "src/sim/mem_charge.h"
#include "src/pagetable/linux_pte.h"
#include "src/pagetable/page_allocator.h"
#include "src/sim/memory.h"

namespace ppcmm {

inline constexpr uint32_t kPgdEntries = 1024;
inline constexpr uint32_t kPteEntriesPerPage = 1024;
inline constexpr uint32_t kPgdShift = 22;

// One address space's two-level tree.
class PageTable {
 public:
  // Allocates the PGD frame from `allocator`; directory storage lives in `memory`.
  PageTable(PageAllocator& allocator, PhysicalMemory& memory);
  // Releases the PGD and all PTE pages (leaf frames are the owner's responsibility).
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Walks the tree for `ea`, charging one load per level touched. Returns the decoded leaf
  // entry (present or not) or nullopt when no PTE page exists for the region.
  std::optional<LinuxPte> Lookup(EffAddr ea, MemCharger& charger) const;

  // Uncharged lookup for kernel bookkeeping and tests.
  std::optional<LinuxPte> LookupQuiet(EffAddr ea) const;

  // Installs (or replaces) the leaf entry for `ea`, allocating the PTE page on demand.
  // Charges the directory stores through `charger` when provided.
  void Map(EffAddr ea, const LinuxPte& pte, MemCharger* charger = nullptr);

  // Clears the leaf entry; returns the previous entry if it was present.
  std::optional<LinuxPte> Unmap(EffAddr ea, MemCharger* charger = nullptr);

  // Rewrites the leaf entry for `ea` through `update`; the entry must exist and be present.
  void Update(EffAddr ea, const std::function<void(LinuxPte&)>& update,
              MemCharger* charger = nullptr);

  // Invokes `fn` for every present leaf entry in ascending EA order (functional iteration;
  // nothing is charged).
  void ForEachPresent(const std::function<void(EffAddr, const LinuxPte&)>& fn) const;

  // Number of present leaf entries.
  uint32_t PresentCount() const;

  // The first place where the present-entry index and the tree in simulated memory
  // disagree, found by scanning every PGD word and every word of each PTE page.
  struct IndexMismatch {
    EffAddr ea;     // the entry; for a PGD slot, the first address of its 4 MB region
    bool in_tree;   // present (a populated PGD slot) in simulated memory
    bool in_index;  // present (a populated PGD slot) in the index
  };
  std::optional<IndexMismatch> CheckPresentIndex() const;

  uint32_t pgd_frame() const { return pgd_frame_; }

 private:
  static uint32_t PgdIndex(EffAddr ea) { return ea.value >> kPgdShift; }
  static uint32_t PteIndex(EffAddr ea) { return (ea.value >> kPageShift) & (kPteEntriesPerPage - 1); }
  PhysAddr PgdEntryAddr(uint32_t index) const {
    return PhysAddr::FromFrame(pgd_frame_, index * 4);
  }
  static PhysAddr PteEntryAddr(uint32_t pte_frame, uint32_t index) {
    return PhysAddr::FromFrame(pte_frame, index * 4);
  }
  // Reads the PGD entry; returns the PTE-page frame or nullopt if absent.
  std::optional<uint32_t> PtePageFrame(uint32_t pgd_index) const;

  // One bit per entry of a PTE page, set while the entry is present.
  using EntryBits = std::array<uint64_t, kPteEntriesPerPage / 64>;
  EntryBits& PresentBits(uint32_t pgd_index) { return present_bits_[bits_slot_[pgd_index] - 1]; }
  const EntryBits& PresentBits(uint32_t pgd_index) const {
    return present_bits_[bits_slot_[pgd_index] - 1];
  }

  PageAllocator& allocator_;
  PhysicalMemory& memory_;
  uint32_t pgd_frame_ = 0;
  // The present-entry index. `populated_` has a bit per PGD slot that has a PTE page;
  // `bits_slot_[g]` is 1 + the position of slot g's bits in `present_bits_` (0: none).
  std::array<uint64_t, kPgdEntries / 64> populated_{};
  std::array<uint16_t, kPgdEntries> bits_slot_{};
  std::vector<EntryBits> present_bits_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_PAGETABLE_PAGE_TABLE_H_
