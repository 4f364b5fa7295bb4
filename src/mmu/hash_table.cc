#include "src/mmu/hash_table.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

// The first slot of `pteg` satisfying `pred`, or kPtesPerPteg when none does. Found on the
// host first, so the probe's charged reads can go out as one run.
template <typename Pteg, typename Pred>
uint32_t FirstSlot(const Pteg& pteg, Pred pred) {
  for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
    if (pred(pteg[s])) {
      return s;
    }
  }
  return kPtesPerPteg;
}

// The 19 low-order VSID bits participate in the architected primary hash.
constexpr uint32_t kHashVsidMask = 0x7FFFF;

}  // namespace

HashTable::HashTable(uint32_t num_ptegs, PhysAddr base)
    : ptegs_(num_ptegs), base_(base), hash_mask_(num_ptegs - 1) {
  PPCMM_CHECK_MSG(IsPowerOfTwo(num_ptegs), "HTAB PTEG count must be a power of two");
}

uint32_t HashTable::PrimaryPteg(VirtPage vp) const {
  return ((vp.vsid.value & kHashVsidMask) ^ vp.page_index) & hash_mask_;
}

uint32_t HashTable::SecondaryPteg(VirtPage vp) const {
  return (~((vp.vsid.value & kHashVsidMask) ^ vp.page_index)) & hash_mask_;
}

PhysAddr HashTable::SlotAddr(uint32_t pteg, uint32_t slot) const {
  PPCMM_CHECK(pteg < num_ptegs() && slot < kPtesPerPteg);
  return base_ + (pteg * kPtesPerPteg + slot) * kPteBytes;
}

HtabSearchResult HashTable::Search(VirtPage vp, MemCharger& charger) const {
  HtabSearchResult result;
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(ptegs_[g], [&](const HashedPte& p) { return p.Matches(vp); });
    result.memory_refs += ChargeProbe(g, s, charger);
    if (s < kPtesPerPteg) {
      result.found = true;
      result.pte = ptegs_[g][s];
      return result;
    }
  }
  return result;
}

HtabInsertOutcome HashTable::Insert(const HashedPte& pte, const VsidOracle& oracle,
                                    MemCharger& charger) {
  PPCMM_CHECK_MSG(pte.valid, "inserting an invalid PTE makes no sense");
  const uint32_t groups[2] = {PrimaryPteg(pte.virt_page()), SecondaryPteg(pte.virt_page())};

  // Pass 1: look for a free slot, charging a read per probe (the reload code examines each
  // candidate slot's valid bit).
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(ptegs_[g], [](const HashedPte& p) { return !p.valid; });
    ChargeProbe(g, s, charger);
    if (s < kPtesPerPteg) {
      ptegs_[g][s] = pte;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return HtabInsertOutcome::kFreeSlot;
    }
  }

  // Both PTEGs full: replace an arbitrary candidate (round-robin over the 16 slots), exactly
  // the paper's non-optimal replacement that does not distinguish live PTEs from zombies.
  const uint32_t pick = replace_cursor_++ % (2 * kPtesPerPteg);
  const uint32_t g = groups[pick / kPtesPerPteg];
  const uint32_t s = pick % kPtesPerPteg;
  const bool victim_live = oracle.IsLive(ptegs_[g][s].vsid);
  ptegs_[g][s] = pte;
  charger.Charge(SlotAddr(g, s), /*is_write=*/true);
  return victim_live ? HtabInsertOutcome::kReplacedLive : HtabInsertOutcome::kReplacedZombie;
}

std::optional<HashedPte> HashTable::InvalidatePage(VirtPage vp, MemCharger& charger) {
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(ptegs_[g], [&](const HashedPte& p) { return p.Matches(vp); });
    ChargeProbe(g, s, charger);
    if (s < kPtesPerPteg) {
      const HashedPte old = ptegs_[g][s];
      ptegs_[g][s].valid = false;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return old;
    }
  }
  return std::nullopt;
}

bool HashTable::MarkChanged(VirtPage vp, MemCharger& charger) {
  const uint32_t groups[2] = {PrimaryPteg(vp), SecondaryPteg(vp)};
  for (uint32_t g : groups) {
    const uint32_t s = FirstSlot(ptegs_[g], [&](const HashedPte& p) { return p.Matches(vp); });
    ChargeProbe(g, s, charger);
    if (s < kPtesPerPteg) {
      ptegs_[g][s].changed = true;
      charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      return true;
    }
  }
  return false;
}

uint32_t HashTable::ChargeProbe(uint32_t pteg, uint32_t slot, MemCharger& charger) const {
  const uint32_t probed = std::min(slot + 1, kPtesPerPteg);
  charger.ChargeRun(SlotAddr(pteg, 0), kPteBytes, probed, /*is_write=*/false);
  return probed;
}

uint32_t HashTable::InvalidateMatching(const std::function<bool(const HashedPte&)>& pred,
                                       MemCharger* charger) {
  uint32_t cleared = 0;
  for (uint32_t g = 0; g < num_ptegs(); ++g) {
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      if (charger != nullptr) {
        charger->Charge(SlotAddr(g, s), /*is_write=*/false);
      }
      HashedPte& pte = ptegs_[g][s];
      if (pte.valid && pred(pte)) {
        pte.valid = false;
        ++cleared;
        if (charger != nullptr) {
          charger->Charge(SlotAddr(g, s), /*is_write=*/true);
        }
      }
    }
  }
  return cleared;
}

uint32_t HashTable::InvalidatePteg(uint32_t pteg, MemCharger* charger) {
  PPCMM_CHECK(pteg < num_ptegs());
  uint32_t cleared = 0;
  for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
    HashedPte& pte = ptegs_[pteg][s];
    if (pte.valid) {
      pte.valid = false;
      ++cleared;
      if (charger != nullptr) {
        charger->Charge(SlotAddr(pteg, s), /*is_write=*/true);
      }
    }
  }
  return cleared;
}

uint32_t HashTable::ReclaimZombies(uint32_t max_ptegs, const VsidOracle& oracle,
                                   MemCharger& charger) {
  uint32_t reclaimed = 0;
  const uint32_t limit = std::min(max_ptegs, num_ptegs());
  // Slot reads are charged as runs over consecutive slots. A run is cut at each zombie, so
  // its invalidating write lands right after its read, and where the cursor wraps, so a
  // run's addresses only increase. `run_first` is the flat index of the first slot read
  // but not yet charged.
  uint32_t run_first = reclaim_cursor_ * kPtesPerPteg;
  auto charge_reads_before = [&](uint32_t end) {
    if (end > run_first) {
      charger.ChargeRun(base_ + run_first * kPteBytes, kPteBytes, end - run_first,
                        /*is_write=*/false);
    }
    run_first = end;
  };
  for (uint32_t i = 0; i < limit; ++i) {
    const uint32_t g = reclaim_cursor_;
    reclaim_cursor_ = (reclaim_cursor_ + 1) & hash_mask_;
    for (uint32_t s = 0; s < kPtesPerPteg; ++s) {
      HashedPte& pte = ptegs_[g][s];
      if (pte.valid && !oracle.IsLive(pte.vsid)) {
        pte.valid = false;
        ++reclaimed;
        charge_reads_before(g * kPtesPerPteg + s + 1);
        charger.Charge(SlotAddr(g, s), /*is_write=*/true);
      }
    }
    if (reclaim_cursor_ == 0) {
      charge_reads_before(capacity());
      run_first = 0;
    }
  }
  charge_reads_before(reclaim_cursor_ * kPtesPerPteg);
  return reclaimed;
}

uint32_t HashTable::ValidCount() const {
  uint32_t count = 0;
  for (const Pteg& pteg : ptegs_) {
    for (const HashedPte& pte : pteg) {
      if (pte.valid) {
        ++count;
      }
    }
  }
  return count;
}

uint32_t HashTable::LiveCount(const VsidOracle& oracle) const {
  uint32_t count = 0;
  for (const Pteg& pteg : ptegs_) {
    for (const HashedPte& pte : pteg) {
      if (pte.valid && oracle.IsLive(pte.vsid)) {
        ++count;
      }
    }
  }
  return count;
}

std::array<uint32_t, kPtesPerPteg + 1> HashTable::OccupancyHistogram() const {
  std::array<uint32_t, kPtesPerPteg + 1> histogram{};
  for (const Pteg& pteg : ptegs_) {
    uint32_t occupied = 0;
    for (const HashedPte& pte : pteg) {
      if (pte.valid) {
        ++occupied;
      }
    }
    ++histogram[occupied];
  }
  return histogram;
}

double HashTable::Utilization() const {
  return static_cast<double>(ValidCount()) / static_cast<double>(capacity());
}

const HashedPte& HashTable::At(uint32_t pteg, uint32_t slot) const {
  PPCMM_CHECK(pteg < num_ptegs() && slot < kPtesPerPteg);
  return ptegs_[pteg][slot];
}

void HashTable::Clear() {
  for (Pteg& pteg : ptegs_) {
    pteg.fill(HashedPte{});
  }
  replace_cursor_ = 0;
  reclaim_cursor_ = 0;
}

}  // namespace ppcmm
