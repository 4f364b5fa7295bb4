#include "src/pagetable/page_table.h"

#include <bit>

#include "src/sim/check.h"

namespace ppcmm {

namespace {

// PGD entries: PTE-page frame in the high 20 bits, present in bit 0.
constexpr uint32_t kPgdPresentBit = 1u << 0;

uint64_t Bit(uint32_t index) { return uint64_t{1} << (index % 64); }

template <size_t N>
bool TestBit(const std::array<uint64_t, N>& words, uint32_t index) {
  return (words[index / 64] & Bit(index)) != 0;
}

// Calls `fn(index)` for every set bit of `words`, in ascending order.
template <size_t N, typename Fn>
void ForEachSetBit(const std::array<uint64_t, N>& words, Fn&& fn) {
  for (uint32_t w = 0; w < N; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<uint32_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

PageTable::PageTable(PageAllocator& allocator, PhysicalMemory& memory)
    : allocator_(allocator), memory_(memory) {
  const std::optional<uint32_t> frame = allocator_.Alloc();
  if (!frame.has_value()) {
    throw OutOfMemoryError("out of memory allocating a PGD frame");
  }
  pgd_frame_ = *frame;
  memory_.ZeroFrame(pgd_frame_);
}

PageTable::~PageTable() {
  ForEachSetBit(populated_, [&](uint32_t g) { allocator_.DecRef(*PtePageFrame(g)); });
  allocator_.DecRef(pgd_frame_);
}

std::optional<uint32_t> PageTable::PtePageFrame(uint32_t pgd_index) const {
  const uint32_t word = memory_.Read32(PgdEntryAddr(pgd_index));
  if ((word & kPgdPresentBit) == 0) {
    return std::nullopt;
  }
  return word >> 12;
}

std::optional<LinuxPte> PageTable::Lookup(EffAddr ea, MemCharger& charger) const {
  charger.Charge(PgdEntryAddr(PgdIndex(ea)), /*is_write=*/false);
  const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  if (!pte_frame.has_value()) {
    return std::nullopt;
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  charger.Charge(slot, /*is_write=*/false);
  return LinuxPte::Decode(memory_.Read32(slot));
}

std::optional<LinuxPte> PageTable::LookupQuiet(EffAddr ea) const {
  NullMemCharger null_charger;
  return Lookup(ea, null_charger);
}

void PageTable::Map(EffAddr ea, const LinuxPte& pte, MemCharger* charger) {
  PPCMM_CHECK_MSG(pte.present, "Map requires a present PTE; use Unmap to clear");
  const uint32_t g = PgdIndex(ea);
  std::optional<uint32_t> pte_frame = PtePageFrame(g);
  if (!pte_frame.has_value()) {
    const std::optional<uint32_t> fresh = allocator_.Alloc();
    if (!fresh.has_value()) {
      throw OutOfMemoryError("out of memory allocating a PTE page");
    }
    memory_.ZeroFrame(*fresh);
    memory_.Write32(PgdEntryAddr(g), (*fresh << 12) | kPgdPresentBit);
    if (charger != nullptr) {
      charger->Charge(PgdEntryAddr(g), /*is_write=*/true);
    }
    pte_frame = fresh;
    // A PTE page is never released before the table, so its slot in the index is final.
    present_bits_.emplace_back();
    bits_slot_[g] = static_cast<uint16_t>(present_bits_.size());
    populated_[g / 64] |= Bit(g);
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  const LinuxPte old = LinuxPte::Decode(memory_.Read32(slot));
  if (!old.present) {
    PresentBits(g)[PteIndex(ea) / 64] |= Bit(PteIndex(ea));
  }
  memory_.Write32(slot, pte.Encode());
  if (charger != nullptr) {
    charger->Charge(slot, /*is_write=*/true);
  }
}

std::optional<LinuxPte> PageTable::Unmap(EffAddr ea, MemCharger* charger) {
  const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  if (!pte_frame.has_value()) {
    return std::nullopt;
  }
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  const LinuxPte old = LinuxPte::Decode(memory_.Read32(slot));
  if (!old.present) {
    return std::nullopt;
  }
  memory_.Write32(slot, 0);
  if (charger != nullptr) {
    charger->Charge(slot, /*is_write=*/true);
  }
  PresentBits(PgdIndex(ea))[PteIndex(ea) / 64] &= ~Bit(PteIndex(ea));
  return old;
}

void PageTable::Update(EffAddr ea, const std::function<void(LinuxPte&)>& update,
                       MemCharger* charger) {
  const std::optional<uint32_t> pte_frame = PtePageFrame(PgdIndex(ea));
  PPCMM_CHECK_MSG(pte_frame.has_value(), "Update on unmapped region 0x" << std::hex << ea.value);
  const PhysAddr slot = PteEntryAddr(*pte_frame, PteIndex(ea));
  LinuxPte pte = LinuxPte::Decode(memory_.Read32(slot));
  PPCMM_CHECK_MSG(pte.present, "Update on non-present PTE at 0x" << std::hex << ea.value);
  update(pte);
  PPCMM_CHECK_MSG(pte.present, "Update must not clear the present bit; use Unmap");
  memory_.Write32(slot, pte.Encode());
  if (charger != nullptr) {
    charger->Charge(slot, /*is_write=*/true);
  }
}

void PageTable::ForEachPresent(const std::function<void(EffAddr, const LinuxPte&)>& fn) const {
  ForEachSetBit(populated_, [&](uint32_t g) {
    const uint32_t pte_frame = *PtePageFrame(g);
    ForEachSetBit(PresentBits(g), [&](uint32_t i) {
      const EffAddr ea((g << kPgdShift) | (i << kPageShift));
      const LinuxPte pte = LinuxPte::Decode(memory_.Read32(PteEntryAddr(pte_frame, i)));
      PPCMM_CHECK_MSG(pte.present, "index lists a non-present PTE at 0x" << std::hex << ea.value);
      fn(ea, pte);
    });
  });
}

uint32_t PageTable::PresentCount() const {
  uint32_t count = 0;
  for (const EntryBits& bits : present_bits_) {
    for (const uint64_t word : bits) {
      count += static_cast<uint32_t>(std::popcount(word));
    }
  }
  return count;
}

std::optional<PageTable::IndexMismatch> PageTable::CheckPresentIndex() const {
  for (uint32_t g = 0; g < kPgdEntries; ++g) {
    const std::optional<uint32_t> pte_frame = PtePageFrame(g);
    const bool populated = TestBit(populated_, g);
    if (pte_frame.has_value() != populated) {
      return IndexMismatch{EffAddr(g << kPgdShift), pte_frame.has_value(), populated};
    }
    if (!pte_frame.has_value()) {
      continue;
    }
    for (uint32_t i = 0; i < kPteEntriesPerPage; ++i) {
      const bool present = LinuxPte::Decode(memory_.Read32(PteEntryAddr(*pte_frame, i))).present;
      const bool indexed = TestBit(PresentBits(g), i);
      if (present != indexed) {
        return IndexMismatch{EffAddr((g << kPgdShift) | (i << kPageShift)), present, indexed};
      }
    }
  }
  return std::nullopt;
}

}  // namespace ppcmm
