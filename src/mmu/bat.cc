#include "src/mmu/bat.h"

#include "src/sim/check.h"

namespace ppcmm {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

void BatArray::Set(uint32_t index, const BatEntry& entry) {
  PPCMM_CHECK(index < kNumBats);
  if (entry.valid) {
    PPCMM_CHECK_MSG(IsPowerOfTwo(entry.block_bytes) && entry.block_bytes >= kMinBatBlock,
                    "BAT block size must be a power of two >= 128K, got " << entry.block_bytes);
    PPCMM_CHECK_MSG((entry.eff_base & (entry.block_bytes - 1)) == 0,
                    "BAT effective base not aligned to block size");
    PPCMM_CHECK_MSG((entry.phys_base & (entry.block_bytes - 1)) == 0,
                    "BAT physical base not aligned to block size");
  }
  entries_[index] = entry;
}

void BatArray::Clear(uint32_t index) {
  PPCMM_CHECK(index < kNumBats);
  entries_[index] = BatEntry{};
}

const BatEntry& BatArray::Get(uint32_t index) const {
  PPCMM_CHECK(index < kNumBats);
  return entries_[index];
}

uint32_t BatArray::ValidCount() const {
  uint32_t count = 0;
  for (const BatEntry& entry : entries_) {
    if (entry.valid) {
      ++count;
    }
  }
  return count;
}

}  // namespace ppcmm
