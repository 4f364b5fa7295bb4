// The 16 segment registers.
//
// Each register holds the 24-bit VSID substituted for the top 4 bits of every effective
// address. The kernel reloads the user segment registers (0..11) on context switch; kernel
// segments (12..15) hold fixed VSIDs for the kernel's dynamically mapped areas (§7).

#ifndef PPCMM_SRC_MMU_SEGMENT_REGS_H_
#define PPCMM_SRC_MMU_SEGMENT_REGS_H_

#include <array>

#include "src/sim/addr.h"
#include "src/sim/check.h"

namespace ppcmm {

// The per-CPU segment register file.
class SegmentRegs {
 public:
  SegmentRegs() = default;

  Vsid Get(uint32_t index) const {
    PPCMM_CHECK(index < kNumSegments);
    return regs_[index];
  }

  void Set(uint32_t index, Vsid vsid) {
    PPCMM_CHECK(index < kNumSegments);
    regs_[index] = vsid;
  }

  // Resolves an effective address to its virtual page through the selected register.
  VirtPage Resolve(EffAddr ea) const {
    return VirtPage{.vsid = Get(ea.SegmentIndex()), .page_index = ea.PageIndex()};
  }

  // Loads the user half of the register file (segments 0..11), as a context switch does.
  void LoadUserSegments(const std::array<Vsid, kNumSegments>& vsids) {
    for (uint32_t i = 0; i < kFirstKernelSegment; ++i) {
      regs_[i] = vsids[i];
    }
  }

  // Loads all 16 registers.
  void LoadAll(const std::array<Vsid, kNumSegments>& vsids) {
    regs_ = vsids;
  }

 private:
  std::array<Vsid, kNumSegments> regs_{};
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_MMU_SEGMENT_REGS_H_
