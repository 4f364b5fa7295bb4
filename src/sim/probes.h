// Latency probes: named histogram slots the hot paths record into.
//
// The Machine owns one LatencyProbes hub. Layers above (MMU reload, fault handlers, flush
// engine, idle reclaim) bracket their work with Machine::Now() and call Record with the
// elapsed simulated cycles. Machine gates every record on the one observation switch
// (CycleLedger::SetEnabled): while it is off, Machine::RecordLatency and
// Machine::RecordHashMiss are a single predictable branch and no histogram memory is
// touched, so instrumented and uninstrumented runs stay cycle-identical — the simulation
// clock only advances through Machine::AddCycles, never through observation.

#ifndef PPCMM_SRC_SIM_PROBES_H_
#define PPCMM_SRC_SIM_PROBES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/histogram.h"

namespace ppcmm {

// One slot per instrumented hot path. Keep LatencyProbeName in sync.
enum class LatencyProbe : uint32_t {
  kTlbReloadHardware = 0,    // 604-style hardware HTAB walk
  kTlbReloadSoftwareHtab,    // 603-style software miss handler over the HTAB
  kTlbReloadSoftwareDirect,  // software reload straight from the page tables (no HTAB)
  kPageFault,                // Kernel::HandlePageFault end to end
  kCowFault,                 // Kernel::HandleCowFault end to end
  kRangeFlushEager,          // FlushEngine::FlushRange taking the per-page path
  kContextFlushLazy,         // FlushEngine::FlushRange deferring to VSID retirement
  kIdleReclaimPass,          // one ReclaimZombies pass inside Kernel::RunIdle
};

inline constexpr uint32_t kNumLatencyProbes = 8;

const char* LatencyProbeName(LatencyProbe probe);

// The per-machine collection of latency histograms plus the §5.2 per-PTEG hash-miss
// counters. Records unconditionally; Machine decides whether to call.
class LatencyProbes {
 public:
  void Record(LatencyProbe probe, uint64_t cycles) {
    histograms_[static_cast<uint32_t>(probe)].Record(cycles);
  }

  // Counts an HTAB lookup that missed its primary PTEG (§5.2): the distribution over PTEG
  // indices is what the paper's VSID scatter constant was tuned against. The vector grows
  // on demand so an unused hub costs no memory.
  void RecordHashMiss(uint32_t pteg_index) {
    if (pteg_index >= hash_miss_per_pteg_.size()) {
      hash_miss_per_pteg_.resize(pteg_index + 1, 0);
    }
    ++hash_miss_per_pteg_[pteg_index];
  }

  const LatencyHistogram& histogram(LatencyProbe probe) const {
    return histograms_[static_cast<uint32_t>(probe)];
  }
  const std::vector<uint64_t>& hash_miss_per_pteg() const { return hash_miss_per_pteg_; }

  // Total samples across all histograms (not hash misses). Zero iff nothing recorded.
  uint64_t TotalRecorded() const;

  void Clear();

 private:
  std::array<LatencyHistogram, kNumLatencyProbes> histograms_;
  std::vector<uint64_t> hash_miss_per_pteg_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_PROBES_H_
