// Simulated-cycle attribution and the machine's one event ring.
//
// The ledger charges every cycle the machine spends to a cause taxonomy (instruction
// execution, TLB reload by strategy, hash-search depth, fault kind, flush flavor, idle work,
// ...) keyed secondarily by the running task. Its ring keeps the most recent point events
// (Machine::Trace) and scope closes (CycleScope), each stamped with cycle, task and CPU.
// One switch, SetEnabled, turns on attribution, the ring and the machine's LatencyProbes.
//
// The ledger lives in the sim layer so hot headers stay obs-free; exporters (flamegraphs,
// JSON tables, diffs, the ring dump, Perfetto) live in src/obs. When disabled, the only
// cost on any hot path is one predictable branch, and enabling it never advances the clock
// or perturbs a single counter (tests/attr_test.cc proves both, bit-exactly).
//
// Causes nest: Mmu::Reload opens a reload scope, the hash search inside it opens a depth
// scope, so cycles land in a path like dtlb_reload_hw;hash_primary. An open scope is a
// stack of cause bytes; each distinct (path, task) pair owns one cell, and every
// Machine::AddCycles charges the innermost cell (or the task's base "instruction" cell
// when no scope is open). Attributed cycles therefore sum to total simulated cycles by
// construction — there is no "unknown" bucket to leak into.

#ifndef PPCMM_SRC_SIM_ATTR_H_
#define PPCMM_SRC_SIM_ATTR_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace ppcmm {

// Point-event kinds, kept coarse on purpose: the ring answers "what happened around cycle
// X", not "every memory reference".
enum class TraceEvent : uint8_t {
  kTlbMiss,            // a = effective page number, b = 1 for instruction side
  kHtabMiss,           // a = effective page number
  kPageFault,          // a = effective page number
  kCowFault,           // a = effective page number
  kContextSwitch,      // a = previous task id, b = next task id
  kFlushPage,          // a = effective page number
  kFlushContext,       // a = retired context, b = fresh context
  kZombieReclaim,      // a = entries reclaimed in this idle pass
  kSyscall,            // a = kernel-op discriminator
  kIdleSlice,          // a = budget in cycles (truncated)
  kDirtyBitUpdate,     // a = effective page number
  kFaultInjected,      // a = FaultClass, b = total fires of that class so far
  kOomRollback,        // a = kernel-op discriminator of the aborted operation
  kVsidEpochRollover,  // a = new epoch count (truncated)
};

const char* TraceEventName(TraceEvent event);

// The cause taxonomy. Order is part of the export format only through AttrCauseName;
// appending is always safe.
enum class AttrCause : uint8_t {
  kInstruction = 0,  // base execution: no scope open (never "unknown" — this is the root)
  // TLB reloads, split by which TLB missed and which reload strategy served it.
  kItlbReloadHw,
  kItlbReloadSwHtab,
  kItlbReloadSwDirect,
  kDtlbReloadHw,
  kDtlbReloadSwHtab,
  kDtlbReloadSwDirect,
  // Hash-table search depth buckets (nested under a reload cause).
  kHashSearchPrimary,    // found in the primary PTEG (<= 8 memory references)
  kHashSearchSecondary,  // found only after probing the secondary PTEG
  kHashSearchMiss,       // both PTEGs searched, no match (leads to a page fault or walk)
  kDirtyBitUpdate,       // deferred C-bit store-back on first write
  // Page-fault kinds, by the backing of the faulting VMA.
  kFaultAnon,
  kFaultFile,
  kFaultShm,
  kFaultIo,
  kCowFault,  // copy-on-write break (the copy loop itself is kCowCopy nested inside)
  kCowCopy,
  // Flush flavors (§7 of the paper: per-page eager vs whole-context lazy).
  kRangeFlushEager,
  kContextFlushLazy,
  kVsidRollover,  // MMU-context generation rollover sweep
  // Idle-task work (§5/§6: the optimized idle loop).
  kIdleLoop,     // the idle loop shell (nested causes carve out reclaim/zero work)
  kIdleReclaim,  // zombie PTE reclaim pass
  kIdleZero,     // background page zeroing
  kContextSwitch,
  // Kernel entry points (coarse buckets for everything the taxonomy above doesn't refine).
  kSyscall,
  kFileIo,
  kPipe,
  kFork,
  kExec,
  kExit,
  // SMP: cross-CPU TLB shootdown rounds (IPI send/receive plus the remote invalidate)
  // and the deferred tlbia an idle-skipped CPU runs when it next schedules.
  kTlbShootdown,
  kNumCauses,  // sentinel, not a cause
};

// Stable snake_case name used in folded stacks, JSON exports, and ring dumps.
const char* AttrCauseName(AttrCause cause);

// One ring record, POD so the ring is a fixed array with no per-event allocation. A point
// record (depth 0) is a Machine::Trace event with its payload in a/b. A scope record
// (depth >= 1) is a CycleScope closing: its leaf cause, nesting depth and the clock
// advance across it. Both carry the cycle they were appended at and the ledger's task and
// CPU at that moment.
struct TraceRecord {
  uint64_t cycle = 0;
  uint64_t cycles = 0;  // scope records: clock advance across the scope (nested included)
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t task = 0;
  TraceEvent event = TraceEvent::kTlbMiss;    // point records
  AttrCause cause = AttrCause::kInstruction;  // scope records
  uint8_t depth = 0;                          // 0 = point record, 1 = outermost scope
  uint8_t cpu = 0;
  bool is_scope() const { return depth != 0; }
};

// The attribution ledger. One per Machine; all mutation goes through CycleScope and
// Machine (src/sim/machine.h) except SetCurrentTask, which the kernel's scheduler calls.
class CycleLedger {
 public:
  static constexpr uint32_t kMaxDepth = 8;
  static constexpr uint32_t kRingCapacity = 4096;

  // Identifies one attribution cell: the open-scope cause path (bytes are cause+1 so a
  // zero byte means "unused level"; all-zero = the base instruction cell) and the task.
  struct CellKey {
    std::array<uint8_t, kMaxDepth> path = {};
    uint32_t task = 0;
    bool operator<(const CellKey& other) const {
      if (path != other.path) return path < other.path;
      return task < other.task;
    }
  };

  // One exported cell: the decoded cause path, owning task, and cycles charged.
  struct Cell {
    std::vector<AttrCause> path;  // empty = base instruction cell
    uint32_t task = 0;
    uint64_t cycles = 0;
  };

  bool enabled() const { return enabled_; }
  // Enabling starts attribution, the ring and the latency probes from the current cycle
  // (the ring's storage is allocated on first enable); disabling freezes them (cells and
  // ring remain readable). Enabling resets nothing — call Clear() for a fresh window.
  void SetEnabled(bool enabled);
  void Clear();

  // Charges `cycles` to the innermost open scope (or the current task's base cell).
  // Called from Machine::AddCycles on every clock advance — the one hot-path hook.
  void Charge(uint64_t cycles) {
    if (!enabled_) {
      return;
    }
    current_->second += cycles;
    total_ += cycles;
  }

  // Appends a point record at `cycle`. Called from Machine::Trace.
  void RecordPoint(uint64_t cycle, TraceEvent event, uint32_t a, uint32_t b) {
    if (!enabled_) {
      return;
    }
    Append() = TraceRecord{.cycle = cycle, .a = a, .b = b, .task = task_, .event = event,
                           .cpu = static_cast<uint8_t>(cpu_)};
  }

  // Scope stack. Push/Pop are driven by CycleScope; Rebind reclassifies the innermost
  // scope after the fact (e.g. a hash search discovers only on return whether it stayed
  // in the primary PTEG), moving the cycles already charged to its leaf cell. Rebind must
  // run before any nested scope opens under the rebound one, or the nested cells keep
  // their original parent path (cycles are still conserved, only the label is stale).
  void Push(AttrCause cause);
  void Pop(uint64_t end_cycle, uint64_t elapsed_cycles);
  void Rebind(AttrCause cause);

  // Mirrors the scheduler: subsequent base-cell charges (and new scopes) belong to `task`,
  // and ring records appended from now on are stamped with it.
  void SetCurrentTask(uint32_t task);
  uint32_t current_task() const { return task_; }

  // Mirrors the SMP interleaver: ring records appended from now on are stamped with `cpu`.
  // Cells stay keyed by (path, task) only — the per-CPU view lives in the ring and the
  // per-CPU cycle clocks, not in the attribution table.
  void SetCurrentCpu(uint32_t cpu) { cpu_ = cpu; }
  uint32_t current_cpu() const { return cpu_; }

  uint32_t depth() const { return depth_; }
  // Total cycles charged while enabled. The conservation invariant: this equals both the
  // sum over Cells() and the machine's clock advance over the enabled window, bit-exactly.
  uint64_t TotalAttributed() const { return total_; }

  // Snapshot of every cell, deterministically ordered (path bytes, then task).
  std::vector<Cell> Cells() const;

  // The ring: the most recent kRingCapacity records, oldest first; older ones are
  // overwritten. TotalRecorded counts every append since Clear, dropped ones included.
  std::vector<TraceRecord> Records() const;
  uint64_t TotalRecorded() const { return recorded_; }

 private:
  uint64_t* FindOrCreateCell(const CellKey& key);
  // The slot the next record goes to, overwriting the oldest once the ring is full.
  TraceRecord& Append() { return ring_[recorded_++ % kRingCapacity]; }

  bool enabled_ = false;
  uint32_t task_ = 0;
  uint32_t cpu_ = 0;
  uint32_t depth_ = 0;
  uint64_t total_ = 0;

  // Open-scope bookkeeping: the cause path as stored key bytes, plus per-frame the cell
  // and its balance at entry (so Rebind can move exactly the cycles charged since Push).
  struct Frame {
    AttrCause cause = AttrCause::kInstruction;
    std::map<CellKey, uint64_t>::iterator cell;
    uint64_t entry_cycles = 0;
  };
  std::array<uint8_t, kMaxDepth> path_ = {};
  std::array<Frame, kMaxDepth> frames_;

  // Cell store. std::map keeps iteration deterministic (DET-ITER-012) and nodes stable,
  // so `current_` can point straight at the hot cell between stack operations.
  std::map<CellKey, uint64_t> cells_;
  std::map<CellKey, uint64_t>::iterator base_cell_;  // cached [kInstruction-path, task_]
  std::map<CellKey, uint64_t>::iterator current_;    // innermost open cell (or base)

  // The ring: heap storage so Machine stays small, null until first enabled.
  std::unique_ptr<TraceRecord[]> ring_;
  uint64_t recorded_ = 0;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_ATTR_H_
