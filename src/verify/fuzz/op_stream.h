// Fuzz op streams: the weighted random kernel-operation sequences the differential fuzzer
// feeds to the real System and the ReferenceMmu oracle in lockstep.
//
// Encoding is minimizer-first: an op is a kind plus three raw 32-bit operands that are
// interpreted *modulo the oracle's current state* when the op executes (pick the a%n-th
// region, the b%pages-th page, ...). An op that has nothing valid to act on is skipped, not
// an error — so every subsequence of a valid stream is itself valid, which is exactly the
// property greedy delta-debugging needs.

#ifndef PPCMM_SRC_VERIFY_FUZZ_OP_STREAM_H_
#define PPCMM_SRC_VERIFY_FUZZ_OP_STREAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ppcmm {

// One kernel-level operation. The operands' meaning per kind is documented in
// ReferenceMmu::Plan, the single place that interprets them.
enum class FuzzOpKind : uint8_t {
  kTouch = 0,     // user load/store/ifetch somewhere in the current task's address space
  kMmap,          // anonymous mmap, length biased to straddle the 20-page flush cutoff
  kMmapFixed,     // MAP_FIXED over an existing mmap region (the §7 remap storm)
  kMunmap,        // unmap part of an mmap region (range flush)
  kFork,          // COW fork of the current task
  kExit,          // exit a non-current task
  kExec,          // fresh image into some task (whole-context flush)
  kSwitch,        // context switch
  kTlbie,         // tlbie one currently-mapped page
  kTlbia,         // tlbia (architecturally invisible; the cached state changes radically)
  kFbMap,         // MapFramebuffer() into the current task
  kFbTouch,       // load/store in the framebuffer aperture (BAT path when active)
  kFbBatToggle,   // program/clear the framebuffer DBAT mid-stream (BAT rewrite)
  kIdle,          // idle ticks: zombie reclaim + page zeroing
  kTouchRun,      // strided multi-page access run (UserTouchRun), crossing fault boundaries
  kCpuSwitch,     // SMP: hop the execution spotlight to another CPU (weight 0 in the
                  // standard table — GenerateStream output is unchanged; GenerateSmpStream
                  // mixes it in)
};
inline constexpr uint32_t kNumFuzzOpKinds = 16;

const char* FuzzOpName(FuzzOpKind kind);
// Returns kNumFuzzOpKinds for an unknown name.
FuzzOpKind FuzzOpKindFromName(const std::string& name, bool* ok);

struct FuzzOp {
  FuzzOpKind kind = FuzzOpKind::kTouch;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
};

// A complete stream: the seed is carried along so failure reports and replay files are
// self-describing.
struct FuzzStream {
  uint64_t seed = 0;
  std::vector<FuzzOp> ops;
};

// Generates `op_count` ops with the standard kind weights, operands fully random.
FuzzStream GenerateStream(uint64_t seed, uint32_t op_count);

// SMP variant: the standard weights plus `cpu_switch_weight` of kCpuSwitch (the target CPU
// is op.a modulo ncpus, decoded at apply time). A distinct generator — not a knob on
// GenerateStream — so every existing (seed, op_count) stream stays byte-identical.
FuzzStream GenerateSmpStream(uint64_t seed, uint32_t op_count,
                             uint32_t cpu_switch_weight = 8);

// The mmap length decode shared by generator documentation and the oracle: biased to the
// 19/20/21-page cutoff boundary one time in four, otherwise 1..37 pages.
inline uint32_t DecodeMmapPageCount(uint32_t a, uint32_t b) {
  return (a % 4 == 0) ? 19 + (b % 3) : 1 + (a % 37);
}

// ---- replay files ----
//
// Text format, one op per line:
//   ppcmm-fuzz-replay v1
//   seed 12345
//   touch 17 4 2
//   fork 0 0 0
// Blank lines and lines starting with '#' are ignored.

std::string SerializeStream(const FuzzStream& stream);
// Returns false (and fills *error) on any malformed line.
bool ParseStream(const std::string& text, FuzzStream* out, std::string* error);

// ---- coverage accounting ----

// Per-kind executed/skipped tallies. "Skipped" means the op's operands had nothing valid to
// act on in the oracle state at that point (e.g. munmap with no mmap regions) — tracked so
// a stream that silently degenerates to touches is visible.
struct OpCoverage {
  std::array<uint64_t, kNumFuzzOpKinds> executed{};
  std::array<uint64_t, kNumFuzzOpKinds> skipped{};

  void Note(FuzzOpKind kind, bool was_skipped) {
    (was_skipped ? skipped : executed)[static_cast<uint32_t>(kind)]++;
  }
  void Merge(const OpCoverage& other) {
    for (uint32_t i = 0; i < kNumFuzzOpKinds; ++i) {
      executed[i] += other.executed[i];
      skipped[i] += other.skipped[i];
    }
  }
  // Human-readable table: one line per kind with executed/skipped counts.
  std::string Report() const;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_VERIFY_FUZZ_OP_STREAM_H_
