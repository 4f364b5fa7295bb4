// The workload drivers' only door into the simulator: a thin wrapper over the public
// Kernel calls that counts every call as one operation and, when tracing is on, times it
// as a host span. Spans are recorded here, outside src/, so the simulator stays untouched.
//
// Untraced, a call costs a counter increment and a branch; traced, two steady_clock reads.
// Tracing never reaches the simulated machine, so it cannot move a simulated counter.

#ifndef PPCMM_E2EBENCH_CALLS_H_
#define PPCMM_E2EBENCH_CALLS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "src/core/system.h"

namespace ppcmm::e2e {

// One span category per public-call family the drivers make.
enum class Call : uint8_t {
  kTouch,      // UserTouch, UserTouchRun
  kExecute,    // UserExecute
  kFileRead,   // FileRead
  kFileWrite,  // FileWrite
  kIdle,       // RunIdle, SimulateIoWait
  kMmap,       // Mmap
  kMunmap,     // Munmap
  kFork,       // Fork
  kExec,       // CreateTask, Exec
  kExit,       // Exit
  kPipe,       // CreatePipe, PipeWrite, PipeRead
  kSwitch,     // SwitchTo, SwitchCpu
  kSyscall,    // NullSyscall
  kPageCache,  // page_cache().CreateFile / DeleteFile
  kNumCalls,
};

inline constexpr size_t kNumCalls = static_cast<size_t>(Call::kNumCalls);

inline const char* CallName(size_t call) {
  static constexpr std::array<const char*, kNumCalls> kNames = {
      "touch", "execute", "file_read", "file_write", "idle",    "mmap",    "munmap",
      "fork",  "exec",    "exit",      "pipe",       "switch",  "syscall", "page_cache"};
  return kNames[call];
}

// Call counts per category (always kept) and host seconds (kept only when traced).
struct SpanTotals {
  std::array<double, kNumCalls> host_s = {};
  std::array<uint64_t, kNumCalls> calls = {};
};

class Calls {
 public:
  Calls(System& system, bool traced)
      : system_(system), k_(system.kernel()), traced_(traced) {}

  System& system() { return system_; }
  const SpanTotals& spans() const { return spans_; }
  // Public calls made so far: the benchmark's unit of attempted work.
  uint64_t ops() const {
    uint64_t n = 0;
    for (const uint64_t c : spans_.calls) {
      n += c;
    }
    return n;
  }

  TaskId CreateTask(std::string name) {
    Span s(*this, Call::kExec);
    return k_.CreateTask(std::move(name));
  }
  void Exec(TaskId task, const ExecImage& image) {
    Span s(*this, Call::kExec);
    k_.Exec(task, image);
  }
  TaskId Fork(TaskId parent) {
    Span s(*this, Call::kFork);
    return k_.Fork(parent);
  }
  void Exit(TaskId task) {
    Span s(*this, Call::kExit);
    k_.Exit(task);
  }
  void SwitchTo(TaskId task) {
    Span s(*this, Call::kSwitch);
    k_.SwitchTo(task);
  }
  void SwitchCpu(uint32_t cpu) {
    Span s(*this, Call::kSwitch);
    k_.SwitchCpu(cpu);
  }
  void NullSyscall() {
    Span s(*this, Call::kSyscall);
    k_.NullSyscall();
  }
  uint32_t Mmap(uint32_t page_count, const MmapOptions& options) {
    Span s(*this, Call::kMmap);
    return k_.Mmap(page_count, options);
  }
  void Munmap(uint32_t start_page, uint32_t page_count) {
    Span s(*this, Call::kMunmap);
    k_.Munmap(start_page, page_count);
  }
  void FileRead(FileId file, uint32_t offset, uint32_t length, EffAddr dst) {
    Span s(*this, Call::kFileRead);
    k_.FileRead(file, offset, length, dst);
  }
  void FileWrite(FileId file, uint32_t offset, uint32_t length, EffAddr src) {
    Span s(*this, Call::kFileWrite);
    k_.FileWrite(file, offset, length, src);
  }
  uint32_t CreatePipe() {
    Span s(*this, Call::kPipe);
    return k_.CreatePipe();
  }
  uint32_t PipeWrite(uint32_t pipe, EffAddr src, uint32_t length) {
    Span s(*this, Call::kPipe);
    return k_.PipeWrite(pipe, src, length);
  }
  uint32_t PipeRead(uint32_t pipe, EffAddr dst, uint32_t length) {
    Span s(*this, Call::kPipe);
    return k_.PipeRead(pipe, dst, length);
  }
  void UserTouch(EffAddr ea, AccessKind kind) {
    Span s(*this, Call::kTouch);
    k_.UserTouch(ea, kind);
  }
  void UserTouchRun(EffAddr start, uint32_t stride, uint32_t count, AccessKind kind) {
    Span s(*this, Call::kTouch);
    k_.UserTouchRun(start, stride, count, kind);
  }
  void UserExecute(uint32_t instructions) {
    Span s(*this, Call::kExecute);
    k_.UserExecute(instructions);
  }
  void RunIdle(Cycles budget) {
    Span s(*this, Call::kIdle);
    k_.RunIdle(budget);
  }
  void SimulateIoWait(Cycles wait) {
    Span s(*this, Call::kIdle);
    k_.SimulateIoWait(wait);
  }
  FileId CreateFile(uint32_t pages) {
    Span s(*this, Call::kPageCache);
    return k_.page_cache().CreateFile(pages);
  }
  void DeleteFile(FileId file) {
    Span s(*this, Call::kPageCache);
    k_.page_cache().DeleteFile(file);
  }

  uint32_t disk_latency_cycles() const { return k_.costs().disk_latency_cycles; }

 private:
  using Clock = std::chrono::steady_clock;

  class Span {
   public:
    Span(Calls& calls, Call call) : calls_(calls), index_(static_cast<size_t>(call)) {
      ++calls_.spans_.calls[index_];
      if (calls_.traced_) {
        start_ = Clock::now();
      }
    }
    ~Span() {
      if (calls_.traced_) {
        calls_.spans_.host_s[index_] +=
            std::chrono::duration<double>(Clock::now() - start_).count();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Calls& calls_;
    size_t index_;
    Clock::time_point start_;
  };

  System& system_;
  Kernel& k_;
  bool traced_;
  SpanTotals spans_;
};

}  // namespace ppcmm::e2e

#endif  // PPCMM_E2EBENCH_CALLS_H_
