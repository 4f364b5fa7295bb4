// The benchmark's three workloads, each a driver that issues public Kernel calls through
// Calls. Set-up (tasks exec'd, files created, page cache warmed) is split from the timed
// run, and the run hands control to a checkpoint at every quiescent point (after each
// compile unit, user round or storm batch) so the caller can audit coherence there.

#ifndef PPCMM_E2EBENCH_DRIVERS_H_
#define PPCMM_E2EBENCH_DRIVERS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "e2ebench/calls.h"
#include "src/core/system.h"

namespace ppcmm::e2e {

enum class Workload { kKcompile, kMultiuser, kMmapStorm };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

// How much work one repetition does.
struct Sizes {
  uint32_t kcompile_units = 300;
  uint32_t multiuser_users = 8;
  uint32_t multiuser_rounds = 600;
  uint32_t storm_rounds = 10'000;
  uint32_t storm_batch = 25;  // rounds between checkpoints
};

// The simulated machine a workload runs on (presets plus ncpus only).
MachineConfig MachineFor(Workload workload);

class Driver {
 public:
  virtual ~Driver() = default;
  Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  virtual void Setup(Calls& calls) = 0;
  virtual void Run(Calls& calls, const std::function<void()>& checkpoint) = 0;
};

// `seed` is the workload seed; the same seed gives the same call stream.
std::unique_ptr<Driver> MakeDriver(Workload workload, const Sizes& sizes, uint64_t seed);

// The interval counters the matching paper workload (RunKernelCompile /
// RunMultiuserWorkload) produces at the same sizes and seed, on a fresh System. The
// driver's timed window must reproduce them bit for bit. nullopt for mmap_storm, which
// has no library counterpart.
std::optional<HwCounters> LibraryCounters(Workload workload, const Sizes& sizes,
                                          uint64_t seed);

}  // namespace ppcmm::e2e

#endif  // PPCMM_E2EBENCH_DRIVERS_H_
