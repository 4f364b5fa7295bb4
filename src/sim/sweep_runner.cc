#include "src/sim/sweep_runner.h"

#include <cstdlib>

namespace ppcmm {

unsigned SweepRunner::DefaultThreads() {
  if (const char* env = std::getenv("PPCMM_SWEEP_THREADS"); env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace ppcmm
