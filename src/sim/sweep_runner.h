// A small thread-pool runner for embarrassingly parallel simulation sweeps.
//
// Every bench and test that compares configurations runs one independent System per
// configuration — no shared mutable state between them — so the sweep is a pure map.
// SweepRunner::Map claims indices from an atomic counter, runs the supplied factory on a
// pool of host threads, and returns results in index order, so output is deterministic and
// byte-identical to a serial run regardless of the thread count or claim interleaving.
//
// Rules for callers:
//   - the callback must be self-contained: build the Machine/System inside it, return
//     plain data out of it; never touch process-wide state (BenchReport::Global(), stdout)
//     from inside — do that from the caller once Map returns.
//   - thread count: explicit constructor argument, else the PPCMM_SWEEP_THREADS
//     environment variable, else std::thread::hardware_concurrency().
//
// With one thread (or one item) everything runs inline on the calling thread — the serial
// path is the parallel path, not a separate code shape.

#ifndef PPCMM_SRC_SIM_SWEEP_RUNNER_H_
#define PPCMM_SRC_SIM_SWEEP_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ppcmm {

class SweepRunner {
 public:
  // `threads` = 0 means auto: PPCMM_SWEEP_THREADS, else hardware_concurrency().
  explicit SweepRunner(unsigned threads = 0)
      : threads_(threads != 0 ? threads : DefaultThreads()) {}

  unsigned threads() const { return threads_; }

  // Runs fn(index) for every index in [0, count) and returns the results ordered by
  // index. If any invocation throws, the lowest-index exception is rethrown on the
  // calling thread after all workers have drained (results are discarded).
  template <typename Fn>
  auto Map(size_t count, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, size_t>> {
    using Result = std::invoke_result_t<Fn&, size_t>;
    std::vector<std::optional<Result>> slots(count);

    if (threads_ <= 1 || count <= 1) {
      for (size_t i = 0; i < count; ++i) {
        slots[i].emplace(fn(i));
      }
    } else {
      std::atomic<size_t> next{0};
      std::mutex error_mutex;
      size_t error_index = std::numeric_limits<size_t>::max();
      std::exception_ptr error;

      const auto worker = [&]() {
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) {
            return;
          }
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (i < error_index) {
              error_index = i;
              error = std::current_exception();
            }
          }
        }
      };

      const unsigned spawned =
          static_cast<unsigned>(std::min<size_t>(threads_, count));
      std::vector<std::thread> pool;
      pool.reserve(spawned);
      for (unsigned t = 0; t < spawned; ++t) {
        pool.emplace_back(worker);
      }
      for (std::thread& t : pool) {
        t.join();
      }
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
    }

    std::vector<Result> results;
    results.reserve(count);
    for (std::optional<Result>& slot : slots) {
      results.push_back(std::move(*slot));
    }
    return results;
  }

 private:
  static unsigned DefaultThreads();

  unsigned threads_;
};

}  // namespace ppcmm

#endif  // PPCMM_SRC_SIM_SWEEP_RUNNER_H_
