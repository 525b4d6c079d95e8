#include "sim/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cmap::sim {

int default_thread_count() {
  // Called from the main thread before any pool exists, and nothing in
  // this process ever calls setenv, so the non-reentrant read is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* v = std::getenv("CMAP_BENCH_THREADS")) {
    const long n = std::atol(v);
    if (n > 0) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads <= 0) threads = default_thread_count();
  const int workers =
      static_cast<std::size_t>(threads) < count ? threads
                                                : static_cast<int>(count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cmap::sim
