#include "common/parallel.h"

#include <atomic>
#include <thread>
#include <vector>

namespace rfidclean {

void ParallelFor(int lanes, std::size_t n,
                 const std::function<void(std::size_t index, int lane)>& fn) {
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&cursor, n, &fn](int lane) {
    for (std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
         index < n; index = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(index, lane);
    }
  };
  std::vector<std::thread> threads;
  for (int lane = 1; lane < lanes && static_cast<std::size_t>(lane) < n;
       ++lane) {
    threads.emplace_back(drain, lane);
  }
  drain(0);
  for (std::thread& thread : threads) thread.join();
}

}  // namespace rfidclean
