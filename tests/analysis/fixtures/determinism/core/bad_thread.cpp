// VIOLATIONS: raw threading primitives and OpenMP outside the task pool.
#include <future>
#include <thread>

void fit(int);
void fan_out() {
  std::thread worker([] { fit(4); });
  auto f = std::async([] { fit(5); });
  // rush-analyze: allow(raw-thread) fixture: a justified marker stays quiet
  std::jthread waived([] { fit(6); });
  worker.join();
  f.get();
#pragma omp parallel for
  for (int i = 0; i < 4; ++i) fit(i);
}
