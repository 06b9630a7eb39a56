#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace rush::bench {

std::uint64_t g_alloc_count = 0;

void count_allocs(benchmark::State& state, std::uint64_t allocs) {
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

void report_allocs(benchmark::State& state, std::uint64_t allocs, const char* what) {
  count_allocs(state, allocs);
  if (allocs != 0) state.SkipWithError(what);
}

}  // namespace rush::bench

void* operator new(std::size_t size) {
  ++rush::bench::g_alloc_count;
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
