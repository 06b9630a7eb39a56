// Heap-allocation counting for the micro benches.
//
// Linking alloc_counter.cpp replaces the global operator new/delete with
// malloc-backed versions that count every allocation. The counter is a
// plain integer, so only benches whose measured work runs on the calling
// thread may link it: bench_micro_pool's workers would race on it.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

namespace rush::bench {

/// Allocations made through the global operator new since start-up.
extern std::uint64_t g_alloc_count;

/// Report `allocs`, accumulated over the timed loop, as allocs_per_op.
void count_allocs(benchmark::State& state, std::uint64_t allocs);

/// count_allocs, and fail the benchmark when a steady-state path that
/// promises zero allocations touched the heap.
void report_allocs(benchmark::State& state, std::uint64_t allocs, const char* what);

}  // namespace rush::bench
