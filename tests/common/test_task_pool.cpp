#include "common/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace rush {
namespace {

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_indexed(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPool, IndexedWritesNeedNoSynchronization) {
  TaskPool pool(3);
  constexpr std::size_t kN = 100;
  std::vector<std::uint64_t> out(kN, 0);
  pool.parallel_for_indexed(kN, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TaskPool, EmptyDispatchReturnsImmediately) {
  TaskPool pool(2);
  bool ran = false;
  pool.parallel_for_indexed(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TaskPool, SerialPoolRunsInlineInOrder) {
  TaskPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for_indexed(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(TaskPool, NestedDispatchRunsInlineWithoutDeadlock) {
  TaskPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for_indexed(kOuter, [&](std::size_t o) {
    // From a worker this must run inline (no re-entry into the queue).
    pool.parallel_for_indexed(kInner,
                              [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(TaskPool, FirstExceptionPropagatesAndPoolSurvives) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_indexed(64,
                                         [&](std::size_t i) {
                                           if (i == 3) throw std::runtime_error("boom");
                                           ran.fetch_add(1);
                                         }),
               std::runtime_error);
  // The batch aborted early: fewer than all non-throwing indices may have
  // run, never more.
  EXPECT_LE(ran.load(), 63);

  // The pool is still usable after an aborted batch.
  std::atomic<int> after{0};
  pool.parallel_for_indexed(32, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 32);
}

TEST(TaskPool, ConcurrentDispatchesFromSeveralThreads) {
  TaskPool pool(4);
  constexpr int kDispatchers = 3;
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kDispatchers * kN);
  std::vector<std::thread> dispatchers;  // rush-analyze: allow(raw-thread)
  dispatchers.reserve(kDispatchers);
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      pool.parallel_for_indexed(
          kN, [&, d](std::size_t i) { hits[static_cast<std::size_t>(d) * kN + i].fetch_add(1); });
    });
  }
  for (auto& t : dispatchers) t.join();
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(TaskPool, RejectsNonPositiveWidth) {
  EXPECT_THROW(TaskPool(0), PreconditionError);
  EXPECT_THROW(TaskPool(-2), PreconditionError);
}

TEST(TaskPoolFreeFunction, JobsOneIsStrictlySerial) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_indexed(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskPoolFreeFunction, DedicatedWidthCoversAllIndices) {
  std::vector<std::atomic<int>> hits(128);
  parallel_for_indexed(4, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(TaskPoolFreeFunction, SharedPoolPolicyAndSizeLock) {
  std::vector<std::atomic<int>> hits(32);
  parallel_for_indexed(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);

  // Once built, re-requesting the current size is a no-op and any other
  // size is a precondition error.
  const int width = shared_pool().jobs();
  EXPECT_GE(width, 1);
  EXPECT_NO_THROW(set_shared_jobs(width));
  EXPECT_THROW(set_shared_jobs(width + 1), PreconditionError);
}

TEST(TaskPool, DefaultJobsIsPositive) { EXPECT_GE(TaskPool::default_jobs(), 1); }

/// Sets $RUSH_JOBS for one scope and restores the caller's value (CI's
/// tsan job runs the suite with RUSH_JOBS=3).
class ScopedRushJobs {
 public:
  explicit ScopedRushJobs(const char* value) {
    if (const char* old = std::getenv("RUSH_JOBS"); old != nullptr) saved_ = old;
    ::setenv("RUSH_JOBS", value, 1);
  }
  ~ScopedRushJobs() {
    if (saved_) {
      ::setenv("RUSH_JOBS", saved_->c_str(), 1);
    } else {
      ::unsetenv("RUSH_JOBS");
    }
  }
  ScopedRushJobs(const ScopedRushJobs&) = delete;
  ScopedRushJobs& operator=(const ScopedRushJobs&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The ParseError message default_jobs() throws for `value`, or "" when
/// it returns.
std::string default_jobs_error(const char* value) {
  const ScopedRushJobs env(value);
  try {
    (void)TaskPool::default_jobs();
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(TaskPool, DefaultJobsReadsRushJobs) {
  {
    const ScopedRushJobs env("3");
    EXPECT_EQ(TaskPool::default_jobs(), 3);
  }
  {
    const ScopedRushJobs env(" 2147483647 ");
    EXPECT_EQ(TaskPool::default_jobs(), 2147483647);
  }
  // Zero and negative values clamp to the serial width.
  for (const char* value : {"0", "-5"}) {
    const ScopedRushJobs env(value);
    EXPECT_EQ(TaskPool::default_jobs(), 1) << value;
  }
  {
    const ScopedRushJobs env("");  // empty: the hardware default
    EXPECT_GE(TaskPool::default_jobs(), 1);
  }
}

TEST(TaskPool, DefaultJobsRejectsMalformedRushJobs) {
  // A trailing suffix must not be dropped, nor a value past INT_MAX wrap.
  for (const char* value : {"4x", "abc", "1.5", "3000000000", "99999999999999999999"}) {
    const std::string error = default_jobs_error(value);
    EXPECT_NE(error.find("RUSH_JOBS"), std::string::npos) << value << ": '" << error << "'";
  }
}

}  // namespace
}  // namespace rush
