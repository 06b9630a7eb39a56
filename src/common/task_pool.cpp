#include "common/task_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace rush {

namespace {
/// Set for the lifetime of every pool-owned thread; nested dispatches
/// check it to run inline instead of re-entering the queue.
thread_local bool t_pool_worker = false;
}  // namespace

/// One parallel_for_indexed dispatch. All fields are guarded by the
/// owning pool's mu_ — claiming under the lock keeps the bookkeeping
/// trivially race-free, and the per-index bodies this repo dispatches
/// (whole trials, tree fits, CV folds) dwarf a mutex acquisition.
struct TaskPool::Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t claimed = 0;  // next index to hand out
  std::size_t done = 0;     // bodies that returned (or threw)
  bool aborted = false;     // first exception stops further claims
  std::exception_ptr error;

  [[nodiscard]] bool exhausted() const noexcept { return aborted || claimed >= n; }
  [[nodiscard]] bool finished() const noexcept { return exhausted() && done == claimed; }
};

TaskPool::TaskPool(int jobs) : jobs_(jobs) {
  RUSH_EXPECTS(jobs >= 1);
  threads_.reserve(static_cast<std::size_t>(jobs - 1));
  for (int i = 0; i < jobs - 1; ++i) threads_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
  {
    const std::scoped_lock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int TaskPool::default_jobs() {
  if (const char* env = std::getenv("RUSH_JOBS"); env != nullptr && *env != '\0') {
    long long parsed = 0;
    try {
      parsed = str::to_int(env);
    } catch (const ParseError& e) {
      throw ParseError(std::string("RUSH_JOBS: ") + e.what());
    }
    if (parsed > std::numeric_limits<int>::max())
      throw ParseError("RUSH_JOBS: " + std::string(env) + " exceeds INT_MAX");
    return parsed >= 1 ? static_cast<int>(parsed) : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

void TaskPool::worker_loop() {
  t_pool_worker = true;
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Batch> batch = queue_.front();
    work_on(batch, lock);
  }
}

void TaskPool::work_on(const std::shared_ptr<Batch>& batch, std::unique_lock<std::mutex>& lock) {
  while (!batch->exhausted()) {
    const std::size_t index = batch->claimed++;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*batch->body)(index);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    ++batch->done;
    if (err) {
      if (!batch->error) batch->error = err;
      batch->aborted = true;
    }
  }
  // Retire the exhausted batch so idle workers move on to queued work
  // (or back to sleep) instead of respinning on it.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == batch) {
      queue_.erase(it);
      break;
    }
  }
  if (batch->finished()) done_cv_.notify_all();
}

void TaskPool::parallel_for_indexed(std::size_t n,
                                    const std::function<void(std::size_t)>& body) {
  RUSH_EXPECTS(body != nullptr);
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1 || t_pool_worker) {
    // Serial pool, trivial batch, or nested dispatch from a worker: run
    // inline. Identical results by the independence contract.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->body = &body;
  std::unique_lock lock(mu_);
  queue_.push_back(batch);
  work_cv_.notify_all();
  work_on(batch, lock);  // the caller is a participant, not just a waiter
  done_cv_.wait(lock, [&] { return batch->finished(); });
  if (batch->error) {
    const std::exception_ptr err = batch->error;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

namespace {

std::atomic<int> g_shared_jobs_request{0};  // 0 = use default_jobs()
std::atomic<bool> g_shared_pool_built{false};

}  // namespace

TaskPool& shared_pool() {
  static TaskPool pool = [] {
    g_shared_pool_built.store(true);
    const int requested = g_shared_jobs_request.load();
    return TaskPool(requested >= 1 ? requested : TaskPool::default_jobs());
  }();
  return pool;
}

void set_shared_jobs(int jobs) {
  RUSH_EXPECTS(jobs >= 1);
  if (g_shared_pool_built.load()) {
    RUSH_EXPECTS(shared_pool().jobs() == jobs);
    return;
  }
  g_shared_jobs_request.store(jobs);
}

void parallel_for_indexed(int jobs, std::size_t n,
                          const std::function<void(std::size_t)>& body) {
  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  if (jobs <= 0) {
    shared_pool().parallel_for_indexed(n, body);
    return;
  }
  TaskPool dedicated(jobs);
  dedicated.parallel_for_indexed(n, body);
}

}  // namespace rush
