#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/expects.hpp"

namespace pv {
namespace {

// The pool whose worker the calling thread is (null off-pool).
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::on_worker() const { return t_worker_of == this; }

void ThreadPool::shutdown() {
  {
    std::unique_lock lock(mu_);
    if (stopping_ && workers_.empty()) return;  // already shut down
    stopping_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::submit(std::function<void()> job, const CancelToken* cancel) {
  PV_EXPECTS(job != nullptr, "null job");
  {
    std::unique_lock lock(mu_);
    if (stopping_) {
      throw PoolStoppedError("ThreadPool::submit on a stopped pool");
    }
    queue_.push(Task{std::move(job), cancel});
    ++in_flight_;
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_job_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      // A task whose token fired while it sat in the queue is skipped:
      // whoever cancelled it has already answered for it (the service
      // checkpoints drained requests before cancelling their tokens).
      if (task.cancel == nullptr || !task.cancel->cancelled()) task.job();
    } catch (...) {
      // A job's exception must not kill the worker thread (std::terminate)
      // or leave in_flight_ stuck above zero (wait_idle deadlock).  Jobs
      // that need their exceptions propagated marshal them explicitly, as
      // parallel_for does.
    }
    {
      std::unique_lock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

// Runs job(j) for j in [0, jobs) as tasks on `pool` and blocks until all
// of them have finished, then rethrows the first exception any job
// raised.  The completion counter is mutex-guarded, not atomic, on
// purpose: with an atomic, the waiter's predicate can become true
// between a task's increment and its notify, letting the waiter return
// and reuse this stack frame while the task still touches the latch (a
// use-after-scope TSan caught).  Under the mutex, a task's last touch of
// the frame is the unlock the waiter is blocked on.  A task captures
// only the latch's address and its index, so its std::function stores
// it inline.
template <class Job>
void fork_join(ThreadPool& pool, std::size_t jobs, const Job& job) {
  struct Latch {
    const Job& job;
    std::size_t jobs;
    std::mutex mu{};
    std::condition_variable cv{};
    std::size_t done = 0;
    std::exception_ptr first_error{};
  } latch{job, jobs};
  for (std::size_t j = 0; j < jobs; ++j) {
    pool.submit([l = &latch, j] {
      std::exception_ptr error;
      try {
        l->job(j);
      } catch (...) {
        error = std::current_exception();
      }
      std::scoped_lock lock(l->mu);
      if (error && !l->first_error) l->first_error = error;
      if (++l->done == l->jobs) l->cv.notify_all();
    });
  }
  std::unique_lock lock(latch.mu);
  latch.cv.wait(lock, [&latch] { return latch.done == latch.jobs; });
  if (latch.first_error) std::rethrow_exception(latch.first_error);
}

}  // namespace

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || n < grain ||
      pool->on_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t chunks =
      std::min<std::size_t>(pool->size() * 4, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  fork_join(*pool, (n + chunk - 1) / chunk, [&](std::size_t j) {
    const std::size_t end = std::min(n, (j + 1) * chunk);
    for (std::size_t i = j * chunk; i < end; ++i) body(i);
  });
}

std::size_t chunk_count(std::size_t n, std::size_t width) {
  if (n == 0) return 0;
  const std::size_t chunks = std::clamp<std::size_t>(width, 1, n);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  return (n + chunk - 1) / chunk;
}

void parallel_chunks(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_chunks) {
  if (n == 0) return;
  const std::size_t chunks =
      pool == nullptr
          ? 1
          : chunk_count(n, max_chunks == 0 ? pool->size() : max_chunks);
  if (chunks <= 1 || pool->on_worker()) {
    body(0, n);
    return;
  }
  // ceil(n / chunks) is ceil(n / width): chunk_count keeps the width's
  // range length.
  const std::size_t chunk = (n + chunks - 1) / chunks;
  fork_join(*pool, chunks, [&](std::size_t j) {
    body(j * chunk, std::min(n, (j + 1) * chunk));
  });
}

void parallel_for_dynamic(ThreadPool* pool, std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          std::size_t max_workers) {
  if (n == 0) return;
  const std::size_t workers =
      pool == nullptr
          ? 1
          : std::min<std::size_t>(
                {max_workers == 0 ? pool->size() : max_workers, pool->size(),
                 n});
  if (workers <= 1 || pool->on_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  fork_join(*pool, workers, [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) break;
      body(i);
    }
  });
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pv
