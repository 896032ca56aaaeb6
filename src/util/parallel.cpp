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

  std::exception_ptr first_error;
  std::mutex err_mu;
  // Completion latch.  The counter is mutex-guarded, not atomic, on
  // purpose: with an atomic, the waiter's predicate can become true
  // between a worker's fetch_add and its notify, letting the waiter
  // return and reuse this stack frame while the worker still reads
  // `submitted` / locks `done_mu` (a use-after-scope TSan caught).
  // Under the mutex, a worker's last touch of the frame is the unlock
  // the waiter is blocked on.
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;
  const std::size_t submitted = (n + chunk - 1) / chunk;

  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    pool->submit([&, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) body(i);
      } catch (...) {
        std::scoped_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      std::scoped_lock lock(done_mu);
      if (++done == submitted) done_cv.notify_all();
    });
  }
  {
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return done == submitted; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_chunks(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_chunks) {
  if (n == 0) return;
  std::size_t chunks = 1;
  if (pool != nullptr) chunks = max_chunks == 0 ? pool->size() : max_chunks;
  chunks = std::min(chunks, n);
  if (chunks <= 1 || pool->on_worker()) {
    body(0, n);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t submitted = (n + chunk - 1) / chunk;

  std::exception_ptr first_error;
  std::mutex err_mu;
  // Mutex-guarded completion latch — see parallel_for for why the
  // counter must not be a bare atomic.
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    pool->submit([&, begin, end] {
      try {
        body(begin, end);
      } catch (...) {
        std::scoped_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      std::scoped_lock lock(done_mu);
      if (++done == submitted) done_cv.notify_all();
    });
  }
  {
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return done == submitted; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_dynamic(ThreadPool* pool, std::size_t n,
                          const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || pool->on_worker()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t workers = std::min<std::size_t>(pool->size(), n);

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex err_mu;
  // Mutex-guarded completion latch — see parallel_for for why the
  // counter must not be a bare atomic.
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit([&] {
      try {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= n) break;
          body(i);
        }
      } catch (...) {
        std::scoped_lock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      std::scoped_lock lock(done_mu);
      if (++done == workers) done_cv.notify_all();
    });
  }
  {
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return done == workers; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pv
