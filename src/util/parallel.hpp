#pragma once
// A small blocking thread pool and a parallel_for built on it.
//
// Fleet simulations iterate over tens of thousands of independent nodes;
// parallel_for splits the index range into contiguous chunks, one per
// worker, so per-node RNG streams (which are seeded by node index) stay
// deterministic regardless of thread count.
//
// Every fan-out helper runs inline when called from a worker of the pool
// it would fan out over: the caller already occupies one of the pool's
// threads, so a nested fan-out waiting on the others could deadlock once
// every worker nests.  That lets campaigns share default_pool() whoever
// starts them, a pool task included.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.hpp"

namespace pv {

/// Thrown by ThreadPool::submit on a stopped (or stopping) pool.  A
/// typed error rather than a contract violation: shutdown legitimately
/// races with producers (the campaign service drains while requests are
/// still arriving), so callers must be able to catch the rejection and
/// respond — silently dropping the job would lose a request.
class PoolStoppedError : public std::runtime_error {
 public:
  explicit PoolStoppedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Fixed-size pool of worker threads executing submitted jobs FIFO.
/// Destruction joins all workers after draining the queue.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker() const;

  /// Enqueues a job; throws PoolStoppedError if the pool is shut down
  /// (or shutting down) — the job is guaranteed not to run in that case,
  /// and a non-throwing submit is guaranteed to run it (wait_idle/
  /// shutdown drain the queue).  Exceptions escaping the job are
  /// swallowed by the worker (it keeps serving and wait_idle still
  /// returns); jobs that must propagate errors capture them into an
  /// std::exception_ptr themselves, as parallel_for does.
  void submit(std::function<void()> job) { submit(std::move(job), nullptr); }

  /// As above, with a cancellation token: a job whose token is already
  /// cancelled when a worker dequeues it is skipped (never invoked) —
  /// the cheap half of drain; the cooperative half runs inside the job.
  /// `cancel` may be null and must outlive the job.
  void submit(std::function<void()> job, const CancelToken* cancel);

  /// Blocks until every submitted job has finished executing.
  void wait_idle();

  /// Drains the queue and joins all workers.  Idempotent; called by the
  /// destructor.  submit after shutdown throws PoolStoppedError.
  void shutdown();

 private:
  struct Task {
    std::function<void()> job;
    const CancelToken* cancel = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs body(i) for i in [0, n) across the pool, in contiguous chunks.
/// Exceptions from body are rethrown on the calling thread (first one wins).
/// With a null or single-worker pool, n below `grain`, or a caller on one
/// of the pool's workers, runs inline on the caller.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 256);

/// The number of contiguous ranges parallel_chunks splits [0, n) into at
/// a fan-out of `width`: min(width, n) ranges of ceil(n / min(width, n))
/// indices, the last one short, so a width that does not divide n can
/// make fewer (10 indices at a width of 8 are 5 ranges of 2).  Passing
/// the count back as the width gives the same partition.  0 for n = 0;
/// a width of 0 counts as 1.
[[nodiscard]] std::size_t chunk_count(std::size_t n, std::size_t width);

/// Runs body(begin, end) over a partition of [0, n) into chunk_count(n,
/// w) contiguous ranges, w being `max_chunks` if nonzero (the caller's
/// requested fan-out, honored whatever the pool's size) and the pool's
/// size otherwise.  Unlike parallel_for, the body sees its whole range at
/// once, so scratch buffers allocated per chunk are reused across every
/// index in it — the shape the streaming campaign kernels need.
/// Exceptions from body are rethrown on the caller (first wins).  With a
/// null pool, a single range, or a caller on one of the pool's workers,
/// runs body(0, n) inline.
void parallel_chunks(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_chunks = 0);

/// Runs body(i) for i in [0, n) with dynamic (work-stealing-ish) index
/// assignment: workers grab the next index from a shared counter, so wildly
/// uneven per-index cost (e.g. meters behind a flaky transport retrying to
/// their deadline next to healthy ones) still load-balances.  At most
/// `max_workers` of the pool's workers take part if nonzero (all of them
/// otherwise).  Use parallel_for when per-index cost is uniform — its
/// contiguous chunks are cheaper.  Exceptions from body are rethrown on
/// the caller (first wins).  With a null pool, a width of one, or a
/// caller on one of the pool's workers, runs inline on the caller in
/// order.
void parallel_for_dynamic(ThreadPool* pool, std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          std::size_t max_workers = 0);

/// Process-wide pool, started on first use (one worker per hardware
/// thread) and joined at exit.  Campaigns borrow it for their fan-out,
/// the collector for its pollers; neither starts threads of its own.
ThreadPool& default_pool();

}  // namespace pv
