#pragma once
// PoolGate: holds every worker of util's default_pool() so a test can see
// whether a campaign fans out over it.

#include <condition_variable>
#include <mutex>

#include "util/parallel.hpp"

namespace pv {

/// Parks every worker of default_pool() until release().  Campaigns that
/// fan out borrow that pool, so while the gate is shut each one blocks in
/// its first fan-out — and with it the thread that runs it — while a
/// campaign that runs inline completes.  A clean campaign below twice
/// kFanoutGrain runs inline at any thread count; a faulted one keeps the
/// requested width, so it is the one to hold a worker with.
class PoolGate {
 public:
  PoolGate() : pool_(default_pool()) {
    for (unsigned i = 0; i < pool_.size(); ++i) {
      pool_.submit([this] {
        std::unique_lock lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
        ++left_;
        cv_.notify_all();
      });
    }
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return parked_ == pool_.size(); });
  }
  ~PoolGate() { release(); }
  PoolGate(const PoolGate&) = delete;
  PoolGate& operator=(const PoolGate&) = delete;

  /// Opens the gate and waits until every parked job has let go of it.
  void release() {
    std::unique_lock lock(mu_);
    open_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return left_ == parked_; });
  }

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  unsigned parked_ = 0;
  unsigned left_ = 0;
  bool open_ = false;
};

}  // namespace pv
