// Unit tests for the thread pool and parallel_for.

#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/doc.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, RejectsNullJob) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), contract_error);
}

TEST(ThreadPool, SubmittedJobThrowingDoesNotKillWorkerOrDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] {
      ran.fetch_add(1);
      throw std::runtime_error("job failure");
    });
  }
  pool.wait_idle();  // must not deadlock on the failed jobs
  EXPECT_EQ(ran.load(), 50);
  // The workers survived: the pool still executes new jobs.
  std::atomic<int> after{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&after] { after.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(after.load(), 20);
}

TEST(ThreadPool, SingleThreadSurvivesThrowingJob) {
  // With one worker, a single escaped exception would kill the whole pool.
  ThreadPool pool(1);
  pool.submit([] { throw 42; });  // non-std::exception payloads too
  pool.wait_idle();
  std::atomic<bool> ok{false};
  pool.submit([&ok] { ok.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for(&pool, kN, [&](std::size_t i) { touched[i].fetch_add(1); },
               /*grain=*/16);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, InlineWhenNoPool) {
  std::vector<int> touched(100, 0);
  parallel_for(nullptr, touched.size(),
               [&](std::size_t i) { touched[i] += 1; });
  EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 100);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  parallel_for(&pool, 0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, SmallRangeRunsInline) {
  ThreadPool pool(4);
  // n < grain must execute on the calling thread (deterministic order).
  std::vector<std::size_t> order;
  parallel_for(&pool, 5, [&](std::size_t i) { order.push_back(i); },
               /*grain=*/256);
  const std::vector<std::size_t> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          &pool, 5000,
          [](std::size_t i) {
            if (i == 4321) throw std::runtime_error("boom");
          },
          /*grain=*/16),
      std::runtime_error);
}

TEST(ParallelFor, ResultsMatchSerialReduction) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 4096;
  std::vector<double> out(kN);
  parallel_for(&pool, kN,
               [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; },
               /*grain=*/32);
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (kN - 1.0) * kN / 2.0);
}

TEST(ThreadPool, ConcurrentSubmitFromManyThreads) {
  // submit() is part of the pool's public contract from any thread — the
  // collector's pollers enqueue follow-up work concurrently.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &count] {
      for (int i = 0; i < 250; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, WaitIdleRacingNewSubmissions) {
  // wait_idle from one thread while another keeps submitting must neither
  // deadlock nor miss work: after both finish, every job has run.
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::thread submitter([&pool, &count] {
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
      if (i % 100 == 0) std::this_thread::yield();
    }
  });
  for (int i = 0; i < 20; ++i) pool.wait_idle();  // must not hang mid-storm
  submitter.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsTypedError) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(count.load(), 10);  // shutdown drains before joining
  // A typed, catchable rejection — shutdown legitimately races with
  // producers, so this must not be a contract violation.
  EXPECT_THROW(pool.submit([] {}), PoolStoppedError);
  pool.shutdown();  // idempotent
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPool, SubmitVersusStopRace) {
  // Hammer submit from several threads while the pool shuts down.  The
  // contract: every submit either returns normally (the job runs before
  // shutdown completes) or throws PoolStoppedError (the job never runs).
  // Executed count == accepted count proves no job was silently dropped.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    std::atomic<int> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(4);
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          try {
            pool.submit([&executed] { executed.fetch_add(1); });
            accepted.fetch_add(1);
          } catch (const PoolStoppedError&) {
            rejected.fetch_add(1);
          }
        }
      });
    }
    std::this_thread::yield();
    pool.shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(executed.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(accepted.load() + rejected.load(), 200) << "round " << round;
  }
}

TEST(ThreadPool, CancelledTokenSkipsJobAtDequeue) {
  ThreadPool pool(1);
  CancelToken gate;     // blocks the worker so later jobs stay queued
  CancelToken doomed;   // cancelled while its job is still queued
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  pool.submit([&ran] { ran.fetch_add(1); }, &doomed);
  pool.submit([&ran] { ran.fetch_add(1); }, &gate);
  doomed.cancel();
  release.store(true);
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);  // doomed job skipped, gated job ran
}

TEST(ParallelForDynamic, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> touched(kN);
  parallel_for_dynamic(&pool, kN,
                       [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForDynamic, InlineWhenNoPool) {
  std::vector<std::size_t> order;
  parallel_for_dynamic(nullptr, 5,
                       [&](std::size_t i) { order.push_back(i); });
  const std::vector<std::size_t> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(ParallelForDynamic, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_dynamic(&pool, 1000,
                                    [](std::size_t i) {
                                      if (i == 777) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
}

TEST(ParallelForDynamic, BalancesWildlyUnevenWork) {
  // One expensive index among thousands of cheap ones — dynamic
  // assignment must still cover everything (the flaky-meter shape).
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for_dynamic(&pool, 2000, [&](std::size_t i) {
    if (i == 0) {
      std::atomic<int> spin{0};
      while (spin.fetch_add(1) < 2000000) {
      }
    }
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, OnWorkerIdentifiesItsOwnThreads) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker());
  std::atomic<bool> mine{false};
  std::atomic<bool> theirs{true};
  pool.submit([&] {
    mine = pool.on_worker();
    theirs = other.on_worker();
  });
  pool.wait_idle();
  EXPECT_TRUE(mine.load());
  EXPECT_FALSE(theirs.load());
}

TEST(ThreadPool, ParallelChunksHonorsTheRequestedFanOut) {
  // max_chunks is the caller's fan-out: three ranges even on one worker.
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  parallel_chunks(
      &pool, 10,
      [&](std::size_t b, std::size_t e) {
        EXPECT_TRUE(pool.on_worker());
        std::scoped_lock lock(mu);
        ranges.emplace_back(b, e);
      },
      3);
  std::sort(ranges.begin(), ranges.end());
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 4}, {4, 8}, {8, 10}};
  EXPECT_EQ(ranges, want);
}

TEST(ThreadPool, NestedFanOutOnTheSamePoolRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> inner_whole{false};
  parallel_chunks(
      &pool, 2,
      [&](std::size_t, std::size_t) {
        parallel_chunks(
            &pool, 100,
            [&](std::size_t b, std::size_t e) {
              inner_calls.fetch_add(1);
              if (b == 0 && e == 100) inner_whole = true;
            },
            4);
      },
      2);
  EXPECT_EQ(inner_calls.load(), 2);
  EXPECT_TRUE(inner_whole.load());
}

TEST(DefaultPool, IsSingletonAndUsable) {
  ThreadPool& a = default_pool();
  ThreadPool& b = default_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  parallel_for(&a, 1000, [&](std::size_t) { n.fetch_add(1); }, 1);
  EXPECT_EQ(n.load(), 1000);
}

TEST(DefaultPool, CampaignStartedFromAPoolTaskCompletes) {
  // Campaigns borrow default_pool() for their fan-out.  Here every worker
  // of that pool starts a threads=2 campaign at the same moment (a
  // barrier holds each until all have started), so no worker is free to
  // serve a sibling's chunks: each nested fan-out must run inline on its
  // own worker, and every document must equal the one run off-pool.
  ScenarioSpec spec;
  spec.name = "nested-pool";
  spec.nodes = 40;
  spec.fleet_seed = 3;
  const Scenario scenario = build_scenario(spec);
  const MeasurementPlan plan =
      scenario.plan(MethodologySpec::get(Level::kL1, Revision::kV2015), 3);
  CampaignConfig config;
  config.seed = 3;
  config.threads = 2;
  const auto document = [&] {
    return render_json(assessment_document(
        plan, run_campaign(*scenario.cluster, *scenario.electrical, plan,
                           config)));
  };
  const std::string want = document();

  ThreadPool& pool = default_pool();
  const unsigned tasks = pool.size();
  std::vector<std::string> got(tasks);
  std::mutex mu;
  std::condition_variable cv;
  unsigned started = 0;
  unsigned done = 0;
  for (unsigned i = 0; i < tasks; ++i) {
    pool.submit([&, i] {
      {
        std::unique_lock lock(mu);
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started == tasks; });
      }
      std::string doc = document();
      // The waiter returns only after this unlock: the frame outlives
      // every touch.
      std::scoped_lock lock(mu);
      got[i] = std::move(doc);
      ++done;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done == tasks; });
  }
  for (unsigned i = 0; i < tasks; ++i) EXPECT_EQ(got[i], want) << "task " << i;
}

}  // namespace
}  // namespace pv
