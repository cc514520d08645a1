// Multi-worker thread-pool tests: these construct pools with explicit
// worker counts (independent of the host's core count and of the
// process-wide singleton) to exercise the synchronization paths — start
// broadcast, completion counting, reentrancy, and repeated launches —
// under real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "util/check.hpp"

namespace stgraph {
namespace {

TEST(ThreadPoolMt, AllLanesParticipate) {
  ThreadPool pool(3);  // 4 lanes total
  ASSERT_EQ(pool.lanes(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run_on_lanes([&](unsigned lane) { hits[lane].fetch_add(1); });
  for (unsigned l = 0; l < 4; ++l) EXPECT_EQ(hits[l].load(), 1) << l;
}

TEST(ThreadPoolMt, DistinctThreadsBackTheLanes) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.run_on_lanes([&](unsigned) {
    // Slow the lanes slightly so workers overlap rather than one thread
    // stealing all lanes (not possible here, but keeps the test honest).
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPoolMt, ManySequentialLaunchesStayConsistent) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 500; ++round) {
    pool.run_on_lanes([&](unsigned lane) {
      total.fetch_add(lane + 1, std::memory_order_relaxed);
    });
  }
  // Lanes 0,1,2 → 6 per round.
  EXPECT_EQ(total.load(), 500 * 6);
}

TEST(ThreadPoolMt, ReentrantLaunchRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> outer{0}, inner{0};
  pool.run_on_lanes([&](unsigned) {
    outer.fetch_add(1);
    pool.run_on_lanes([&](unsigned inner_lane) {
      // Reentrant call must degrade to inline single-lane execution.
      EXPECT_EQ(inner_lane, 0u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(outer.load(), 3);
  EXPECT_EQ(inner.load(), 3);
}

TEST(ThreadPoolMt, ParallelMutationHasNoLostUpdates) {
  ThreadPool pool(3);
  // Each lane owns a disjoint slice; no torn writes expected.
  std::vector<int> data(4096, 0);
  const std::size_t chunk = data.size() / pool.lanes();
  for (int round = 0; round < 50; ++round) {
    pool.run_on_lanes([&](unsigned lane) {
      const std::size_t b = lane * chunk;
      const std::size_t e = lane + 1 == pool.lanes() ? data.size() : b + chunk;
      for (std::size_t i = b; i < e; ++i) data[i] += 1;
    });
  }
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], 50) << i;
}

TEST(ThreadPoolMt, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1u);
  int runs = 0;
  pool.run_on_lanes([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolMt, DestructionJoinsCleanly) {
  // Construct/destruct repeatedly; TSAN/valgrind would flag leaks or
  // races, and a deadlock would hang the test.
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(2);
    std::atomic<int> n{0};
    pool.run_on_lanes([&](unsigned) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 3);
  }
}

TEST(ThreadPoolMt, ConcurrentLaunchFromSecondThreadIsRefused) {
  ThreadPool pool(3);
  constexpr std::size_t kItems = 4096;
  std::vector<std::atomic<int>> hits(kItems);
  std::atomic<bool> a_in_flight{false};
  std::atomic<bool> b_returned{false};

  // Thread A's launch stays in flight: its lane 0 does not return until
  // thread B's launch attempt has.
  std::thread a([&] {
    pool.run_on_lanes([&](unsigned lane) {
      if (lane == 0) {
        a_in_flight.store(true);
        while (!b_returned.load()) std::this_thread::yield();
      }
      const std::size_t chunk = kItems / pool.lanes();
      for (std::size_t i = lane * chunk; i < (lane + 1) * chunk; ++i)
        hits[i].fetch_add(1);
    });
  });
  while (!a_in_flight.load()) std::this_thread::yield();

  bool b_refused = false;
  std::atomic<int> b_lanes{0};
  std::thread b([&] {
    try {
      pool.run_on_lanes([&](unsigned) { b_lanes.fetch_add(1); });
    } catch (const StgError&) {
      b_refused = true;
    }
    b_returned.store(true);
  });
  b.join();
  a.join();

  EXPECT_TRUE(b_refused);
  EXPECT_EQ(b_lanes.load(), 0);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // The refusal leaves the pool intact: later launches run on every lane.
  std::vector<std::atomic<int>> later(pool.lanes());
  pool.run_on_lanes([&](unsigned lane) { later[lane].fetch_add(1); });
  for (unsigned l = 0; l < pool.lanes(); ++l) EXPECT_EQ(later[l].load(), 1) << l;
}

}  // namespace
}  // namespace stgraph
