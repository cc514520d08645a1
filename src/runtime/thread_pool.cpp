#include "runtime/thread_pool.hpp"

#include <cstdlib>
#include <exception>

#include "runtime/analyze.hpp"
#include "util/check.hpp"

namespace stgraph {

thread_local bool ThreadPool::in_pool_job_ = false;

namespace {
unsigned default_workers() {
  if (const char* e = std::getenv("STGRAPH_NUM_THREADS")) {
    int n = std::atoi(e);
    if (n >= 1) return static_cast<unsigned>(n - 1);  // n lanes total
  }
  unsigned hc = std::thread::hardware_concurrency();
  if (hc <= 1) return 0;
  return hc - 1;  // caller thread is a lane too
}
}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(default_workers());
  return pool;
}

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_on_lanes(const std::function<void(unsigned)>& fn) {
  run_on_lanes_raw(
      [](void* ctx, unsigned lane) {
        (*static_cast<const std::function<void(unsigned)>*>(ctx))(lane);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

void ThreadPool::run_on_lanes_raw(RawJob fn, void* ctx) {
  if (workers_.empty() || in_pool_job_) {
    // Inline / reentrant execution: the caller covers every lane serially.
    // Reentrant launches see a single lane so grid math stays correct.
    fn(ctx, 0);
    return;
  }
  if (launching_.exchange(true, std::memory_order_acq_rel)) {
    throw StgError(
        "ThreadPool: launch from a second thread while another launch is in "
        "flight; the pool takes one launcher at a time — run concurrent "
        "pool-using code under ThreadPool::ScopedInline");
  }
  struct InFlight {
    std::atomic<bool>& flag;
    ~InFlight() { flag.store(false, std::memory_order_release); }
  } in_flight{launching_};
  {
    MutexLock lock(mu_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    pending_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();

  std::exception_ptr lane0_error;
  in_pool_job_ = true;
  try {
    fn(ctx, 0);  // lane 0 = calling thread
  } catch (...) {
    lane0_error = std::current_exception();
  }
  in_pool_job_ = false;

  {
    MutexLock lock(mu_);
    STG_BLOCKING_OK(
        "ThreadPool join: the pool takes one launcher at a time (a second "
        "launcher is refused), so this wait covers only the caller's own "
        "job on the workers and ends when that job does");
    while (pending_ != 0) cv_done_.wait(lock);
    job_fn_ = nullptr;
    job_ctx_ = nullptr;
  }
  if (lane0_error) std::rethrow_exception(lane0_error);
}

void ThreadPool::worker_loop(unsigned lane) {
  uint64_t seen = 0;
  for (;;) {
    RawJob job = nullptr;
    void* ctx = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) cv_start_.wait(lock);
      if (stop_) return;
      seen = generation_;
      job = job_fn_;
      ctx = job_ctx_;
    }
    in_pool_job_ = true;
    job(ctx, lane);
    in_pool_job_ = false;
    {
      MutexLock lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace stgraph
