#include "util/parallel.hpp"

#include <cstdlib>
#include <deque>

namespace mrwsn::util {

namespace {

/// Spin-wait budget before parking on a condition variable: pure spins
/// first (dispatch gaps between MAC windows are usually sub-microsecond,
/// so most waits resolve here), then a handful of yields for the oversized
/// pool case, then give up and let the caller block.
constexpr int kSpinsBeforeYield = 4096;
constexpr int kYieldsBeforePark = 64;

template <typename Pred>
bool spin_briefly(Pred&& ready) {
  for (int spins = 0; spins < kSpinsBeforeYield; ++spins)
    if (ready()) return true;
  for (int yields = 0; yields < kYieldsBeforePark; ++yields) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// One parallel_for call in flight: the type-erased body and the shared
/// index its participants drain. Lives on the calling thread's stack.
struct FanOutJob {
  std::size_t count = 0;
  void (*invoke)(void* body, std::size_t i) = nullptr;
  void* body = nullptr;
  std::atomic<std::size_t> next{0};
  // Guarded by FanOutPool::mu_.
  std::size_t open_slots = 0;  ///< helpers that may still join
  std::size_t active = 0;      ///< helpers currently draining
  std::exception_ptr error;    ///< first exception thrown by any participant
};

/// The process-wide helpers behind parallel_for. Workers start lazily, the
/// first time a call asks for more helpers than exist, and then live until
/// exit, parked on work_cv_ between calls. A worker joins the oldest job
/// with an open helper slot, drains its index, and leaves; the caller
/// closes its job's open slots once its own draining ends and waits only
/// for the helpers that actually joined. Nobody ever waits for an idle
/// worker, so nested and concurrent calls cannot deadlock, and a call
/// whose helpers are all busy elsewhere simply runs on its caller.
class FanOutPool {
 public:
  static FanOutPool& instance() {
    static FanOutPool pool;
    return pool;
  }

  FanOutPool(const FanOutPool&) = delete;
  FanOutPool& operator=(const FanOutPool&) = delete;

  void run(FanOutJob& job, std::size_t helpers) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < helpers)
        threads_.emplace_back([this] { worker_loop(); });
      job.open_slots = helpers;
      open_.push_back(&job);
    }
    for (std::size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
    drain(job);
    std::unique_lock<std::mutex> lock(mu_);
    if (job.open_slots > 0) {
      open_.erase(std::find(open_.begin(), open_.end(), &job));
      job.open_slots = 0;
    }
    left_cv_.wait(lock, [&] { return job.active == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  FanOutPool() = default;

  ~FanOutPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& th : threads_) th.join();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !open_.empty(); });
      if (stop_) return;
      FanOutJob& job = *open_.front();
      if (--job.open_slots == 0) open_.pop_front();
      ++job.active;
      lock.unlock();
      drain(job);
      lock.lock();
      if (--job.active == 0) left_cv_.notify_all();
    }
  }

  /// Run the job's remaining indices on this thread. The first exception
  /// is recorded and ends the job: no participant starts another index.
  void drain(FanOutJob& job) {
    for (;;) {
      const std::size_t i = job.next.fetch_add(1);
      if (i >= job.count) return;
      try {
        job.invoke(job.body, i);
      } catch (...) {
        job.next.store(job.count);
        const std::lock_guard<std::mutex> lock(mu_);
        if (!job.error) job.error = std::current_exception();
        return;
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a job has an open helper slot
  std::condition_variable left_cv_;  ///< a helper left its job
  std::deque<FanOutJob*> open_;  ///< jobs with open slots, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< declared last: they use the above
};

}  // namespace

WorkerPool::WorkerPool(std::size_t threads)
    : size_(threads == 0 ? configured_threads() : threads) {
  threads_.reserve(size_ > 0 ? size_ - 1 : 0);
  for (std::size_t i = 1; i < size_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(wake_mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& th : threads_) th.join();
}

void WorkerPool::run(const std::function<void(std::size_t)>& fn) {
  if (size_ <= 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  done_.store(0, std::memory_order_relaxed);
  {
    // Advancing the epoch under wake_mu_ closes the race with a worker
    // that checked the epoch, exhausted its spin budget, and is about to
    // park: it either sees the new epoch inside wait()'s predicate or is
    // already waiting when notify_all lands.
    const std::lock_guard<std::mutex> lock(wake_mu_);
    epoch_.fetch_add(1, std::memory_order_release);  // publishes job_
  }
  wake_cv_.notify_all();
  try {
    fn(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!error_) error_ = std::current_exception();
  }
  const std::size_t others = size_ - 1;
  const auto all_done = [&] {
    return done_.load(std::memory_order_acquire) == others;
  };
  if (!spin_briefly(all_done)) {
    std::unique_lock<std::mutex> lock(wake_mu_);
    done_cv_.wait(lock, all_done);
  }
  job_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void WorkerPool::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    const auto job_ready = [&] {
      return epoch_.load(std::memory_order_acquire) != seen;
    };
    if (!spin_briefly(job_ready)) {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, job_ready);
    }
    seen = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    try {
      (*job_)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
    if (done_.fetch_add(1, std::memory_order_release) + 1 == size_ - 1) {
      // Last one out wakes a parked caller. The empty critical section
      // orders this increment against the caller's predicate check, so
      // the notify cannot slip between its check and its wait.
      { const std::lock_guard<std::mutex> lock(wake_mu_); }
      done_cv_.notify_one();
    }
  }
}

std::size_t configured_threads() {
  if (const char* env = std::getenv("MRWSN_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);  // overflow saturates: clamped
    if (end != env && *end == '\0' && v >= 1)
      return std::min(static_cast<std::size_t>(v), kMaxThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, kMaxThreads);
}

namespace detail {

void run_fan_out(std::size_t count, std::size_t helpers,
                 void (*invoke)(void* body, std::size_t i), void* body) {
  FanOutJob job;
  job.count = count;
  job.invoke = invoke;
  job.body = body;
  FanOutPool::instance().run(job, helpers);
}

}  // namespace detail

}  // namespace mrwsn::util
