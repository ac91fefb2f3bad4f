#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

/// MRWSN_THREADS-aware fan-out shared by the Eq. 9 rate-vector sweep
/// (core/bounds.cpp), the column-generation pricing oracles
/// (core/independent_set.cpp) and batch admission queries. Callers write
/// results into indexed slots and reduce serially, so any thread count
/// produces identical results.
namespace mrwsn::util {

/// Ceiling on configured_threads(). The fan-out pool keeps every worker it
/// ever started, so an absurd MRWSN_THREADS (a typo, an overflowed number)
/// must not turn into thousands of parked threads.
inline constexpr std::size_t kMaxThreads = 256;

/// Worker count for indexed fan-outs: MRWSN_THREADS when set (>= 1;
/// 1 = deterministic serial execution), else the hardware concurrency;
/// either way clamped to kMaxThreads.
std::size_t configured_threads();

namespace detail {

/// Run invoke(body, i) for every i in [0, count) on the calling thread plus
/// up to `helpers` fan-out pool workers (see parallel_for).
void run_fan_out(std::size_t count, std::size_t helpers,
                 void (*invoke)(void* body, std::size_t i), void* body);

}  // namespace detail

/// Run fn(i) for every i in [0, count) on min(configured_threads(), count)
/// threads: the calling thread plus workers of one process-wide pool, all
/// pulling from a shared atomic index. The pool starts workers lazily and
/// keeps them parked on a condition variable between calls, so a call
/// costs a wake-up instead of a thread spawn and join. The caller drains
/// the index too, so a nested call (from inside fn) or calls from several
/// threads at once always make progress, even when every worker is busy.
/// The first exception thrown by fn stops further indices from starting
/// and is rethrown on the calling thread after every helper left the call.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn) {
  const std::size_t threads = std::min(configured_threads(), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  using Body = std::remove_reference_t<Fn>;
  detail::run_fan_out(
      count, threads - 1,
      [](void* body, std::size_t i) { (*static_cast<Body*>(body))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// A persistent pool of spinning workers for fine-grained, repeated
/// fan-outs. util::parallel_for wakes parked workers through a mutex and a
/// condition variable per call (fine for the colgen oracles, whose tasks
/// run for milliseconds); the sharded MAC simulator (mac/parallel_sim.*)
/// instead crosses a barrier every lookahead window — tens of thousands of
/// times per simulated second — so even a condition-variable wake-up per
/// window would dwarf the event work. WorkerPool keeps its workers alive
/// between run() calls and synchronizes them with an epoch counter.
/// Waiters spin on it for a bounded budget — dispatch gaps between MAC
/// windows are usually sub-microsecond, so the fast path stays a few
/// microseconds per round trip — and then park on a condition variable, so
/// an idle pool (a serve session between requests, a bench harness between
/// traces) costs no CPU instead of burning cores.
///
/// run(fn) invokes fn(worker) once per worker, including worker 0 on the
/// calling thread. Workers partition their work statically from the worker
/// index (see member `size()`), so a run's side effects are deterministic
/// for any pool size as long as the per-worker work is.
class WorkerPool {
 public:
  /// `threads` total workers (including the caller); 0 means
  /// configured_threads().
  explicit WorkerPool(std::size_t threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const { return size_; }

  /// Run fn(worker) for worker in [0, size()); fn(0) runs on the calling
  /// thread. Returns when every worker finished. The first exception
  /// thrown by any worker is rethrown here.
  void run(const std::function<void(std::size_t)>& fn);

  /// Static contiguous block [begin, end) of `count` items for `worker`.
  std::pair<std::size_t, std::size_t> block(std::size_t worker,
                                            std::size_t count) const {
    const std::size_t base = count / size_, extra = count % size_;
    const std::size_t begin = worker * base + std::min(worker, extra);
    return {begin, begin + base + (worker < extra ? 1 : 0)};
  }

 private:
  void worker_loop(std::size_t index);

  std::size_t size_ = 1;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> stop_{false};
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::mutex error_mu_;
  std::exception_ptr error_;
  // Parking lot for waits that outlive the spin budget. epoch_ advances
  // while holding wake_mu_, which closes the checked-then-slept race.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;   ///< workers waiting for the next job
  std::condition_variable done_cv_;   ///< caller waiting for the last worker
};

}  // namespace mrwsn::util
