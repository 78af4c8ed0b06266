//===--- ThreadPool.h - Minimal thread pool for batch drivers ---*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the batch simulation API and the
/// campaign drivers (simulateMany, runTelechatMany, mcompareMany). The
/// enumerator itself uses the work-stealing ShardScheduler instead; this
/// pool is for embarrassingly parallel "one task per litmus test" loops
/// where results are written to pre-sized slots, keeping output order
/// deterministic regardless of scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_THREADPOOL_H
#define TELECHAT_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace telechat {

/// Upper bound of every user-facing jobs knob (the tools' -j flags).
constexpr unsigned kMaxJobs = 4096;

/// Resolves a user-facing jobs knob: 0 means "one per hardware thread",
/// anything else is taken literally (floored at 1).
inline unsigned resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

class ThreadPool {
public:
  explicit ThreadPool(unsigned Workers = 0) : Count(resolveJobs(Workers)) {
    Threads.reserve(Count);
    for (unsigned I = 0; I != Count; ++I)
      Threads.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Shutdown = true;
    }
    TaskReady.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  unsigned size() const { return Count; }

  /// Enqueues one task.
  void submit(std::function<void()> Task) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Tasks.push_back(std::move(Task));
      ++Pending;
    }
    TaskReady.notify_one();
  }

  /// Blocks until every submitted task has finished.
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    AllDone.wait(Lock, [this] { return Pending == 0; });
  }

  /// Runs Body(I) for I in [0, N), spread over the pool; blocks until all
  /// iterations complete. Iterations must be independent.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
    if (N == 0)
      return;
    if (Count == 1 || N == 1) {
      for (size_t I = 0; I != N; ++I)
        Body(I);
      return;
    }
    auto Next = std::make_shared<std::atomic<size_t>>(0);
    size_t Lanes = Count < N ? Count : N;
    for (size_t L = 0; L != Lanes; ++L)
      submit([Next, N, &Body] {
        for (size_t I = Next->fetch_add(1); I < N; I = Next->fetch_add(1))
          Body(I);
      });
    wait();
  }

private:
  void workerLoop() {
    while (true) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(M);
        TaskReady.wait(Lock, [this] { return Shutdown || !Tasks.empty(); });
        if (Tasks.empty())
          return; // Shutdown with a drained queue.
        Task = std::move(Tasks.front());
        Tasks.pop_front();
      }
      Task();
      {
        std::lock_guard<std::mutex> Lock(M);
        if (--Pending == 0)
          AllDone.notify_all();
      }
    }
  }

  unsigned Count;
  std::vector<std::thread> Threads;
  std::deque<std::function<void()>> Tasks;
  std::mutex M;
  std::condition_variable TaskReady;
  std::condition_variable AllDone;
  size_t Pending = 0;
  bool Shutdown = false;
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_THREADPOOL_H
