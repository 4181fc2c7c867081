// Synchronization primitives for simulated tasks.
//
// Event    — one-shot broadcast flag (awaitable).
// Counter  — monotonically increasing 64-bit value with awaitable
//            "wait until value >= threshold, or time out". This is the
//            exact semantic UCR's active-message counters need (§IV-C of
//            the paper): origin/target/completion counters are Counters.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/time.hpp"

namespace rmc::sim {

/// One-shot broadcast event. Once set, all current and future waiters
/// proceed immediately.
class Event {
 public:
  explicit Event(Scheduler& sched) : sched_(&sched) {}

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sched_->resume_at(sched_->now(), h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      // rmclint:allow(zeroalloc): waiter vector reuses capacity reached during warmup
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Scheduler* sched_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Monotonic counter with threshold waits and timeouts.
///
/// wait_geq() resolves to true when the counter reaches the threshold and
/// to false if the timeout elapses first (or fail_waiters() runs). With
/// kNoTimeout it never times out. Multiple waiters with different
/// thresholds are supported.
///
/// Allocation: every wait registers an intrusive node living in the
/// awaiter itself (inside the suspended coroutine frame, whose address is
/// stable), so the steady-state request path never heap-allocates here. A
/// timed wait also arms a scheduler timer whose closure points at that
/// node. The timer never outlives the node: a wait that ends any other way
/// (threshold met, fail_waiters, frame destroyed) cancels it, so a
/// finished op leaves nothing queued behind it.
class Counter {
 public:
  explicit Counter(Scheduler& sched) : sched_(&sched) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  /// Detaches every waiter, so a frame still suspended here may be
  /// destroyed after the counter without touching it. A detached timed
  /// waiter still times out (resolves false).
  ~Counter() {
    for (auto& w : waiters_) w.node->registered = nullptr;
  }

  std::uint64_t value() const { return value_; }

  void add(std::uint64_t n = 1) {
    value_ += n;
    fire_ready();
  }

  /// Wake every current waiter with failure (wait_geq resolves false)
  /// without touching the value. Used when the thing being counted can
  /// never complete — e.g. the endpoint that would have bumped this
  /// counter died. Future waiters are unaffected.
  void fail_waiters() {
    for (auto& w : waiters_) wake(*w.node, /*failed=*/true);
    waiters_.clear();
  }

  /// Awaitable threshold wait; see class comment.
  auto wait_geq(std::uint64_t threshold, Time timeout = kNoTimeout) {
    struct Awaiter {
      Counter& counter;
      std::uint64_t threshold;
      Time timeout;
      Node node;

      Awaiter(Counter& c, std::uint64_t th, Time to)
          : counter(c), threshold(th), timeout(to) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;

      ~Awaiter() {
        // Frame destroyed while still waiting (teardown): unregister and
        // cancel the timer so neither touches freed memory.
        if (node.registered != nullptr) node.registered->deregister(&node);
        node.disarm();
      }

      bool await_ready() const noexcept { return counter.value_ >= threshold; }
      void await_suspend(std::coroutine_handle<> h) {
        counter.waits_metric_().inc();
        node.handle = h;
        node.registered = &counter;
        // rmclint:allow(zeroalloc): intrusive node lives in the coroutine frame; vector reuses capacity
        counter.waiters_.push_back({threshold, &node});
        if (timeout == kNoTimeout) return;
        node.timer_sched = counter.sched_;
        // rmclint:allow(coro-lifetime): the timer never outlives the node — a wait
        // that ends any other way, or a frame destroyed mid-wait, cancels it.
        node.timer = counter.sched_->call_in(timeout, [n = &node] { expire(*n); });
      }
      bool await_resume() const noexcept { return !node.failed; }
    };
    return Awaiter{*this, threshold, timeout};
  }

 private:
  struct Node {
    std::coroutine_handle<> handle;
    Counter* registered = nullptr;     // non-null while on the waiter list
    Scheduler* timer_sched = nullptr;  // non-null while `timer` is queued
    TimerId timer;
    bool failed = false;  // set before resuming by fail_waiters or the timer

    void disarm() {
      if (timer_sched == nullptr) return;
      timer_sched->cancel(timer);
      timer_sched = nullptr;
    }
  };

  struct Waiter {
    std::uint64_t threshold;
    Node* node;
  };

  static obs::Counter& waits_metric_() {
    static obs::Counter* c = &obs::registry().counter("sim.counter.waits");
    return *c;
  }

  /// The timeout fired first: leave the waiter list (the counter may
  /// already be gone) and resume with failure.
  static void expire(Node& node) {
    static obs::Counter* timeouts = &obs::registry().counter("sim.counter.timeouts");
    Scheduler* sched = node.timer_sched;
    node.timer_sched = nullptr;
    if (node.registered != nullptr) node.registered->deregister(&node);
    node.failed = true;
    timeouts->inc();
    sched->resume_at(sched->now(), node.handle);
  }

  /// End a wait that is on the list: the caller drops it from waiters_.
  void wake(Node& node, bool failed) {
    node.registered = nullptr;
    node.failed = failed;
    node.disarm();
    sched_->resume_at(sched_->now(), node.handle);
  }

  void deregister(Node* node) {
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].node == node) {
        waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
        node->registered = nullptr;
        return;
      }
    }
  }

  void fire_ready() {
    // Wake every waiter whose threshold is now met; compact the list
    // in place (capacity is retained, so steady state never reallocates).
    std::size_t keep = 0;
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      const Waiter w = waiters_[i];
      if (value_ >= w.threshold) {
        wake(*w.node, /*failed=*/false);
        continue;
      }
      waiters_[keep++] = w;
    }
    waiters_.resize(keep);  // rmclint:allow(zeroalloc): shrink-only compaction, capacity retained
  }

  Scheduler* sched_;
  std::uint64_t value_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace rmc::sim
