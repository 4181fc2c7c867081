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
#include <memory>
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
/// to false if the timeout elapses first. With kNoTimeout it never times
/// out. Multiple waiters with different thresholds are supported.
///
/// Allocation: a kNoTimeout wait registers an intrusive node living in the
/// awaiter itself (inside the suspended coroutine frame, whose address is
/// stable), so the steady-state request path never heap-allocates here.
/// Timed waits still share state with their timer closure via shared_ptr —
/// the timer can outlive both the waiter and the Counter, so intrusive
/// registration would dangle.
class Counter {
 public:
  explicit Counter(Scheduler& sched) : sched_(&sched) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;
  /// Detaches every intrusive waiter, so a frame still suspended here may
  /// be destroyed after the counter without touching it.
  ~Counter() {
    for (auto& w : waiters_) {
      if (w.node != nullptr) w.node->registered = nullptr;
    }
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
    for (auto& w : waiters_) {
      if (w.node != nullptr) {
        w.node->registered = nullptr;
        w.node->failed = true;
        sched_->resume_at(sched_->now(), w.node->handle);
      } else {
        if (w.state->done) continue;
        w.state->done = true;
        w.state->success = false;
        sched_->resume_at(sched_->now(), w.state->handle);
      }
    }
    waiters_.clear();
  }

  /// Awaitable threshold wait; see class comment.
  auto wait_geq(std::uint64_t threshold, Time timeout = kNoTimeout) {
    struct Awaiter {
      Counter& counter;
      std::uint64_t threshold;
      Time timeout;
      IntrusiveWaiter node;              // kNoTimeout: lives in this frame
      std::shared_ptr<WaitState> state;  // timed: shared with the timer

      Awaiter(Counter& c, std::uint64_t th, Time to)
          : counter(c), threshold(th), timeout(to) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;

      ~Awaiter() {
        // Frame destroyed while still waiting (teardown): unregister so
        // the counter never touches freed memory.
        if (node.registered != nullptr) node.registered->deregister(&node);
      }

      bool await_ready() const noexcept { return counter.value_ >= threshold; }
      void await_suspend(std::coroutine_handle<> h) {
        counter.waits_metric_().inc();
        if (timeout == kNoTimeout) {
          node.handle = h;
          node.registered = &counter;
          // rmclint:allow(zeroalloc): intrusive node lives in the coroutine frame; vector reuses capacity
          counter.waiters_.push_back({threshold, &node, nullptr});
          return;
        }
        // rmclint:allow(zeroalloc): timed waits allocate by design and are metered via sim.counter.waits; hot paths use kNoTimeout
        state = std::make_shared<WaitState>();
        state->handle = h;
        // rmclint:allow(zeroalloc): waiter vector reuses capacity reached during warmup
        counter.waiters_.push_back({threshold, nullptr, state});
        auto s = state;
        auto* sched = counter.sched_;
        sched->call_in(timeout, [s, sched] {
          if (s->done) return;
          s->done = true;
          s->success = false;
          obs::registry().counter("sim.counter.timeouts").inc();
          sched->resume_at(sched->now(), s->handle);
        });
      }
      bool await_resume() const noexcept {
        return state == nullptr ? !node.failed : state->success;
      }
    };
    return Awaiter{*this, threshold, timeout};
  }

 private:
  struct WaitState {
    bool done = false;
    bool success = false;
    std::coroutine_handle<> handle;
  };

  struct IntrusiveWaiter {
    std::coroutine_handle<> handle;
    Counter* registered = nullptr;  // non-null while on the waiter list
    bool failed = false;            // set by fail_waiters before resuming
  };

  struct Waiter {
    std::uint64_t threshold;
    IntrusiveWaiter* node;  // non-null: intrusive (no timeout)
    std::shared_ptr<WaitState> state;
  };

  static obs::Counter& waits_metric_() {
    static obs::Counter* c = &obs::registry().counter("sim.counter.waits");
    return *c;
  }

  void deregister(IntrusiveWaiter* node) {
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
      auto& w = waiters_[i];
      if (w.node != nullptr) {
        if (value_ >= w.threshold) {
          w.node->registered = nullptr;
          sched_->resume_at(sched_->now(), w.node->handle);
          continue;
        }
      } else {
        if (w.state->done) continue;  // timed out already; drop
        if (value_ >= w.threshold) {
          w.state->done = true;
          w.state->success = true;
          sched_->resume_at(sched_->now(), w.state->handle);
          continue;
        }
      }
      if (keep != i) waiters_[keep] = std::move(w);
      ++keep;
    }
    waiters_.resize(keep);  // rmclint:allow(zeroalloc): shrink-only compaction, capacity retained
  }

  Scheduler* sched_;
  std::uint64_t value_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace rmc::sim
