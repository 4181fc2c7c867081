// Unit tests for the discrete-event substrate: scheduler ordering, task
// composition, events, counters (incl. timeout races), channels, CPU
// occupancy, fabric timing, and the move-only function wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "simnet/channel.hpp"
#include "simnet/cpu.hpp"
#include "simnet/event.hpp"
#include "simnet/fabric.hpp"
#include "simnet/netparams.hpp"
#include "simnet/scheduler.hpp"
#include "simnet/task.hpp"
#include "simnet/unique_function.hpp"

namespace rmc::sim {
namespace {

using namespace rmc::literals;

// ---------------------------------------------------------- scheduler ----

TEST(Scheduler, EventsFireInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.call_at(30, [&] { order.push_back(3); });
  sched.call_at(10, [&] { order.push_back(1); });
  sched.call_at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, SameTimeFiresInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sched.call_at(5, [&, i] { order.push_back(i); });
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, CallbacksCanScheduleMore) {
  Scheduler sched;
  int hits = 0;
  sched.call_at(1, [&] {
    ++hits;
    sched.call_in(1, [&] { ++hits; });
  });
  sched.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sched.now(), 2u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int hits = 0;
  sched.call_at(10, [&] { ++hits; });
  sched.call_at(100, [&] { ++hits; });
  sched.run_until(50);
  EXPECT_EQ(hits, 1);
  sched.run();
  EXPECT_EQ(hits, 2);
}

TEST(Scheduler, EventsProcessedCounts) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) sched.call_at(i, [] {});
  sched.run();
  EXPECT_EQ(sched.events_processed(), 5u);
}

/// Records how many candidates each same-time race offered, and always
/// takes the first (the default schedule).
struct RecordingTieBreaker final : TieBreaker {
  std::vector<std::size_t> races;
  std::size_t pick(Time, std::size_t ready) override {
    races.push_back(ready);
    return 0;
  }
};

TEST(Scheduler, CancelKeepsSameTimeOrderOfTheRest) {
  for (const bool with_breaker : {false, true}) {
    Scheduler sched;
    RecordingTieBreaker breaker;
    if (with_breaker) sched.set_tie_breaker(&breaker);
    std::vector<int> order;
    sched.call_at(5, [&] { order.push_back(1); });
    const TimerId timer = sched.call_at(5, [&] { order.push_back(99); });
    sched.call_at(5, [&] { order.push_back(2); });
    EXPECT_TRUE(sched.cancel(timer));
    sched.call_at(5, [&] { order.push_back(3); });
    EXPECT_EQ(sched.queued(), 3u);
    sched.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sched.events_processed(), 3u);
    if (with_breaker) {
      // The cancelled timer is never a candidate.
      EXPECT_EQ(breaker.races, (std::vector<std::size_t>{3, 2}));
    }
  }
}

TEST(Scheduler, CancelOfFiredOrReusedTimerRemovesNothing) {
  Scheduler sched;
  int fired = 0;
  EXPECT_FALSE(sched.cancel(TimerId{}));
  const TimerId first = sched.call_at(1, [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.cancel(first));  // already fired

  // The next event reuses the fired timer's slot; the stale id must not
  // reach it.
  const TimerId second = sched.call_at(10, [&] { fired += 10; });
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_FALSE(sched.cancel(first));
  EXPECT_EQ(sched.queued(), 1u);
  EXPECT_TRUE(sched.cancel(second));
  EXPECT_FALSE(sched.cancel(second));  // already cancelled
  EXPECT_EQ(sched.queued(), 0u);
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelFromTheMiddleOfALargeHeap) {
  Scheduler sched;
  std::vector<TimerId> ids;
  std::vector<Time> fired;
  for (Time t = 0; t < 200; ++t) {
    const Time at = (t * 37) % 101;  // scrambled, with repeats
    ids.push_back(sched.call_at(at, [&fired, at] { fired.push_back(at); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) EXPECT_TRUE(sched.cancel(ids[i]));
  sched.run();
  EXPECT_EQ(fired.size(), 200u - 67u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// --------------------------------------------------------------- task ----

Task<int> answer(Scheduler& sched) {
  co_await sched.delay(10);
  co_return 42;
}

Task<int> twice(Scheduler& sched) {
  const int a = co_await answer(sched);
  const int b = co_await answer(sched);
  co_return a + b;
}

TEST(Task, AwaitChainsAndReturnsValues) {
  Scheduler sched;
  int result = 0;
  sched.spawn([](Scheduler& s, int& out) -> Task<> {
    out = co_await twice(s);
  }(sched, result));
  sched.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sched.now(), 20u);
}

Task<int> thrower(Scheduler& sched) {
  co_await sched.delay(1);
  throw std::runtime_error("boom");
}

TEST(Task, ExceptionsPropagateAcrossCoAwait) {
  Scheduler sched;
  bool caught = false;
  sched.spawn([](Scheduler& s, bool& flag) -> Task<> {
    try {
      (void)co_await thrower(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(sched, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Task, BlockedRootIsReclaimedAtTeardown) {
  // A root blocked forever must not leak (ASAN would flag it).
  auto sched = std::make_unique<Scheduler>();
  auto ch = std::make_unique<Channel<int>>(*sched);
  sched->spawn([](Channel<int>& c) -> Task<> {
    (void)co_await c.recv();  // never satisfied
  }(*ch));
  sched->run();
  sched.reset();  // must destroy the suspended frame
  SUCCEED();
}

TEST(Task, SpawnManyRootsAllRun) {
  Scheduler sched;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    sched.spawn([](Scheduler& s, int& d, int delay) -> Task<> {
      co_await s.delay(static_cast<Time>(delay));
      ++d;
    }(sched, done, i));
  }
  sched.run();
  EXPECT_EQ(done, 100);
}

// -------------------------------------------------------------- event ----

TEST(Event, WakesAllWaiters) {
  Scheduler sched;
  Event ev(sched);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Event& e, int& w) -> Task<> {
      co_await e.wait();
      ++w;
    }(ev, woken));
  }
  sched.call_at(100, [&] { ev.set(); });
  sched.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Event, WaitAfterSetIsImmediate) {
  Scheduler sched;
  Event ev(sched);
  ev.set();
  bool ran = false;
  sched.spawn([](Event& e, bool& f) -> Task<> {
    co_await e.wait();
    f = true;
  }(ev, ran));
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.now(), 0u);
}

// ------------------------------------------------------------ counter ----

TEST(Counter, WaitGeqFiresWhenThresholdReached) {
  Scheduler sched;
  Counter c(sched);
  Time fired_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, Time& t) -> Task<> {
    const bool ok = co_await cc.wait_geq(3);
    EXPECT_TRUE(ok);
    t = s.now();
  }(sched, c, fired_at));
  sched.call_at(10, [&] { c.add(); });
  sched.call_at(20, [&] { c.add(); });
  sched.call_at(30, [&] { c.add(); });
  sched.run();
  EXPECT_EQ(fired_at, 30u);
  EXPECT_EQ(c.value(), 3u);
}

TEST(Counter, AlreadySatisfiedWaitIsImmediate) {
  Scheduler sched;
  Counter c(sched);
  c.add(5);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(5);
  }(c, ok));
  sched.run();
  EXPECT_TRUE(ok);
}

TEST(Counter, TimeoutFiresWhenCounterStalls) {
  Scheduler sched;
  Counter c(sched);
  bool ok = true;
  Time fired_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, bool& out, Time& t) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
    t = s.now();
  }(sched, c, ok, fired_at));
  sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(fired_at, 500u);
}

TEST(Counter, CounterBeatsTimeout) {
  Scheduler sched;
  Counter c(sched);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
  }(c, ok));
  sched.call_at(100, [&] { c.add(); });
  sched.run();
  EXPECT_TRUE(ok);
  // The add cancelled the t=500 timeout: nothing ran or stayed queued after.
  EXPECT_EQ(sched.now(), 100u);
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(Counter, TimedWaitThatSucceedsLeavesTheQueueEmpty) {
  Scheduler sched;
  Counter c(sched);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
  }(c, ok));
  sched.run_until(0);
  EXPECT_EQ(sched.queued(), 1u);  // the armed timeout
  c.add();                        // wakes the waiter, cancels its timer
  EXPECT_EQ(sched.queued(), 1u);  // just the resumption
  sched.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(sched.now(), 0u);
  EXPECT_EQ(sched.events_processed(), 2u);  // spawn + resume; no timer
}

TEST(Counter, FailWaitersCancelsTheTimeout) {
  Scheduler sched;
  Counter c(sched);
  bool ok = true;
  Time woke_at = 0;
  sched.spawn([](Scheduler& s, Counter& cc, bool& out, Time& t) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
    t = s.now();
  }(sched, c, ok, woke_at));
  sched.call_at(100, [&] { c.fail_waiters(); });
  sched.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(woke_at, 100u);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Counter, SimultaneousAddAndTimeoutIsDeterministic) {
  // Both the add and the timeout fire at t=500. The add was enqueued at
  // test-setup time (seq 1); the waiter's timeout lambda is only enqueued
  // when the spawned task first runs at t=0 (seq 2). Same-time events fire
  // in sequence order, so the add deterministically wins.
  Scheduler sched;
  Counter c(sched);
  bool ok = false;
  sched.spawn([](Counter& cc, bool& out) -> Task<> {
    out = co_await cc.wait_geq(1, 500);
  }(c, ok));
  sched.call_at(500, [&] { c.add(); });
  sched.run();
  EXPECT_TRUE(ok);
}

TEST(Counter, MultipleWaitersDifferentThresholds) {
  Scheduler sched;
  Counter c(sched);
  std::vector<int> order;
  for (int threshold : {3, 1, 2}) {
    sched.spawn([](Counter& cc, std::vector<int>& ord, int th) -> Task<> {
      co_await cc.wait_geq(static_cast<std::uint64_t>(th));
      ord.push_back(th);
    }(c, order, threshold));
  }
  sched.call_at(10, [&] { c.add(); });
  sched.call_at(20, [&] { c.add(); });
  sched.call_at(30, [&] { c.add(); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Counter, BatchAddWakesAllEligible) {
  Scheduler sched;
  Counter c(sched);
  int woken = 0;
  for (int th = 1; th <= 5; ++th) {
    sched.spawn([](Counter& cc, int& w, int th2) -> Task<> {
      co_await cc.wait_geq(static_cast<std::uint64_t>(th2));
      ++w;
    }(c, woken, th));
  }
  sched.call_at(1, [&] { c.add(10); });
  sched.run();
  EXPECT_EQ(woken, 5);
}

TEST(Counter, DestroyedBeforeItsSuspendedWaiter) {
  // Teardown order: a Counter owned by some fixture dies while a root
  // frame is still suspended on it; the Scheduler destroys that frame
  // later. The frame's awaiter must not touch the freed counter.
  bool resumed = false;
  {
    Scheduler sched;
    auto c = std::make_unique<Counter>(sched);
    sched.spawn([](Counter& cc, bool& out) -> Task<> {
      co_await cc.wait_geq(1);
      out = true;
    }(*c, resumed));
    sched.run();  // the root suspends on the counter
    c.reset();
  }  // ~Scheduler destroys the still-suspended frame
  EXPECT_FALSE(resumed);
}

TEST(Counter, FrameDestroyedMidTimedWaitLeavesNothingBehind) {
  // The scheduler's teardown destroys a frame suspended in a timed wait.
  // Its awaiter must leave the counter's list and cancel its timer.
  auto sched = std::make_unique<Scheduler>();
  Counter c(*sched);
  bool resumed = false;
  sched->spawn([](Counter& cc, bool& out) -> Task<> {
    co_await cc.wait_geq(1, 500);
    out = true;
  }(c, resumed));
  sched->run_until(100);
  EXPECT_EQ(sched->queued(), 1u);
  sched.reset();
  c.add();  // would wake the destroyed frame had it stayed on the list
  EXPECT_FALSE(resumed);
}

TEST(Counter, DestroyedBeforeItsTimedWaiter) {
  // A timed waiter outlives its counter: it still times out cleanly...
  {
    Scheduler sched;
    auto c = std::make_unique<Counter>(sched);
    bool ok = true;
    bool resumed = false;
    sched.spawn([](Counter& cc, bool& out, bool& res) -> Task<> {
      out = co_await cc.wait_geq(1, 500);
      res = true;
    }(*c, ok, resumed));
    sched.run_until(100);
    c.reset();
    sched.run();
    EXPECT_TRUE(resumed);
    EXPECT_FALSE(ok);
    EXPECT_EQ(sched.now(), 500u);
  }
  // ...or is destroyed, still suspended, by the scheduler's teardown.
  bool resumed = false;
  {
    Scheduler sched;
    auto c = std::make_unique<Counter>(sched);
    sched.spawn([](Counter& cc, bool& res) -> Task<> {
      co_await cc.wait_geq(1, 500);
      res = true;
    }(*c, resumed));
    sched.run_until(100);
    c.reset();
  }
  EXPECT_FALSE(resumed);
}

// ------------------------------------------------------------ channel ----

TEST(Channel, FifoDelivery) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      auto v = co_await c.recv();
      EXPECT_TRUE(v.has_value());
      if (v) out.push_back(*v);
    }
  }(ch, got));
  sched.call_at(10, [&] { ch.send(1); });
  sched.call_at(20, [&] {
    ch.send(2);
    ch.send(3);
  });
  sched.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, RecvBeforeSendSuspends) {
  Scheduler sched;
  Channel<std::string> ch(sched);
  Time got_at = 0;
  sched.spawn([](Scheduler& s, Channel<std::string>& c, Time& t) -> Task<> {
    auto v = co_await c.recv();
    EXPECT_EQ(*v, "hi");
    t = s.now();
  }(sched, ch, got_at));
  sched.call_at(77, [&] { ch.send("hi"); });
  sched.run();
  EXPECT_EQ(got_at, 77u);
}

TEST(Channel, CloseWakesWaitersWithNullopt) {
  Scheduler sched;
  Channel<int> ch(sched);
  bool closed_seen = false;
  sched.spawn([](Channel<int>& c, bool& f) -> Task<> {
    auto v = co_await c.recv();
    f = !v.has_value();
  }(ch, closed_seen));
  sched.call_at(5, [&] { ch.close(); });
  sched.run();
  EXPECT_TRUE(closed_seen);
}

TEST(Channel, DrainAfterCloseDeliversQueued) {
  Scheduler sched;
  Channel<int> ch(sched);
  ch.send(9);
  ch.close();
  std::vector<int> got;
  bool end_seen = false;
  sched.spawn([](Channel<int>& c, std::vector<int>& out, bool& end) -> Task<> {
    while (true) {
      auto v = co_await c.recv();
      if (!v) {
        end = true;
        co_return;
      }
      out.push_back(*v);
    }
  }(ch, got, end_seen));
  sched.run();
  EXPECT_EQ(got, std::vector<int>{9});
  EXPECT_TRUE(end_seen);
}

TEST(Channel, TryRecvNonBlocking) {
  Scheduler sched;
  Channel<int> ch(sched);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(4);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4);
}

TEST(Channel, MoveOnlyPayloads) {
  Scheduler sched;
  Channel<std::unique_ptr<int>> ch(sched);
  ch.send(std::make_unique<int>(31));
  int got = 0;
  sched.spawn([](Channel<std::unique_ptr<int>>& c, int& out) -> Task<> {
    auto v = co_await c.recv();
    out = **v;
  }(ch, got));
  sched.run();
  EXPECT_EQ(got, 31);
}

TEST(Channel, TwoConsumersShareStream) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> a, b;
  auto consumer = [](Channel<int>& c, std::vector<int>& out) -> Task<> {
    while (true) {
      auto v = co_await c.recv();
      if (!v) co_return;
      out.push_back(*v);
    }
  };
  sched.spawn(consumer(ch, a));
  sched.spawn(consumer(ch, b));
  sched.call_at(1, [&] { ch.send(1); });
  sched.call_at(2, [&] { ch.send(2); });
  sched.call_at(3, [&] { ch.close(); });
  sched.run();
  EXPECT_EQ(a.size() + b.size(), 2u);
}

// ---------------------------------------------------------------- cpu ----

TEST(Cpu, SingleCoreSerializes) {
  Scheduler sched;
  CpuResource cpu(sched, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(100);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  EXPECT_EQ(done, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(cpu.busy_ns(), 300u);
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Scheduler sched;
  CpuResource cpu(sched, 4);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(100);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  for (Time t : done) EXPECT_EQ(t, 100u);
}

TEST(Cpu, ZeroCostIsFree) {
  Scheduler sched;
  CpuResource cpu(sched, 1);
  bool ran = false;
  sched.spawn([](CpuResource& c, bool& f) -> Task<> {
    co_await c.consume(0);
    f = true;
  }(cpu, ran));
  sched.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.now(), 0u);
}

TEST(Cpu, OversubscribedQueuesFairly) {
  Scheduler sched;
  CpuResource cpu(sched, 2);
  std::vector<Time> done;
  for (int i = 0; i < 6; ++i) {
    sched.spawn([](Scheduler& s, CpuResource& c, std::vector<Time>& out) -> Task<> {
      co_await c.consume(50);
      out.push_back(s.now());
    }(sched, cpu, done));
  }
  sched.run();
  // 6 jobs x 50ns over 2 cores -> completion waves at 50, 100, 150.
  EXPECT_EQ(done, (std::vector<Time>{50, 50, 100, 100, 150, 150}));
}

// ------------------------------------------------------------- fabric ----

struct TestPacket : Packet {
  int tag;
  TestPacket(NicAddr s, NicAddr d, std::uint64_t bytes, int t)
      : Packet(s, d, bytes), tag(t) {}
};

TEST(Fabric, DeliversWithLatencyAndBandwidth) {
  Scheduler sched;
  Host h0(sched, 0, "n0", 8), h1(sched, 1, "n1", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 1000,
                                  .per_message_overhead_bytes = 0});
  Nic& a = fabric.add_nic(h0);
  Nic& b = fabric.add_nic(h1);

  Time delivered_at = 0;
  int tag = 0;
  sched.spawn([](Scheduler& s, Nic& nic, Time& t, int& tg) -> Task<> {
    auto p = co_await nic.inbox.recv();
    t = s.now();
    tg = static_cast<TestPacket&>(**p).tag;
  }(sched, b, delivered_at, tag));

  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 4000, 7));
  sched.run();
  // 4000 B at 1 B/ns + 1000 ns wire = 5000 ns.
  EXPECT_EQ(delivered_at, 5000u);
  EXPECT_EQ(tag, 7);
  EXPECT_EQ(a.tx_messages(), 1u);
  EXPECT_EQ(b.rx_messages(), 1u);
}

TEST(Fabric, SenderSerializationQueuesBackToBack) {
  Scheduler sched;
  Host h0(sched, 0, "n0", 8), h1(sched, 1, "n1", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 100,
                                  .per_message_overhead_bytes = 0});
  Nic& a = fabric.add_nic(h0);
  Nic& b = fabric.add_nic(h1);

  std::vector<Time> arrivals;
  sched.spawn([](Scheduler& s, Nic& nic, std::vector<Time>& out) -> Task<> {
    for (int i = 0; i < 2; ++i) {
      (void)co_await nic.inbox.recv();
      out.push_back(s.now());
    }
  }(sched, b, arrivals));

  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 1000, 0));
  fabric.transmit(std::make_unique<TestPacket>(a.addr(), b.addr(), 1000, 1));
  sched.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1100u);  // 1000 tx + 100 wire
  EXPECT_EQ(arrivals[1], 2100u);  // second waits for the first to serialize
}

TEST(Fabric, ReceiverCongestionFromManySenders) {
  Scheduler sched;
  Host server_host(sched, 0, "server", 8);
  Fabric fabric(sched, LinkParams{.bandwidth_Bpns = 1.0, .wire_latency = 100,
                                  .per_message_overhead_bytes = 0});
  Nic& server = fabric.add_nic(server_host);

  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<Time> arrivals;
  sched.spawn([](Scheduler& s, Nic& nic, std::vector<Time>& out) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      (void)co_await nic.inbox.recv();
      out.push_back(s.now());
    }
  }(sched, server, arrivals));

  for (int i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<Host>(sched, i + 1, "c", 8));
    Nic& cnic = fabric.add_nic(*hosts.back());
    fabric.transmit(std::make_unique<TestPacket>(cnic.addr(), server.addr(), 1000, i));
  }
  sched.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // All four senders transmit concurrently, but the server's receive link
  // serializes: deliveries are 1000 ns apart.
  EXPECT_EQ(arrivals[0], 1100u);
  EXPECT_EQ(arrivals[1], 2100u);
  EXPECT_EQ(arrivals[2], 3100u);
  EXPECT_EQ(arrivals[3], 4100u);
}

TEST(Fabric, LoopbackSkipsWire) {
  Scheduler sched;
  Host h(sched, 0, "n0", 8);
  Fabric fabric(sched, one_gige_link());
  Nic& a = fabric.add_nic(h);
  Time at = 0;
  sched.spawn([](Scheduler& s, Nic& nic, Time& t) -> Task<> {
    (void)co_await nic.inbox.recv();
    t = s.now();
  }(sched, a, at));
  fabric.transmit(std::make_unique<TestPacket>(a.addr(), a.addr(), 100, 0));
  sched.run();
  EXPECT_LT(at, one_gige_link().wire_latency);
}

TEST(Fabric, PresetsAreOrderedByBandwidth) {
  EXPECT_GT(ib_qdr_link().bandwidth_Bpns, ib_ddr_link().bandwidth_Bpns);
  EXPECT_GT(ib_ddr_link().bandwidth_Bpns, ten_gige_link().bandwidth_Bpns);
  EXPECT_GT(ten_gige_link().bandwidth_Bpns, one_gige_link().bandwidth_Bpns);
}

// ---------------------------------------------------- unique_function ----

TEST(UniqueFunction, InvokesInlineClosure) {
  int x = 0;
  UniqueFunction f([&x] { x = 5; });
  f();
  EXPECT_EQ(x, 5);
}

TEST(UniqueFunction, OwnsMoveOnlyCapture) {
  auto p = std::make_unique<int>(11);
  int got = 0;
  UniqueFunction f([p = std::move(p), &got] { got = *p; });
  f();
  EXPECT_EQ(got, 11);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  int calls = 0;
  UniqueFunction f([&calls] { ++calls; });
  UniqueFunction g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunction, LargeClosureGoesToHeap) {
  std::array<char, 256> big{};
  big[0] = 'a';
  char got = 0;
  UniqueFunction f([big, &got] { got = big[0]; });
  UniqueFunction g(std::move(f));
  g();
  EXPECT_EQ(got, 'a');
}

TEST(UniqueFunction, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    UniqueFunction f([counter] { (void)counter; });
    EXPECT_EQ(counter.use_count(), 2);
    UniqueFunction g(std::move(f));
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

}  // namespace
}  // namespace rmc::sim
