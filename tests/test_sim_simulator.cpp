/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

using namespace corm::sim;

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.schedule(5, [&order, i] { order.push_back(i); });
    sim.runToCompletion();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime)
{
    Simulator sim;
    Tick seen = 0;
    sim.schedule(123, [&] { seen = sim.now(); });
    sim.runToCompletion();
    EXPECT_EQ(seen, 123u);
}

TEST(Simulator, RunUntilLeavesClockAtBoundary)
{
    Simulator sim;
    sim.schedule(500, [] {});
    sim.runUntil(100);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.runUntil(1000);
    EXPECT_EQ(sim.now(), 1000u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, EventsScheduledInPastRunNow)
{
    Simulator sim;
    sim.schedule(100, [] {});
    sim.runToCompletion();
    Tick fired_at = 0;
    sim.scheduleAt(5, [&] { fired_at = sim.now(); }); // 5 < now
    sim.runToCompletion();
    EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    EventId id = sim.schedule(10, [&] { ran = true; });
    sim.cancel(id);
    sim.runToCompletion();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire)
{
    Simulator sim;
    int runs = 0;
    EventId id = sim.schedule(10, [&] { ++runs; });
    sim.runToCompletion();
    sim.cancel(id); // already fired
    sim.cancel(id); // double cancel
    sim.cancel(invalidEventId);
    EXPECT_EQ(runs, 1);
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            sim.schedule(10, chain);
    };
    sim.schedule(10, chain);
    sim.runToCompletion();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, EventCanCancelAnotherPendingEvent)
{
    Simulator sim;
    bool victim_ran = false;
    EventId victim = sim.schedule(20, [&] { victim_ran = true; });
    sim.schedule(10, [&] { sim.cancel(victim); });
    sim.runToCompletion();
    EXPECT_FALSE(victim_ran);
}

TEST(Simulator, StepExecutesExactlyOneEvent)
{
    Simulator sim;
    int runs = 0;
    sim.schedule(1, [&] { ++runs; });
    sim.schedule(2, [&] { ++runs; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(runs, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, RequestStopHaltsRun)
{
    Simulator sim;
    int runs = 0;
    sim.schedule(10, [&] {
        ++runs;
        sim.requestStop();
    });
    sim.schedule(20, [&] { ++runs; });
    sim.runUntil(100);
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(sim.stopRequested());
    // Remaining events still pending.
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(Simulator, PendingEventsTracksQueue)
{
    Simulator sim;
    EventId a = sim.schedule(10, [] {});
    sim.schedule(20, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(a);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.runToCompletion();
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(PeriodicEvent, FiresAtFixedInterval)
{
    Simulator sim;
    std::vector<Tick> fires;
    PeriodicEvent tick(sim, 10, [&] { fires.push_back(sim.now()); });
    sim.runUntil(35);
    EXPECT_EQ(fires, (std::vector<Tick>{10, 20, 30}));
}

TEST(PeriodicEvent, HonorsStartOffset)
{
    Simulator sim;
    std::vector<Tick> fires;
    PeriodicEvent tick(sim, 10, [&] { fires.push_back(sim.now()); }, 3);
    sim.runUntil(25);
    EXPECT_EQ(fires, (std::vector<Tick>{3, 13, 23}));
}

TEST(PeriodicEvent, StopCeasesFiring)
{
    Simulator sim;
    int fires = 0;
    PeriodicEvent tick(sim, 10, [&] { ++fires; });
    sim.runUntil(25);
    tick.stop();
    EXPECT_FALSE(tick.running());
    sim.runUntil(100);
    EXPECT_EQ(fires, 2);
}

TEST(PeriodicEvent, DestructionCancelsCleanly)
{
    Simulator sim;
    int fires = 0;
    {
        PeriodicEvent tick(sim, 10, [&] { ++fires; });
        sim.runUntil(15);
    }
    sim.runUntil(100);
    EXPECT_EQ(fires, 1);
}

TEST(PeriodicEvent, DestroyedInsideItsOwnCallback)
{
    Simulator sim;
    int fires = 0;
    std::unique_ptr<PeriodicEvent> tick;
    tick = std::make_unique<PeriodicEvent>(sim, 10, [&] {
        if (++fires == 3)
            tick.reset();
    });
    sim.runUntil(100);
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(tick, nullptr);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    // The released timer is reused cleanly.
    int later = 0;
    PeriodicEvent again(sim, 10, [&] { ++later; });
    sim.runUntil(125);
    EXPECT_EQ(later, 2);
}

TEST(SimulatorTimer, FiresInScheduleOrderAmongEvents)
{
    Simulator sim;
    std::vector<int> order;
    Timer t(sim, [&] { order.push_back(2); });
    sim.scheduleAt(10, [&] { order.push_back(1); });
    t.arm(10);
    sim.scheduleAt(10, [&] { order.push_back(3); });
    EXPECT_TRUE(t.armed());
    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(sim.executedEvents(), 3u);
}

TEST(SimulatorTimer, BatchMemberThatDisarmsOrReArmsStopsTheFiring)
{
    // Four members share tick 10: an event, timers a and b, another
    // event. The first event disarms a and re-arms b at the same tick,
    // so neither timer's batch entry may run; b's new firing has a
    // later sequence number and joins the next batch.
    Simulator sim;
    std::vector<std::string> log;
    Timer a(sim, [&] { log.push_back("a"); });
    Timer b(sim, [&] { log.push_back("b"); });
    sim.scheduleAt(10, [&] {
        log.push_back("e");
        a.disarm();
        b.arm(10);
    });
    a.arm(10);
    b.arm(10);
    sim.scheduleAt(10, [&] { log.push_back("f"); });
    EXPECT_EQ(sim.pendingEvents(), 4u);
    sim.runToCompletion();
    EXPECT_EQ(log, (std::vector<std::string>{"e", "f", "b"}));
    EXPECT_EQ(sim.executedEvents(), 3u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTimer, StopMidBatchLeavesTheTimerPending)
{
    Simulator sim;
    int fired = 0;
    Timer t(sim, [&] { ++fired; });
    Timer parked(sim, [&] { fired += 100; });
    sim.scheduleAt(5, [&] { sim.requestStop(); });
    t.arm(5);
    parked.arm(5);
    sim.runUntil(100);
    EXPECT_TRUE(sim.stopRequested());
    EXPECT_EQ(sim.now(), 5u);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(sim.pendingEvents(), 2u);
    EXPECT_EQ(sim.nextEventAt(), 5u);
    // A parked firing is dropped by disarm() like any other.
    parked.disarm();
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(SimulatorTimer, PendingEventsAndNextEventAtCountArmedTimers)
{
    Simulator sim;
    Timer t(sim, [] {});
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.nextEventAt(), maxTick);
    t.arm(50);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventAt(), 50u);
    t.arm(30); // a re-arm replaces the firing
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventAt(), 30u);
    sim.scheduleAt(40, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    EXPECT_EQ(sim.nextEventAt(), 30u);
    t.disarm();
    t.disarm(); // idempotent
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventAt(), 40u);
    t.arm(45);
    EXPECT_EQ(sim.nextEventAt(), 40u);
    sim.runToCompletion();
    EXPECT_EQ(sim.now(), 45u);
    EXPECT_EQ(sim.executedEvents(), 2u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.tombstones(), 0u);
}

TEST(SimulatorTimer, RemovedInsideItsOwnCallbackLivesUntilItReturns)
{
    // The capture (80 bytes) is past SmallCallback's inline buffer, so
    // it lives on the heap: releasing it while the callback still runs
    // would be a use-after-free (the _asan twin catches it).
    Simulator sim;
    std::array<std::uint64_t, 8> big{};
    big.fill(7);
    std::uint64_t sum = 0;
    auto t = std::make_unique<Timer>();
    *t = Timer(sim, [&t, &sum, big] {
        t.reset(); // removes this very timer
        for (const std::uint64_t v : big)
            sum += v;
    });
    t->arm(10);
    sim.runToCompletion();
    EXPECT_EQ(sum, 56u);
    EXPECT_EQ(t, nullptr);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTimer, ManyTimersFireInTimeThenArmOrder)
{
    // More timers than one storage block, armed out of id order with
    // ties on the tick: the earliest-key scan must order by time, then
    // by arm order, and re-scan correctly after disarms and re-arms.
    Simulator sim;
    std::vector<int> order;
    std::vector<Timer> timers;
    constexpr int n = 40;
    for (int i = 0; i < n; ++i)
        timers.emplace_back(sim, [&order, i] { order.push_back(i); });
    for (int i = n - 1; i >= 0; --i)
        timers[i].arm(100 + (i % 5) * 10); // ids fall within a tick
    for (int i = 0; i < n; i += 7)
        timers[i].disarm();
    timers[3].arm(100); // re-armed: now last among tick 100
    std::vector<int> expect;
    for (int tick = 100; tick <= 140; tick += 10) {
        for (int i = n - 1; i >= 0; --i) {
            if (100 + (i % 5) * 10 == tick && i % 7 != 0 && i != 3)
                expect.push_back(i);
        }
        if (tick == 100)
            expect.push_back(3);
    }
    EXPECT_EQ(sim.pendingEvents(), expect.size());
    sim.runToCompletion();
    EXPECT_EQ(order, expect);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTimer, CallbackAddingTimersAcrossABlockRunsInPlace)
{
    // A timer's callback adds enough timers to start new storage
    // blocks, then reads its own (heap-stored) capture: the running
    // callback must not move (the _asan twin catches a use-after-free).
    // Removed timers' ids are reused.
    Simulator sim;
    std::vector<std::unique_ptr<Timer>> added;
    std::array<std::uint64_t, 8> big{};
    big.fill(3);
    std::uint64_t sum = 0;
    int fired = 0;
    std::vector<Timer> first;
    for (int i = 0; i < 15; ++i)
        first.emplace_back(sim, [] {});
    Timer grower(sim, [&, big] {
        for (int i = 0; i < 40; ++i) {
            added.push_back(std::make_unique<Timer>(sim, [&] { ++fired; }));
            added.back()->arm(sim.now() + 1 + i % 3);
        }
        for (const std::uint64_t v : big)
            sum += v;
    });
    grower.arm(5);
    sim.runUntil(5);
    EXPECT_EQ(sum, 24u);
    EXPECT_EQ(sim.pendingEvents(), 40u);
    first.clear(); // 15 ids go back on the free list
    for (int i = 0; i < 15; ++i) {
        added.push_back(std::make_unique<Timer>(sim, [&] { fired += 100; }));
        added.back()->arm(20);
    }
    sim.runToCompletion();
    EXPECT_EQ(fired, 40 + 1500);
    EXPECT_EQ(sim.now(), 20u);
    EXPECT_EQ(sim.executedEvents(), 1u + 40u + 15u);
}

TEST(Simulator, CancelAfterFireKeepsPendingCountCorrect)
{
    // Regression: cancelling an id whose event already fired used to
    // decrement the pending-event accounting a second time.
    Simulator sim;
    EventId fired = sim.schedule(10, [] {});
    sim.runToCompletion();
    sim.schedule(100, [] {});
    sim.schedule(200, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(fired); // stale id: must be a no-op
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.runToCompletion();
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, DoubleCancelKeepsPendingCountCorrect)
{
    Simulator sim;
    EventId id = sim.schedule(10, [] {});
    sim.schedule(20, [] {});
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.cancel(id);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.cancel(id); // second cancel of the same id: no-op
    EXPECT_EQ(sim.pendingEvents(), 1u);
    bool ran = false;
    sim.schedule(30, [&ran] { ran = true; });
    sim.runToCompletion();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, StaleIdAfterSlotReuseIsNoOp)
{
    // An id from a fired event must never cancel the event that
    // later reuses its slot (the generation tag protects it).
    Simulator sim;
    EventId old_id = sim.schedule(10, [] {});
    sim.runToCompletion();
    bool ran = false;
    sim.schedule(10, [&ran] { ran = true; }); // likely reuses the slot
    sim.cancel(old_id);
    sim.runToCompletion();
    EXPECT_TRUE(ran);
}

TEST(Simulator, SimultaneousEventCanCancelLaterSibling)
{
    // Two events at the same tick: the first cancels the second
    // mid-batch and it must not fire.
    Simulator sim;
    bool second_ran = false;
    EventId second = invalidEventId;
    sim.schedule(5, [&] { sim.cancel(second); });
    second = sim.schedule(5, [&] { second_ran = true; });
    sim.runToCompletion();
    EXPECT_FALSE(second_ran);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(Simulator, MassCancelCompactionPreservesOrder)
{
    // Cancel enough events to trip the amortized heap compaction and
    // verify the surviving events still run in (time, insertion)
    // order.
    Simulator sim;
    std::vector<EventId> doomed;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = static_cast<Tick>(10 + (i % 7) * 10);
        if (i % 3 == 0) {
            const int tag = i;
            sim.schedule(when, [&order, tag] { order.push_back(tag); });
        } else {
            doomed.push_back(sim.schedule(when, [] { FAIL(); }));
        }
    }
    for (EventId id : doomed)
        sim.cancel(id);
    sim.runToCompletion();
    ASSERT_EQ(order.size(), 334u);
    // Survivors at the same tick keep insertion order; across ticks,
    // time order. Reconstruct the expectation directly.
    std::vector<int> expected;
    for (int bucket = 0; bucket < 7; ++bucket)
        for (int i = 0; i < 1000; ++i)
            if (i % 3 == 0 && i % 7 == bucket)
                expected.push_back(i);
    EXPECT_EQ(order, expected);
}

TEST(Simulator, ExecutedEventsCounts)
{
    Simulator sim;
    EXPECT_EQ(sim.executedEvents(), 0u);
    sim.schedule(1, [] {});
    sim.schedule(2, [] {});
    EventId id = sim.schedule(3, [] {});
    sim.cancel(id); // cancelled events do not count as executed
    sim.runToCompletion();
    EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(SimulatorOrderedQueue, InterleavesWithTheHeapInScheduleOrder)
{
    Simulator sim;
    const Simulator::OrderedQueue q = sim.addOrderedQueue();
    std::vector<int> order;
    sim.scheduleInOrder(q, 10, [&] { order.push_back(1); });
    sim.scheduleAt(10, [&] { order.push_back(2); });
    sim.scheduleInOrder(q, 10, [&] { order.push_back(3); });
    sim.scheduleAt(5, [&] { order.push_back(0); });
    const EventId dead =
        sim.scheduleInOrder(q, 20, [&] { order.push_back(-1); });
    sim.scheduleInOrder(q, 30, [&] { order.push_back(5); });
    sim.scheduleAt(25, [&] { order.push_back(4); });
    sim.cancel(dead);
    EXPECT_EQ(sim.pendingEvents(), 6u);
    EXPECT_EQ(sim.nextEventAt(), 5u);
    sim.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(sim.orderedFallbacks(), 0u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorOrderedQueue, FallbackCountsExactlyTheOutOfOrderAppends)
{
    Simulator sim;
    const Simulator::OrderedQueue a = sim.addOrderedQueue();
    const Simulator::OrderedQueue b = sim.addOrderedQueue();
    std::vector<Tick> fired;
    const auto at = [&](Simulator::OrderedQueue q, Tick when) {
        sim.scheduleInOrder(q, when, [&] { fired.push_back(sim.now()); });
    };
    at(a, 100);
    at(a, 100); // a tie is in order
    at(a, 50);  // behind a's tail: fallback 1
    at(b, 40);  // queues are independent: b is empty
    at(a, 120);
    at(b, 30);  // fallback 2
    at(a, 110); // fallback 3: the tail is 120, not the fallen-back 50
    EXPECT_EQ(sim.orderedFallbacks(), 3u);

    sim.runUntil(100); // consumes 30, 40, 50 and both 100s
    at(a, 100);        // a still holds 120: fallback 4
    at(b, 100);        // b is used up, so any time is in order
    EXPECT_EQ(sim.orderedFallbacks(), 4u);
    at(a, 5);          // clamped to now (100), still behind 120: 5
    EXPECT_EQ(sim.orderedFallbacks(), 5u);
    sim.runToCompletion();
    EXPECT_EQ(fired, (std::vector<Tick>{30, 40, 50, 100, 100, 100, 100,
                                        100, 110, 120}));
    EXPECT_EQ(sim.orderedFallbacks(), 5u);

    // A used-up queue takes any time, even one before an entry it
    // swept dead ahead of the clock.
    sim.cancel(sim.scheduleInOrder(b, 500, [] {}));
    EXPECT_EQ(sim.nextEventAt(), maxTick);
    at(b, 200);
    EXPECT_EQ(sim.orderedFallbacks(), 5u);
    sim.runToCompletion();
    EXPECT_EQ(fired.back(), 200u);
    at(b, 50); // the past means now, as for scheduleAt()
    sim.runToCompletion();
    EXPECT_EQ(fired.back(), 200u);
    EXPECT_EQ(sim.orderedFallbacks(), 5u);
}

namespace {

/**
 * Reference model for the order-equivalence fuzz test: the
 * Simulator's public semantics — (when, seq) order, same-timestamp
 * batches, stop mid-batch, re-entrant runs — over a std::set, with
 * none of its data-structure tricks (slot table, tombstones, heap,
 * sorted run, ordered queues, timers, compaction). A timer is scheduleAt() plus cancel(): arming cancels
 * the pending firing and schedules a fresh one.
 */
class ReferenceSim
{
  public:
    using Key = std::pair<Tick, std::uint64_t>;

    Tick now() const { return clock; }
    std::size_t pendingEvents() const { return live.size(); }
    std::uint64_t executedEvents() const { return executed; }
    bool stopRequested() const { return stop; }
    void requestStop() { stop = true; }

    std::uint64_t
    scheduleAt(Tick when, std::function<void()> cb)
    {
        when = std::max(when, clock);
        live[++seq] = {when, std::move(cb)};
        queue.insert({when, seq});
        return seq;
    }

    void
    cancel(std::uint64_t id)
    {
        auto it = live.find(id);
        if (it == live.end())
            return;
        queue.erase({it->second.first, id});
        live.erase(it);
    }

    // Ordered queues are only a faster path to the same order.
    using OrderedQueue = int;
    OrderedQueue addOrderedQueue() { return 0; }

    std::uint64_t
    scheduleInOrder(OrderedQueue, Tick when, std::function<void()> cb)
    {
        return scheduleAt(when, std::move(cb));
    }

    using TimerId = std::size_t;

    TimerId
    addTimer(std::function<void()> cb)
    {
        timers.push_back({std::move(cb), 0});
        return timers.size() - 1;
    }

    void
    arm(TimerId t, Tick when)
    {
        cancel(timers[t].pending);
        timers[t].pending = scheduleAt(when, [this, t] {
            timers[t].pending = 0;
            timers[t].cb();
        });
    }

    void
    disarm(TimerId t)
    {
        cancel(timers[t].pending);
        timers[t].pending = 0;
    }

    void removeTimer(TimerId t) { disarm(t); }

    Tick
    nextEventAt() const
    {
        return queue.empty() ? maxTick : queue.begin()->first;
    }

    bool
    step()
    {
        if (queue.empty())
            return false;
        const Key k = *queue.begin();
        queue.erase(queue.begin());
        dispatch(k);
        return true;
    }

    void
    runUntil(Tick until)
    {
        stop = false;
        while (!stop && !queue.empty() && queue.begin()->first <= until) {
            const Tick when = queue.begin()->first;
            std::vector<Key> batch;
            while (!queue.empty() && queue.begin()->first == when) {
                batch.push_back(*queue.begin());
                queue.erase(queue.begin());
            }
            std::size_t i = 0;
            for (; i < batch.size() && !stop; ++i) {
                if (live.count(batch[i].second))
                    dispatch(batch[i]);
            }
            for (; i < batch.size(); ++i) {
                if (live.count(batch[i].second))
                    queue.insert(batch[i]);
            }
        }
        if (!stop && clock < until)
            clock = until;
    }

    void runFor(Tick d) { runUntil(clock + d); }

  private:
    void
    dispatch(const Key &k)
    {
        auto it = live.find(k.second);
        std::function<void()> cb = std::move(it->second.second);
        live.erase(it);
        clock = k.first;
        ++executed;
        cb();
    }

    Tick clock = 0;
    std::uint64_t seq = 0;
    std::uint64_t executed = 0;
    bool stop = false;
    std::set<Key> queue;
    std::map<std::uint64_t, std::pair<Tick, std::function<void()>>> live;
    struct RefTimer
    {
        std::function<void()> cb;
        std::uint64_t pending; ///< id of the armed firing; 0 if none
    };
    std::deque<RefTimer> timers; ///< a callback may add a timer
};

/** One observation: what happened, at which time, with what state. */
struct Obs
{
    char what; // 'd' dispatch, 'n' nextEventAt, 's' step, 'r' run end
    std::uint64_t tag;
    Tick now;
    std::uint64_t pending;
    std::uint64_t executed;
    Tick next;

    bool operator==(const Obs &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Obs &o)
{
    return os << o.what << " tag " << o.tag << " now " << o.now
              << " pending " << o.pending << " executed " << o.executed
              << " next " << o.next;
}

/**
 * A random program of schedules, cancels (stale ids included), mass
 * cancels, steps, runs and nested runs from inside callbacks, with
 * stops requested mid-batch. Every decision comes from @p seed, so
 * two queue implementations with the same semantics produce the
 * same observation log.
 *
 * With @p shallowFirst, a shallow phase comes first: about 48
 * pending events, each firing usually reschedules one near-future
 * event, as in the RUBiS platform. There the heap's root is vacant
 * whenever a callback runs (Simulator's lazy root), so the callbacks
 * push into the vacancy, cancel the next-earliest event, peek, step,
 * re-enter runs, stop mid-batch and force compaction while it is
 * vacant. Then four bulk loads above the spill size leave events
 * pending across spills and compactions. Without the shallow phase
 * the program is bulk-only, and its random draws do not depend on
 * the shallow phase's code.
 *
 * With @p ordered, part of the traffic goes through two ordered
 * queues: fixed-delay timers from callbacks (as fold flushes),
 * monotone runs (as barrier batches), deliberate out-of-order
 * appends that fall back to the heap, and cancels of queued
 * entries; the mass cancels, nested runs and spills then act on
 * them too. Without it, the program's random draws are those of the
 * two programs above.
 *
 * With @p timers, five re-armable timers join in. Main loops and
 * event callbacks arm, re-arm (twice in a row, too), disarm, and
 * remove and re-add them, often at the current tick, so a timer
 * shares a batch with the events and timers that change it. A
 * firing timer mostly re-arms itself from its own callback (as
 * PeriodicEvent does); it also stops the run mid-batch, re-enters
 * runs, peeks, schedules events and removes itself. Without it, the
 * random draws are those of the programs above.
 */
template <typename Sim>
std::vector<Obs>
runProgram(std::uint64_t seed, bool shallowFirst, bool ordered,
           bool timers = false)
{
    Sim sim;
    corm::sim::Rng rng(seed);
    std::vector<Obs> log;
    std::vector<std::uint64_t> ids; // by tag
    std::vector<Tick> whenOf;       // by tag
    // Pending events by (when, tag). Tags rise with the queues'
    // sequence numbers, so begin() is the next event to fire.
    std::set<std::pair<Tick, std::uint64_t>> pendingTags;
    int depth = 0;
    int nestedBulks = 0;  // armed for the final drain, see below
    bool shallow = false; // callbacks run the shallow-phase mix

    const auto observe = [&](char what, std::uint64_t tag) {
        log.push_back({what, tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), 0});
    };
    const auto observeNext = [&](std::uint64_t tag) {
        log.push_back({'n', tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), sim.nextEventAt()});
    };
    const auto observeStep = [&](std::uint64_t tag) {
        log.push_back({'s', tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), sim.step()});
    };
    std::function<void(Tick, Tick)> schedule;
    const std::array<typename Sim::OrderedQueue, 2> queues = {
        sim.addOrderedQueue(), sim.addOrderedQueue()};
    std::array<Tick, 2> lastAppend = {0, 0}; // latest time per queue
    constexpr std::array<Tick, 2> timerDelay = {7, 35};
    std::vector<std::uint64_t> orderedTags;
    std::function<void(std::size_t, Tick)> scheduleOrdered;
    /** An append no earlier than any before it on queue @p q. */
    const auto inOrder = [&](std::size_t q, Tick delay) {
        scheduleOrdered(q, std::max(sim.now(), lastAppend[q]) + delay);
    };
    /** A timer child on a random queue: in order unless a monotone
     *  run has appended further ahead. */
    const auto timerChild = [&] {
        const std::size_t q = rng.uniformInt(2);
        scheduleOrdered(q, sim.now() + timerDelay[q]);
    };
    const auto cancelTag = [&](std::uint64_t tag) {
        sim.cancel(ids[tag]);
        pendingTags.erase({whenOf[tag], tag});
    };
    const auto cancelNextEarliest = [&] {
        if (!pendingTags.empty())
            cancelTag(pendingTags.begin()->second);
    };
    /** Near-future delay; one in four lands on the current tick. */
    const auto nearDelay = [&]() -> Tick {
        return rng.uniformInt(4) == 0 ? 0 : 1 + rng.uniformInt(60);
    };
    constexpr std::size_t kTimers = 5;
    constexpr std::uint64_t timerTag = std::uint64_t{1} << 40;
    std::vector<typename Sim::TimerId> timerIds;
    std::function<void(std::size_t)> fireTimer;
    const auto addTimer = [&](std::size_t k) {
        return sim.addTimer([&fireTimer, k] { fireTimer(k); });
    };
    /** Arm, re-arm, disarm or replace a random timer. */
    const auto timerOp = [&] {
        const std::size_t k = rng.uniformInt(kTimers);
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 55) {
            sim.arm(timerIds[k], sim.now() + nearDelay());
        } else if (roll < 75) {
            sim.disarm(timerIds[k]);
        } else if (roll < 93) {
            // Re-armed twice: the first firing must never run.
            sim.arm(timerIds[k], sim.now() + nearDelay());
            sim.arm(timerIds[k], sim.now() + nearDelay());
        } else {
            sim.removeTimer(timerIds[k]);
            timerIds[k] = addTimer(k);
            sim.arm(timerIds[k], sim.now() + nearDelay());
        }
    };
    const auto shallowFire = [&](std::uint64_t tag) {
        if (ordered && rng.uniformInt(3) == 0) {
            timerChild(); // instead of the near-future reschedule
            return;
        }
        const std::size_t live = sim.pendingEvents();
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 55) {
            schedule(sim.now(), nearDelay());
        } else if (roll < 70) {
            // Cancel-and-reschedule, like a preempted segment end.
            cancelNextEarliest();
            schedule(sim.now(), nearDelay());
            schedule(sim.now(), nearDelay());
        } else if (roll < 77) {
            if (live < 24)
                schedule(sim.now(), nearDelay());
        } else if (roll < 84) {
            if (live < 96) {
                for (std::uint64_t k = 2 + rng.uniformInt(3); k > 0; --k)
                    schedule(sim.now(), nearDelay());
            }
        } else if (roll < 87) {
            observeNext(tag);
            schedule(sim.now(), nearDelay());
        } else if (roll < 90 && depth < 2) {
            ++depth;
            observeStep(tag);
            --depth;
            schedule(sim.now(), nearDelay());
        } else if (roll < 92 && depth < 2) {
            ++depth;
            sim.runFor(rng.uniformInt(30));
            --depth;
            observe('r', tag);
        } else if (roll < 94) {
            sim.requestStop();
            schedule(sim.now(), nearDelay());
        } else if (roll < 95) {
            // A burst, then a mass cancel: enough tombstones to
            // compact the heap from inside a callback.
            const std::uint64_t first = ids.size();
            for (int k = 0; k < 150; ++k)
                schedule(sim.now(), rng.uniformInt(200));
            for (std::uint64_t t = first; t < ids.size(); ++t) {
                if (rng.chance(0.8))
                    cancelTag(t);
            }
            observeNext(tag);
        } else {
            cancelTag(rng.uniformInt(ids.size()));
            schedule(sim.now(), nearDelay());
        }
    };
    const auto fire = [&](std::uint64_t tag) {
        pendingTags.erase({whenOf[tag], tag});
        observe('d', tag);
        if (timers && rng.uniformInt(4) == 0)
            timerOp();
        if (shallow) {
            shallowFire(tag);
            return;
        }
        if (ordered && rng.uniformInt(4) == 0)
            timerChild();
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 20) {
            // Children, some at this very timestamp (a later batch).
            const std::uint64_t kids = 1 + rng.uniformInt(3);
            for (std::uint64_t k = 0; k < kids; ++k)
                schedule(sim.now(), rng.uniformInt(3) * rng.uniformInt(50));
        } else if (roll < 30) {
            cancelTag(rng.uniformInt(ids.size()));
        } else if (roll < 33) {
            sim.requestStop();
        } else if (roll < 36 && depth < 2) {
            ++depth;
            sim.runFor(rng.uniformInt(40));
            --depth;
            observe('r', tag);
        } else if (roll < 40) {
            observeNext(tag);
        } else if (roll == 40 && depth == 0 && nestedBulks > 0) {
            // A bulk load plus a nested run from inside a batch: the
            // nested drain may spill while the outer batch still
            // holds popped entries, which a stop then pushes back
            // into the heap.
            --nestedBulks;
            for (int k = 0; k < 4500; ++k)
                schedule(sim.now(), rng.uniformInt(3) * rng.uniformInt(500));
            if (ordered) {
                for (int k = 0; k < 300; ++k)
                    inOrder(rng.uniformInt(2), rng.uniformInt(3));
            }
            ++depth;
            sim.runFor(rng.uniformInt(40));
            --depth;
            observe('r', tag);
        }
    };
    schedule = [&](Tick base, Tick delay) {
        const std::uint64_t tag = ids.size();
        ids.push_back(
            sim.scheduleAt(base + delay, [&fire, tag] { fire(tag); }));
        whenOf.push_back(base + delay);
        pendingTags.insert({base + delay, tag});
    };
    scheduleOrdered = [&](std::size_t q, Tick when) {
        const std::uint64_t tag = ids.size();
        ids.push_back(sim.scheduleInOrder(queues[q], when,
                                          [&fire, tag] { fire(tag); }));
        when = std::max(when, sim.now()); // both clamp the past
        whenOf.push_back(when);
        pendingTags.insert({when, tag});
        orderedTags.push_back(tag);
        lastAppend[q] = std::max(lastAppend[q], when);
    };
    fireTimer = [&](std::size_t k) {
        const std::uint64_t tag = timerTag + k;
        observe('d', tag);
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 45) {
            sim.arm(timerIds[k], sim.now() + nearDelay());
        } else if (roll < 60) {
            timerOp();
            timerOp();
        } else if (roll < 65) {
            sim.requestStop();
            sim.arm(timerIds[k], sim.now());
        } else if (roll < 70 && depth < 2) {
            ++depth;
            sim.runFor(rng.uniformInt(30));
            --depth;
            observe('r', tag);
        } else if (roll < 75) {
            observeNext(tag);
        } else if (roll < 85) {
            schedule(sim.now(), nearDelay());
        } else if (roll < 88) {
            // Removed from inside its own callback, then replaced.
            sim.removeTimer(timerIds[k]);
            timerIds[k] = addTimer(k);
        }
    };
    if (timers) {
        for (std::size_t k = 0; k < kTimers; ++k)
            timerIds.push_back(addTimer(k));
    }
    /** One ordered-queue operation of the main loops. */
    const auto orderedOp = [&] {
        const std::size_t q = rng.uniformInt(2);
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 45) {
            // A monotone run, many entries sharing a tick.
            for (std::uint64_t k = 1 + rng.uniformInt(200); k > 0; --k)
                inOrder(q, rng.uniformInt(3) * rng.uniformInt(8));
        } else if (roll < 65) {
            // Behind the queue's tail, some in the past: these fall
            // back to the heap unless the queue is used up.
            for (std::uint64_t k = 1 + rng.uniformInt(5); k > 0; --k)
                scheduleOrdered(q, std::max<Tick>(
                                       sim.now() + rng.uniformInt(30), 10)
                                       - 10);
        } else if (roll < 85) {
            for (std::uint64_t k = rng.uniformInt(30);
                 k > 0 && !orderedTags.empty(); --k)
                cancelTag(orderedTags[rng.uniformInt(orderedTags.size())]);
        } else {
            for (std::uint64_t k = rng.uniformInt(10); k > 0; --k)
                timerChild();
        }
    };

    if (shallowFirst) {
        shallow = true;
        for (int i = 0; i < 48; ++i)
            schedule(sim.now(), rng.uniformInt(60));
        for (int op = 0; op < 300; ++op) {
            if (timers && rng.uniformInt(5) == 0) {
                timerOp();
                observeNext(0);
                continue;
            }
            if (ordered && rng.uniformInt(5) == 0) {
                orderedOp();
                observeNext(0);
                continue;
            }
            const std::uint64_t roll = rng.uniformInt(100);
            if (roll < 60) {
                sim.runUntil(sim.now() + rng.uniformInt(100));
            } else if (roll < 75) {
                for (std::uint64_t k = rng.uniformInt(10); k > 0; --k)
                    observeStep(0);
            } else if (roll < 85) {
                sim.runFor(rng.uniformInt(300));
            } else if (roll < 90) {
                cancelNextEarliest();
            } else {
                for (std::uint64_t k = rng.uniformInt(8); k > 0; --k)
                    schedule(sim.now(), nearDelay());
            }
            observeNext(0);
        }
        shallow = false;
    }

    for (int bulk = 0; bulk < 4; ++bulk) {
        // Bulk load well above Simulator's spill size, spread over a
        // horizon with many same-timestamp ties.
        const std::uint64_t n = 5000 + rng.uniformInt(2000);
        for (std::uint64_t i = 0; i < n; ++i)
            schedule(sim.now(), rng.uniformInt(4000));
        for (int op = 0; op < 60; ++op) {
            if (timers && rng.uniformInt(5) == 0) {
                timerOp();
                observeNext(0);
                continue;
            }
            if (ordered && rng.uniformInt(4) == 0) {
                orderedOp();
                observeNext(0);
                continue;
            }
            const std::uint64_t roll = rng.uniformInt(100);
            if (roll < 30) {
                sim.runUntil(sim.now() + rng.uniformInt(200));
            } else if (roll < 45) {
                for (std::uint64_t k = rng.uniformInt(20); k > 0; --k)
                    observeStep(0);
            } else if (roll < 60) {
                for (std::uint64_t k = rng.uniformInt(50); k > 0; --k)
                    schedule(sim.now(), rng.uniformInt(3000));
            } else if (roll < 75) {
                for (std::uint64_t k = rng.uniformInt(50); k > 0; --k)
                    cancelTag(rng.uniformInt(ids.size()));
            } else if (roll < 80) {
                // Mass cancel: enough tombstones to force compaction
                // of both the heap and the run.
                for (std::uint64_t t = 0; t < ids.size(); ++t) {
                    if (rng.chance(0.7))
                        cancelTag(t);
                }
            } else {
                sim.runFor(rng.uniformInt(100));
            }
            observeNext(0);
        }
    }
    // Final drain: once it has used up the sorted run, a nested
    // bulk load finds the run empty and spills inside the batch.
    nestedBulks = 3;
    sim.runUntil(maxTick - 1);
    observe('r', 0);
    return log;
}

} // namespace

TEST(SimulatorFuzz, DispatchOrderMatchesReferenceModel)
{
    // Per seed: bulk-only, shallow phase first, with ordered queues
    // (shallow phase first on odd seeds), and with timers beside the
    // ordered queues (shallow phase first on even seeds).
    for (std::uint64_t i = 0; i < 48; ++i) {
        const std::uint64_t seed = 0x51de5eed00000000ULL + i / 4;
        const std::uint64_t mode = i % 4;
        const bool timers = mode == 3;
        const bool ordered = mode >= 2;
        const bool oddSeed = (i / 4) % 2 == 1;
        const bool shallowFirst =
            mode == 1 || (mode == 2 && oddSeed) || (timers && !oddSeed);
        const std::vector<Obs> got =
            runProgram<Simulator>(seed, shallowFirst, ordered, timers);
        const std::vector<Obs> want =
            runProgram<ReferenceSim>(seed, shallowFirst, ordered, timers);
        if (got == want)
            continue;
        const auto [g, w] =
            std::mismatch(got.begin(), got.end(), want.begin(), want.end());
        std::ostringstream where;
        where << "failing seed 0x" << std::hex << seed << std::dec
              << (shallowFirst ? " (shallow phase first)" : "")
              << (ordered ? " (ordered queues)" : "")
              << (timers ? " (timers)" : "")
              << ": diverges at observation " << (g - got.begin());
        if (g != got.end() && w != want.end())
            where << "\n  got  " << *g << "\n  want " << *w;
        FAIL() << where.str();
    }
}

namespace {

/**
 * A random program that mixes timelines with every other way of
 * scheduling: scheduleAt() events made before, after and from inside
 * handlers, scheduleInOrder() appends, cancels, steps, stops in
 * mid-batch and re-entrant runs. With @p asTimeline each timeline goes
 * through Simulator::scheduleTimeline; without it, the same ticks are
 * scheduled one scheduleAt() per index, in index order. The two must
 * log the same observations, draw for draw.
 */
std::vector<Obs>
runTimelineProgram(std::uint64_t seed, bool asTimeline)
{
    Simulator sim;
    Rng rng(seed);
    std::vector<Obs> log;
    std::vector<EventId> ids; // by tag; invalidEventId for timelines
    std::deque<std::function<void(std::size_t)>> handlers;
    int depth = 0;
    const Simulator::OrderedQueue queue = sim.addOrderedQueue();
    Tick lastAppend = 0;

    const auto observe = [&](char what, std::uint64_t tag) {
        log.push_back({what, tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), 0});
    };
    const auto observeNext = [&](std::uint64_t tag) {
        log.push_back({'n', tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), sim.nextEventAt()});
    };
    const auto observeStep = [&](std::uint64_t tag) {
        log.push_back({'s', tag, sim.now(), sim.pendingEvents(),
                       sim.executedEvents(), sim.step()});
    };
    std::function<void(std::uint64_t)> fire;
    const auto schedule = [&](Tick when) {
        const std::uint64_t tag = ids.size();
        ids.push_back(sim.scheduleAt(when, [&fire, tag] { fire(tag); }));
    };
    const auto append = [&](Tick delay) {
        const std::uint64_t tag = ids.size();
        lastAppend = std::max(lastAppend, sim.now()) + delay;
        ids.push_back(sim.scheduleInOrder(queue, lastAppend,
                                          [&fire, tag] { fire(tag); }));
    };
    /** A timeline of @p n events with many equal ticks, starting up
     *  to 40 ticks in the past (clamped to now). */
    const auto timeline = [&](std::uint64_t n) {
        std::vector<Tick> times;
        Tick t = sim.now() + rng.uniformInt(60);
        t = t > 40 ? t - 40 : 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            times.push_back(t);
            t += rng.uniformInt(3) * rng.uniformInt(6);
        }
        const std::uint64_t base = ids.size();
        ids.resize(ids.size() + n, invalidEventId);
        handlers.emplace_back(
            [&fire, base](std::size_t i) { fire(base + i); });
        const auto *h = &handlers.back();
        if (asTimeline) {
            sim.scheduleTimeline(std::move(times), *h);
            return;
        }
        for (std::size_t i = 0; i < times.size(); ++i)
            sim.scheduleAt(times[i], [h, i] { (*h)(i); });
    };
    const auto cancelSome = [&] {
        for (std::uint64_t k = rng.uniformInt(8); k > 0 && !ids.empty(); --k)
            sim.cancel(ids[rng.uniformInt(ids.size())]);
    };
    fire = [&](std::uint64_t tag) {
        observe('d', tag);
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 20) {
            // Children, some at this very timestamp (a later batch).
            for (std::uint64_t k = 1 + rng.uniformInt(3); k > 0; --k)
                schedule(sim.now() + rng.uniformInt(3) * rng.uniformInt(9));
        } else if (roll < 25) {
            timeline(1 + rng.uniformInt(40));
        } else if (roll < 32) {
            append(rng.uniformInt(3));
        } else if (roll < 38) {
            cancelSome();
        } else if (roll < 42) {
            sim.requestStop();
        } else if (roll < 46 && depth < 2) {
            ++depth;
            sim.runFor(rng.uniformInt(30));
            --depth;
            observe('r', tag);
        } else if (roll < 49 && depth < 2) {
            ++depth;
            observeStep(tag);
            --depth;
        } else if (roll < 53) {
            observeNext(tag);
        }
    };

    for (int op = 0; op < 400; ++op) {
        const std::uint64_t roll = rng.uniformInt(100);
        if (roll < 12) {
            timeline(1 + rng.uniformInt(300));
        } else if (roll < 14) {
            // Above the spill size: in the per-event program these
            // spill; as a timeline they never enter the heap.
            timeline(4500 + rng.uniformInt(1000));
        } else if (roll < 16) {
            // An unordered bulk load beside the timelines, spilled by
            // the next run in both programs.
            for (int k = 0; k < 4500; ++k)
                schedule(sim.now() + rng.uniformInt(2000));
        } else if (roll < 30) {
            for (std::uint64_t k = rng.uniformInt(20); k > 0; --k)
                schedule(sim.now() + rng.uniformInt(200));
        } else if (roll < 38) {
            for (std::uint64_t k = rng.uniformInt(20); k > 0; --k)
                append(rng.uniformInt(4));
        } else if (roll < 44) {
            cancelSome();
        } else if (roll < 70) {
            sim.runUntil(sim.now() + rng.uniformInt(150));
            observe('r', 0);
        } else if (roll < 82) {
            for (std::uint64_t k = rng.uniformInt(20); k > 0; --k)
                observeStep(0);
        } else {
            sim.runFor(rng.uniformInt(60));
            observe('r', 0);
        }
        observeNext(0);
    }
    sim.runToCompletion();
    observe('r', 0);
    return log;
}

} // namespace

TEST(SimulatorTimeline, MatchesPerEventScheduling)
{
    for (std::uint64_t seed = 0x7137e000; seed < 0x7137e000 + 12; ++seed) {
        const std::vector<Obs> got = runTimelineProgram(seed, true);
        const std::vector<Obs> want = runTimelineProgram(seed, false);
        if (got == want)
            continue;
        const auto [g, w] =
            std::mismatch(got.begin(), got.end(), want.begin(), want.end());
        std::ostringstream where;
        where << "failing seed 0x" << std::hex << seed << std::dec
              << ": diverges at observation " << (g - got.begin());
        if (g != got.end() && w != want.end())
            where << "\n  got  " << *g << "\n  want " << *w;
        FAIL() << where.str();
    }
}

TEST(Simulator, SpillsCountsEachHeapTurnedIntoTheRun)
{
    Simulator sim;
    int ran = 0;
    for (Tick i = 0; i < 5000; ++i)
        sim.scheduleAt((i * 7919) % 5000, [&ran] { ++ran; });
    EXPECT_EQ(sim.spills(), 0u);
    sim.runFor(10); // the heap is large and the run empty: it spills
    EXPECT_EQ(sim.spills(), 1u);
    sim.runFor(10); // the run still holds entries: no second spill
    EXPECT_EQ(sim.spills(), 1u);
    std::vector<Tick> times(5000, 100);
    sim.scheduleTimeline(std::move(times), [&ran](std::size_t) { ++ran; });
    sim.runToCompletion();
    EXPECT_EQ(sim.spills(), 1u); // a timeline never enters the heap
    EXPECT_EQ(ran, 10000);
}

TEST(SimulatorTimeline, RejectsDecreasingTicks)
{
    Simulator sim;
    int ran = 0;
    EXPECT_THROW(sim.scheduleTimeline({10, 20, 15},
                                      [&ran](std::size_t) { ++ran; }),
                 std::invalid_argument);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.nextEventAt(), maxTick);
    sim.scheduleTimeline({}, [&ran](std::size_t) { ++ran; });
    EXPECT_EQ(sim.pendingEvents(), 0u);
    sim.runToCompletion();
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(sim.executedEvents(), 0u);
}

TEST(SimulatorTimeline, ClampsPastTicksAndReleasesTheHandler)
{
    Simulator sim;
    sim.runFor(100);
    std::vector<std::pair<std::size_t, Tick>> fired;
    auto token = std::make_shared<int>(0);
    sim.scheduleAt(100, [&] { fired.push_back({99, sim.now()}); });
    sim.scheduleTimeline({10, 60, 100, 150},
                         [&fired, &sim, token](std::size_t i) {
                             fired.push_back({i, sim.now()});
                         });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(sim.pendingEvents(), 5u);
    EXPECT_EQ(sim.nextEventAt(), 100u);
    sim.runToCompletion();
    // The past means now, as for scheduleAt(); ties keep schedule
    // order, so the earlier scheduleAt() event runs first.
    const std::vector<std::pair<std::size_t, Tick>> want = {
        {99, 100}, {0, 100}, {1, 100}, {2, 100}, {3, 150}};
    EXPECT_EQ(fired, want);
    EXPECT_EQ(sim.executedEvents(), 5u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(sim.spills(), 0u);
}

namespace {

/** A capture larger than SmallCallback's buffer: held on the heap. */
struct BigCapture
{
    std::shared_ptr<int> token;
    char pad[64];
};

/**
 * Schedule at @p when a callback holding a copy of @p token, inline
 * (with a lifecycle table) or on the heap when @p big.
 */
EventId
scheduleHolding(Simulator &sim, Tick when,
                const std::shared_ptr<int> &token, bool big,
                std::uint64_t &fired)
{
    if (big) {
        const BigCapture c{token, {}};
        return sim.scheduleAt(when, [c, &fired] { fired += 1 + c.pad[0]; });
    }
    return sim.scheduleAt(when, [token, &fired] { ++fired; });
}

} // namespace

TEST(SimulatorSlots, CapturesAreReleasedExactlyOnceOnEveryPath)
{
    // Every pending callback holds one reference to the token, and
    // nothing else does, so use_count() == 1 + pendingEvents() after
    // every phase. A capture leaked (say, a fresh callback built over
    // a free slot that was not empty) keeps the count high; one
    // destroyed twice drops it low, and ASan (the _asan twin) reports
    // the double free.
    auto token = std::make_shared<int>(0);
    std::uint64_t fired = 0, scheduled = 0, cancelled = 0;
    Rng rng(0x51075);
    {
        Simulator sim;
        const auto q = sim.addOrderedQueue();
        std::vector<EventId> ids;
        const auto cancel = [&](EventId id) {
            const std::size_t before = sim.pendingEvents();
            sim.cancel(id);
            cancelled += before - sim.pendingEvents();
        };
        const auto expectHeld = [&](const char *phase) {
            EXPECT_EQ(token.use_count(),
                      static_cast<long>(1 + sim.pendingEvents()))
                << phase;
        };

        // A bulk load well past the spill threshold; one event in
        // four, when it fires, schedules a follow-up into a freed
        // slot and cancels a random earlier id (often stale).
        for (int i = 0; i < 6000; ++i) {
            const Tick when = 10 + rng.uniformInt(10000);
            if (i % 4 == 0) {
                ids.push_back(sim.scheduleAt(
                    when, [token, &sim, &ids, &rng, &cancel, &fired,
                           &scheduled] {
                        ++fired;
                        scheduleHolding(sim, sim.now() + rng.uniformInt(50),
                                        token, rng.chance(0.5), fired);
                        ++scheduled;
                        cancel(ids[rng.uniformInt(ids.size())]);
                    }));
            } else {
                ids.push_back(
                    scheduleHolding(sim, when, token, i % 3 == 0, fired));
            }
            ++scheduled;
        }
        for (Tick t = 10; t < 10010; t += 5) {
            ids.push_back(sim.scheduleInOrder(
                q, t, [token, &fired] { ++fired; }));
            ++scheduled;
        }
        expectHeld("scheduled");

        // Spill: the first drain sorts the heap into the run before
        // anything is due. Cancelling most of it then leaves
        // tombstones in the run and the ordered queue and trips
        // compaction.
        sim.runUntil(1);
        for (int i = 0; i < 5000; ++i)
            cancel(ids[rng.uniformInt(ids.size())]);
        expectHeld("cancelled");
        EXPECT_GT(cancelled, 2000u);

        sim.runUntil(5000);
        expectHeld("half run");

        // Stop mid-batch: the rest of the batch stays pending.
        const Tick at = sim.now() + 7;
        sim.scheduleAt(at, [&sim] { sim.requestStop(); });
        ++scheduled;
        for (int i = 0; i < 3; ++i, ++scheduled)
            scheduleHolding(sim, at, token, i == 1, fired);
        sim.runUntil(at);
        EXPECT_TRUE(sim.stopRequested());
        expectHeld("stopped mid-batch");

        sim.runToCompletion();
        EXPECT_EQ(sim.pendingEvents(), 0u);
        expectHeld("drained");
        EXPECT_EQ(fired + 1, scheduled - cancelled); // + the stopper

        // A simulator destroyed with events pending releases them.
        for (int i = 0; i < 100; ++i)
            scheduleHolding(sim, sim.now() + 1 + rng.uniformInt(100),
                            token, i % 2 == 0, fired);
        expectHeld("refilled");
    }
    EXPECT_EQ(token.use_count(), 1);
}

namespace {

int plainCalls = 0;
void plainFunction() { ++plainCalls; }

} // namespace

TEST(SmallCallback, EmptyStdFunctionOrNullPointerGivesEmptyCallback)
{
    const std::function<void()> none;
    void (*const nullFn)() = nullptr;

    SmallCallback fromFunction(none);
    EXPECT_FALSE(fromFunction);
    fromFunction(); // a no-op, not std::bad_function_call
    SmallCallback fromPointer(nullFn);
    EXPECT_FALSE(fromPointer);

    SmallCallback held([] {});
    held.emplace(none);
    EXPECT_FALSE(held);
    held.emplace([] {});
    held.emplace(nullFn);
    EXPECT_FALSE(held);

    // Non-empty ones still run.
    plainCalls = 0;
    SmallCallback viaPointer(&plainFunction);
    SmallCallback viaFunction{std::function<void()>(plainFunction)};
    ASSERT_TRUE(viaPointer);
    ASSERT_TRUE(viaFunction);
    viaPointer();
    viaFunction();
    EXPECT_EQ(plainCalls, 2);

    // The event kernel dispatches an empty callable as a no-op.
    Simulator sim;
    sim.schedule(1, none);
    sim.runToCompletion();
    EXPECT_EQ(sim.executedEvents(), 1u);
}

TEST(SmallCallback, EmplaceReplacesAndReleasesTheHeldCallable)
{
    auto first = std::make_shared<int>(1);
    auto second = std::make_shared<int>(2);
    int seen = 0;
    SmallCallback cb([first, &seen] { seen = *first; });
    EXPECT_EQ(first.use_count(), 2);

    // A 48-byte capture (shared_ptr + four pointers) stays inline.
    int *a = &seen, *b = &seen, *c = &seen, *d = &seen;
    cb.emplace([second, a, b, c, d] { *a = *second + (b == c) + (c == d); });
    EXPECT_EQ(first.use_count(), 1);
    EXPECT_EQ(second.use_count(), 2);
    cb();
    EXPECT_EQ(seen, 4);

    // A capture larger than the buffer goes to the heap and back out.
    struct Big
    {
        std::shared_ptr<int> p;
        char pad[64];
    };
    Big big{first, {}};
    cb.emplace([big, &seen] { seen = *big.p + big.pad[0]; });
    EXPECT_EQ(second.use_count(), 1);
    EXPECT_EQ(first.use_count(), 3); // big, and the copy in cb
    SmallCallback moved(std::move(cb));
    EXPECT_FALSE(cb);
    moved();
    EXPECT_EQ(seen, 1);
    moved.reset();
    EXPECT_EQ(first.use_count(), 2);
}

TEST(TimeUnits, ConversionsRoundTrip)
{
    EXPECT_EQ(sec, 1000u * msec);
    EXPECT_EQ(msec, 1000u * usec);
    EXPECT_DOUBLE_EQ(toMillis(5 * msec), 5.0);
    EXPECT_DOUBLE_EQ(toSeconds(1500 * msec), 1.5);
    EXPECT_EQ(fromMillis(2.5), 2500u * usec);
    EXPECT_EQ(fromMicros(-1.0), 0u);
}
