/**
 * @file
 * The discrete-event simulation core.
 *
 * A Simulator owns a time-ordered queue of events. Components schedule
 * callbacks at absolute or relative simulated times; run() dispatches
 * them in (time, insertion) order, so simultaneous events execute in
 * the order they were scheduled — a property several scheduler tests
 * rely on. Events are cancellable via the id returned by schedule().
 *
 * Hot-path design (this file is the innermost loop of every
 * experiment):
 *
 *  - The pending queue is a hand-rolled binary min-heap of 24-byte
 *    POD entries (time, sequence, slot). Sift operations move PODs,
 *    never callbacks.
 *  - The heap's root is refilled lazily. A pop takes heap[0] and
 *    leaves it vacant (`hole`) instead of moving the last leaf up
 *    and sifting it down. The next push, usually made by the
 *    callback being dispatched, goes into the vacancy and sifts down
 *    from the root; a near-future event stops within a level or two.
 *    While the root is vacant, the smaller of its children is the
 *    heap's minimum, so peeking needs no fill. A second pop,
 *    compact() and spill() fill the vacancy the old way first.
 *  - Beside the heap sit side sources: sorted arrays of the same
 *    entries in ascending (time, sequence) order, each read through a
 *    cursor, and the timers (below). Every pop takes the earliest
 *    head across the heap and the side sources, so dispatch order is
 *    the same total (time, sequence) order whichever structure holds
 *    an entry.
 *  - One source is the spill run. When drain() starts with the run
 *    used up and at least spillMin entries in the heap, it sorts the
 *    heap's buffer in place and swaps it into the run; the heap
 *    carries on in the old run's buffer, so a spill copies nothing
 *    and allocates nothing (spills() counts them). An unordered bulk
 *    load is then consumed sequentially, and only the events
 *    scheduled while it runs pay heap operations — at a shallow
 *    depth.
 *  - Ordered queues (addOrderedQueue()) are sources for one call
 *    site each that schedules in nondecreasing time, such as a
 *    fixed-delay timer or a barrier injecting a sorted batch.
 *    scheduleInOrder() appends to the queue in O(1); the sequence
 *    number is taken at append, so a queue is sorted by (time,
 *    sequence) as long as its times do not go backwards. An append
 *    that would go backwards goes to the heap instead and is counted
 *    (orderedFallbacks()). A queue drops its consumed prefix once
 *    that is at least half its buffer, so a warm queue allocates
 *    nothing. While no ordered entry is pending, a pop costs one
 *    extra predictable branch over the heap-and-run comparison.
 *  - Timelines (scheduleTimeline()) are sources for a workload
 *    planned up front: n nondecreasing ticks and one handler, event
 *    i dispatched as handler(i). A timeline holds only its ticks and
 *    a cursor; its events take no slot, callback line, heap entry or
 *    spill. Scheduling it takes n sequence numbers as one block in
 *    index order, exactly the seqs n scheduleAt() calls in index
 *    order would take, so its events merge with every other source
 *    in the same (time, sequence) order. Its entries carry a tagged
 *    slot (timelineSlot | timeline), which dispatch resolves to the
 *    handler and the index seq - firstSeq; no tag is ever a
 *    tombstone. A stop in mid-batch pushes such an entry into the
 *    heap like any other. While no timeline entry is pending, a pop
 *    pays three more predictable branches: leader(), take() and
 *    dispatch() each check for timelines.
 *  - Timers (addTimer(), Timer) are side entries for call sites that
 *    keep at most one event pending and fire it again and again: a
 *    periodic tick, a PCPU's segment end. A timer is one persistent
 *    callback plus one key (time, sequence) in the timer source;
 *    arm() takes ++nextSeq exactly where scheduleAt() would, so
 *    dispatch order is the same as scheduling a fresh event each time
 *    and cancelling the old one, and disarm() clears the key. A timer
 *    takes no slot, heap entry, callback move or tombstone. The timer
 *    source is the array of keys, indexed by timer, plus a copy of
 *    the earliest (timerHead) for leader() to compare: an arm that
 *    fires before it replaces it, and a take, or a disarm or re-arm
 *    of the timer it names, scans the keys again without branches (a
 *    RUBiS testbed has about a dozen timers). A taken timer entry
 *    keeps its sequence number; dispatch runs it only if the timer is
 *    still armed with that number, so an earlier member of the same
 *    batch that disarms or re-arms the timer stops that firing, as a
 *    cancel would. A stop in mid-batch writes a still-armed timer's
 *    entry back into its key. The callback runs in place (timer
 *    callbacks sit in blocks that never move, so adding a timer moves
 *    none); removing a timer from inside its own callback defers the
 *    release until the callback returns. While no timer is waiting,
 *    a pop pays one more predictable branch.
 *  - Callbacks live in a slot table addressed by the heap entries.
 *    An EventId encodes (generation, slot); cancel() flips the
 *    slot's tombstone flag in O(1) — no hash lookup — and the
 *    tombstone is resolved when the entry reaches the front.
 *    Generations make stale ids (fired, cancelled, or reused slots)
 *    harmless no-ops, which also keeps pendingEvents() exact.
 *  - The slot table is split in two parallel arrays. One holds each
 *    slot's 8-byte liveness record (generation, state), which is all
 *    that cancel(), tombstone sweeps and nextEventAt() read; eight
 *    share a cache line. The other holds each slot's callback alone
 *    on one 64-byte-aligned cache line, touched only to build, move
 *    out or release the callback.
 *  - Callbacks are SmallCallback (sim/callback.hpp): common lambdas
 *    like [this]{...} are stored inline, with no heap allocation,
 *    and schedule() builds each one directly in its slot. Invariant:
 *    a free slot always holds an empty callback (dispatch moves it
 *    out, cancel() resets it, a new slot starts empty), so building
 *    into it only writes the line and never reads it.
 *  - Taking an entry from the spill run or an ordered queue
 *    prefetches the liveness record and the callback line of the
 *    entry prefetchAhead places further on in that source. A load
 *    scheduled in one order and dispatched in another (the spill run)
 *    would otherwise start every dispatch with a cache miss into a
 *    table larger than the caches. A timeline reads its ticks in
 *    order and has no slots to prefetch.
 *  - runs batch-pop all events that share a timestamp and dispatch
 *    the batch in insertion order, re-checking tombstones per event
 *    so a batch member may cancel another member.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/types.hpp"

namespace corm::sim {

/** Identifier of a scheduled event, usable with Simulator::cancel(). */
using EventId = std::uint64_t;

/** EventId value that never names a live event. */
inline constexpr EventId invalidEventId = 0;

/**
 * Discrete-event simulator: a clock plus an ordered event queue.
 *
 * Not thread-safe by design; the entire platform model runs in one
 * thread of host execution, which keeps it deterministic. Parallelism
 * lives one level up: independent trials each own a Simulator (see
 * platform/harness.hpp).
 */
class Simulator
{
  public:
    using Callback = SmallCallback;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /**
     * Schedule a callable at an absolute time. The callable is
     * constructed directly in its slot (SmallCallback::emplace).
     *
     * @param when Absolute tick; must be >= now().
     * @param f Callable to run.
     * @return Id usable with cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Tick when, F &&f)
    {
        const std::uint32_t slot = allocSlot();
        callbacks[slot].cb.emplaceEmpty(std::forward<F>(f));
        return enqueue(when, slot);
    }

    /** Schedule a callable @p delay ticks from now. */
    template <typename F>
    EventId
    schedule(Tick delay, F &&f)
    {
        return scheduleAt(currentTick + delay, std::forward<F>(f));
    }

    /** Handle of an ordered queue (see addOrderedQueue()). */
    struct OrderedQueue
    {
        std::uint32_t index = 0;
    };

    /**
     * Create an ordered queue: a sorted source for one call site
     * whose events are scheduled in nondecreasing time (file
     * comment). Queues live as long as the simulator.
     */
    OrderedQueue
    addOrderedQueue()
    {
        queues.emplace_back();
        return {static_cast<std::uint32_t>(queues.size() - 1)};
    }

    /**
     * Schedule a callable at an absolute time through ordered queue
     * @p q. Same semantics as scheduleAt(), including the dispatch
     * order; only cheaper when @p when is not earlier than the last
     * entry still pending in @p q. Otherwise the event goes to the
     * heap and counts as a fallback.
     */
    template <typename F>
    EventId
    scheduleInOrder(OrderedQueue q, Tick when, F &&f)
    {
        const std::uint32_t slot = allocSlot();
        callbacks[slot].cb.emplaceEmpty(std::forward<F>(f));
        if (when < currentTick)
            when = currentTick;
        SortedSource &src = queues[q.index];
        if (src.pos != src.entries.size()
            && when < src.entries.back().when) {
            ++fallbacks;
            return enqueue(when, slot);
        }
        if (src.pos * 2 >= src.entries.size()) {
            // Recycle: the consumed prefix is at least half the
            // buffer, so moving the live tail down is amortised O(1).
            src.entries.erase(src.entries.begin(),
                              src.entries.begin()
                                  + static_cast<std::ptrdiff_t>(src.pos));
            src.pos = 0;
        }
        meta[slot].state = SlotState::pending;
        src.entries.push_back(HeapEntry{when, ++nextSeq, slot});
        ++orderedPending;
        ++liveEvents;
        return makeId(meta[slot].generation, slot);
    }

    /** scheduleInOrder() calls that went to the heap (out of order). */
    std::uint64_t orderedFallbacks() const { return fallbacks; }

    /** Times drain() turned the heap into the sorted run. */
    std::uint64_t spills() const { return spillCount; }

    /**
     * Schedule a timeline: event i fires at @p times[i] and runs
     * @p handler(i). Same semantics, dispatch order and accounting
     * as scheduleAt(times[i], [i]{ handler(i); }) for i = 0, 1, ...
     * in index order — times before now() are clamped to it — but
     * with no per-event slot, callback or heap entry (file comment).
     * Timeline events cannot be cancelled. The handler is released
     * once every event has run.
     *
     * @throws std::invalid_argument if @p times decreases anywhere.
     */
    template <typename F>
    void
    scheduleTimeline(std::vector<Tick> times, F &&handler)
    {
        if (!std::is_sorted(times.begin(), times.end()))
            throw std::invalid_argument(
                "scheduleTimeline: ticks must be nondecreasing");
        if (times.empty())
            return;
        for (Tick &t : times) {
            if (t >= currentTick)
                break;
            t = currentTick;
        }
        std::size_t idx = 0;
        while (idx < timelines.size() && timelines[idx].unfinished != 0)
            ++idx;
        if (idx == timelines.size())
            timelines.emplace_back();
        Timeline &tl = timelines[idx];
        const std::size_t n = times.size();
        tl.times = std::move(times);
        tl.pos = 0;
        tl.firstSeq = nextSeq + 1;
        tl.unfinished = n;
        tl.handler = std::forward<F>(handler);
        tl.head = HeapEntry{tl.times[0], tl.firstSeq,
                            timelineSlot | static_cast<std::uint32_t>(idx)};
        nextSeq += n;
        timelinePending += n;
        liveEvents += n;
    }

    /** Handle of a re-armable timer (see addTimer()). */
    using TimerId = std::uint32_t;

    /**
     * Create a disarmed timer that runs @p f each time it fires (file
     * comment). The timer lives until removeTimer(); Timer does that
     * on destruction.
     */
    template <typename F>
    TimerId
    addTimer(F &&f)
    {
        TimerId t = freeTimer;
        if (t == noTimer) {
            t = static_cast<TimerId>(timerKeys.size());
            if (t % timerBlock == 0) {
                if (t == 0)
                    timerKeys.reserve(timerBlock);
                timerBlocks.push_back(std::make_unique<TimerBlock>());
            }
            timerKeys.push_back(idleKey);
        } else {
            freeTimer = timer(t).nextFree;
        }
        timer(t).cb.emplaceEmpty(std::forward<F>(f));
        return t;
    }

    /**
     * Arm timer @p t to fire at @p when (clamped to now()), replacing
     * any firing it already has pending. Same semantics and dispatch
     * order as cancelling that firing and calling scheduleAt(when).
     */
    void
    arm(TimerId t, Tick when)
    {
        if (when < currentTick)
            when = currentTick;
        TimerCell &c = timer(t);
        if (c.seq == 0)
            ++liveEvents;
        c.seq = ++nextSeq;
        timerKeys[t] = keyOf(when, c.seq);
        const HeapEntry e{when, c.seq, timerSlot | t};
        if (timerHead.slot == e.slot)
            findTimerHead(); // its old firing was the head
        else if (before(e, timerHead))
            timerHead = e;
    }

    /** Drop timer @p t's pending firing, if any. */
    void
    disarm(TimerId t)
    {
        TimerCell &c = timer(t);
        if (c.seq == 0)
            return;
        c.seq = 0;
        --liveEvents;
        // A taken firing has no key; dispatch will find it disarmed.
        timerKeys[t] = idleKey;
        if (timerHead.slot == (timerSlot | t))
            findTimerHead();
    }

    /** True while timer @p t has a firing pending. */
    bool armed(TimerId t) const { return timer(t).seq != 0; }

    /**
     * Disarm timer @p t and release its callback and id. From inside
     * the timer's own callback the release waits until it returns.
     */
    void
    removeTimer(TimerId t)
    {
        disarm(t);
        TimerCell &c = timer(t);
        if (c.firing != 0)
            c.removed = true;
        else
            releaseTimer(t);
    }

    /**
     * Cancel a previously scheduled event. Cancelling an already-fired
     * or already-cancelled event is a harmless no-op: the generation
     * encoded in the id no longer matches the slot (or the slot is
     * already tombstoned), so accounting is untouched.
     */
    void
    cancel(EventId id)
    {
        const std::uint32_t slot = slotOf(id);
        if (slot >= meta.size())
            return; // invalidEventId and ids from other simulators
        SlotMeta &m = meta[slot];
        if (m.generation != generationOf(id) ||
            m.state != SlotState::pending)
            return; // stale id: fired, cancelled, or slot reused
        m.state = SlotState::cancelled;
        callbacks[slot].cb.reset(); // release captures eagerly
        --liveEvents;
        ++deadEntries;
        // Amortized tombstone collection: once the majority of the
        // queue is dead, one O(n) sweep re-packs it. Charged to the
        // >= n/2 cancels that made it necessary, cancel stays O(1)
        // amortized and pop cost tracks the number of *live* events.
        if (deadEntries > 64
            && deadEntries * 2 > heapCount() + run.entries.size()
                                     - run.pos + orderedPending)
            compact();
    }

    /** Number of scheduled-and-not-yet-fired (nor cancelled) events. */
    std::size_t pendingEvents() const { return liveEvents; }

    /** Cancelled events whose entries are still queued. */
    std::size_t tombstones() const { return deadEntries; }

    /**
     * Pre-size the heap and slot table for @p events concurrently
     * pending events, so large scenarios don't pay repeated
     * reallocation mid-run. Growing past the reservation stays legal.
     */
    void
    reserve(std::size_t events)
    {
        heap.reserve(events);
        meta.reserve(events);
        callbacks.reserve(events);
        freeSlots.reserve(events);
        if (batch.capacity() < 64)
            batch.reserve(64);
    }

    /**
     * Time of the earliest live (non-cancelled) pending event, or
     * maxTick when none is pending. Tombstoned entries at the head of
     * the heap and of the sorted sources are retired on the way, so the
     * answer never depends on compaction or spill timing — sharded
     * window planning (sim/sharded.hpp) relies on this being a pure
     * function of the live event set.
     */
    Tick
    nextEventAt()
    {
        for (Lead top = leader(); top.entry; top = leader()) {
            if (!cancelled(*top.entry))
                return top.entry->when;
            sweepDead(take(top));
        }
        return maxTick;
    }

    /** Total events dispatched since construction (tombstones excluded). */
    std::uint64_t executedEvents() const { return executed; }

    /**
     * Run until the queue drains or simulated time would pass @p until.
     * The clock is left at @p until (or at the final event if the queue
     * drained earlier and stopRequested() was set).
     */
    void
    runUntil(Tick until)
    {
        drain(until);
        if (!stopFlag && currentTick < until)
            currentTick = until;
    }

    /** Run @p duration ticks of simulated time from now. */
    void runFor(Tick duration) { runUntil(currentTick + duration); }

    /**
     * Run until the event queue is completely drained; the clock is
     * left at the final event (it does not jump to infinity).
     */
    void runToCompletion() { drain(maxTick); }

    /**
     * Execute exactly one pending event (skipping cancelled ones).
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    step()
    {
        for (Lead top = leader(); top.entry; top = leader()) {
            if (dispatch(take(top)))
                return true;
        }
        return false;
    }

    /** Ask a running runUntil() loop to stop after the current event. */
    void requestStop() { stopFlag = true; }

    /** True if the last run ended due to requestStop(). */
    bool stopRequested() const { return stopFlag; }

  private:
    /** One pending occurrence in the heap: small, trivially movable. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq; ///< global insertion order (FIFO tiebreak)
        std::uint32_t slot;
    };

    enum class SlotState : std::uint8_t { free, pending, cancelled };

    /** Entries sorted by (when, seq), consumed from a cursor. */
    struct SortedSource
    {
        std::vector<HeapEntry> entries;
        std::size_t pos = 0; ///< next unconsumed entry

        bool empty() const { return pos == entries.size(); }
    };

    /**
     * A planned workload (scheduleTimeline()): its ticks, read through
     * a cursor, and the handler its events run. `head` is the entry
     * at the cursor, kept ready for leader() to point at.
     */
    struct Timeline
    {
        std::vector<Tick> times;
        std::size_t pos = 0;        ///< next unconsumed tick
        std::uint64_t firstSeq = 0; ///< seq of event 0
        std::size_t unfinished = 0; ///< events not yet run to the end
        HeapEntry head{};
        std::function<void(std::size_t)> handler;

        bool empty() const { return pos == times.size(); }
    };

    /** Tag bits of an entry that names no slot: a timer's entry
     *  carries (timerSlot | timer), a timeline's (timelineSlot |
     *  timeline). No slot table grows this large. */
    static constexpr std::uint32_t timerSlot = 0x40000000u;
    static constexpr std::uint32_t timelineSlot = 0x80000000u;

    /** A timer's callback and what arming, dispatch and removal need
     *  to know of it. */
    struct TimerCell
    {
        Callback cb;
        std::uint64_t seq = 0;    ///< armed firing's seq; 0 when disarmed
        std::uint32_t firing = 0; ///< its callback's nesting depth
        bool removed = false;     ///< removeTimer() waits for `firing`
        TimerId nextFree = 0;     ///< free list link while released
    };

    /** freeTimer value when no released timer is left. */
    static constexpr TimerId noTimer = ~TimerId{0};

    /**
     * Timer cells are allocated timerBlock at a time, in blocks that
     * never move, so a callback runs in place while another timer is
     * added; the key array reserves a block's worth up front. A RUBiS
     * testbed fits in one block.
     */
    static constexpr TimerId timerBlock = 16;
    struct TimerBlock
    {
        TimerCell cells[timerBlock];
    };

    /**
     * A timer's waiting firing in the timer source: (when, seq) as
     * one 128-bit number, so (time, sequence) order is integer order
     * and the scan for the earliest compiles to conditional moves.
     */
    using TimerKey = unsigned __int128;

    /** seq of an empty timer head: later than any real entry. */
    static constexpr std::uint64_t noSeq = ~std::uint64_t{0};
    /** Key of a timer with no firing waiting: (maxTick, noSeq). */
    static constexpr TimerKey idleKey = ~TimerKey{0};

    static TimerKey
    keyOf(Tick when, std::uint64_t seq)
    {
        return (static_cast<TimerKey>(when) << 64) | seq;
    }

    TimerCell &
    timer(TimerId t) const
    {
        return timerBlocks[t / timerBlock]->cells[t % timerBlock];
    }

    /** Liveness of one slot: all that cancellation and tombstone
     *  checks read. */
    struct SlotMeta
    {
        std::uint32_t generation = 0;
        SlotState state = SlotState::free;
    };
    static_assert(sizeof(SlotMeta) == 8);

    /** The callback of one slot, alone on its cache line. */
    struct alignas(64) CallbackLine
    {
        Callback cb;
    };
    static_assert(sizeof(CallbackLine) == 64);

    // EventId layout: high 32 bits generation, low 32 bits slot+1
    // (so invalidEventId = 0 never names a slot). A slot's
    // generation increments every time it is recycled; a wrap after
    // 2^32 reuses of one slot is accepted.
    static EventId
    makeId(std::uint32_t generation, std::uint32_t slot)
    {
        return (static_cast<EventId>(generation) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    }

    static std::uint32_t
    generationOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    /** A free slot, its callback empty; the caller fills it. */
    std::uint32_t
    allocSlot()
    {
        if (freeSlots.empty()) {
            meta.emplace_back();
            callbacks.emplace_back();
            return static_cast<std::uint32_t>(meta.size() - 1);
        }
        const std::uint32_t idx = freeSlots.back();
        freeSlots.pop_back();
        return idx;
    }

    /** Queue the filled @p slot at @p when (clamped to now). */
    EventId
    enqueue(Tick when, std::uint32_t slot)
    {
        if (when < currentTick)
            when = currentTick;
        meta[slot].state = SlotState::pending;
        pushEntry(HeapEntry{when, ++nextSeq, slot});
        ++liveEvents;
        return makeId(meta[slot].generation, slot);
    }

    void
    freeSlot(std::uint32_t idx)
    {
        SlotMeta &m = meta[idx];
        ++m.generation; // invalidate every id minted for this use
        m.state = SlotState::free;
        freeSlots.push_back(idx);
    }

    /** (when, seq) lexicographic order; true if a fires before b. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq; // FIFO among simultaneous events
    }

    /** Point timerHead at the earliest waiting timer, or empty it. */
    void
    findTimerHead()
    {
        TimerKey best = idleKey;
        std::uint32_t at = 0;
        for (std::uint32_t t = 0; t < timerKeys.size(); ++t) {
            const bool earlier = timerKeys[t] < best;
            best = earlier ? timerKeys[t] : best;
            at = earlier ? t : at;
        }
        const auto seq = static_cast<std::uint64_t>(best);
        timerHead = HeapEntry{static_cast<Tick>(best >> 64), seq,
                              seq == noSeq ? 0 : timerSlot | at};
    }

    void
    siftUp(std::size_t i)
    {
        HeapEntry e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(e, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
    }

    /** Place @p e at index @p i and sift it down. */
    void
    siftDown(std::size_t i, const HeapEntry e)
    {
        const std::size_t n = heap.size();
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap[child + 1], heap[child]))
                ++child;
            if (!before(heap[child], e))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = e;
    }

    /** Entries in the heap, not counting a vacant root. */
    std::size_t heapCount() const { return heap.size() - hole; }

    /**
     * The heap's earliest entry, or nullptr when it is empty. With
     * the root vacant that is the smaller of its children (a vacancy
     * is only left with at least one entry below it).
     */
    const HeapEntry *
    heapMin() const
    {
        if (!hole)
            return heap.empty() ? nullptr : &heap[0];
        if (heap.size() > 2 && before(heap[2], heap[1]))
            return &heap[2];
        return &heap[1];
    }

    /** Fill a vacant root the eager way: last leaf up, sift down. */
    void
    fillHole()
    {
        if (!hole)
            return;
        hole = false;
        const HeapEntry last = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(0, last);
    }

    /**
     * Remove and return the earliest heap entry, leaving the root
     * vacant when entries remain below it. Requires heapMin().
     */
    HeapEntry
    popTop()
    {
        fillHole();
        const HeapEntry top = heap[0];
        if (heap.size() == 1)
            heap.pop_back();
        else
            hole = true;
        return top;
    }

    /** Insert an entry: into a vacant root, else at a new leaf. */
    void
    pushEntry(const HeapEntry &e)
    {
        if (hole) {
            hole = false;
            siftDown(0, e);
            return;
        }
        heap.push_back(e);
        siftUp(heap.size() - 1);
    }

    /** The earliest queued entry and where it sits. */
    struct Lead
    {
        const HeapEntry *entry; ///< nullptr when nothing is queued
        SortedSource *source;   ///< nullptr for the heap, timerHead
                                ///< or a timeline
        Timeline *timeline;     ///< non-null for a timeline's head
    };

    /** Make @p src's head the lead if it fires before @p best's. */
    [[gnu::always_inline]] static void
    consider(SortedSource &src, Lead &best)
    {
        if (!src.empty()
            && (!best.entry || before(src.entries[src.pos], *best.entry)))
            best = {&src.entries[src.pos], &src, nullptr};
    }

    /** Make @p tl's head the lead if it fires before @p best's. */
    [[gnu::always_inline]] static void
    consider(Timeline &tl, Lead &best)
    {
        if (!tl.empty() && (!best.entry || before(tl.head, *best.entry)))
            best = {&tl.head, nullptr, &tl};
    }

    /**
     * Earliest queued entry across the heap, the sorted sources and
     * the timers. The pointer is invalidated by any queue mutation.
     * While no ordered queue or timeline holds an entry, only the run
     * and timerHead can beat the heap.
     * Forced inline, with consider(): it runs twice per dispatched
     * event, and GCC otherwise outlines one or the other (a measured
     * slowdown of every event).
     */
    [[gnu::always_inline]] Lead
    leader()
    {
        Lead best{heapMin(), nullptr, nullptr};
        consider(run, best);
        if (timerHead.seq != noSeq
            && (!best.entry || before(timerHead, *best.entry)))
            best = {&timerHead, nullptr, nullptr};
        if (orderedPending != 0) {
            for (SortedSource &q : queues)
                consider(q, best);
        }
        if (timelinePending != 0) {
            for (Timeline &tl : timelines)
                consider(tl, best);
        }
        return best;
    }

    /**
     * Remove and return @p top's entry. Requires top.entry. A sorted
     * source is consumed in order, so taking from the run or a queue
     * prefetches the slot of the entry prefetchAhead places on (file
     * comment). Forced inline like leader(): with the prefetch, GCC
     * outlined it from drain(), a call on every event.
     */
    [[gnu::always_inline]] HeapEntry
    take(Lead top)
    {
        if (!top.source) {
            if (top.entry == &timerHead) {
                // Taken: still armed, no longer waiting in its key.
                const HeapEntry e = timerHead;
                timerKeys[e.slot - timerSlot] = idleKey;
                findTimerHead();
                return e;
            }
            if (!top.timeline)
                return popTop();
            Timeline &tl = *top.timeline;
            --timelinePending;
            const HeapEntry e = tl.head;
            if (++tl.pos < tl.times.size())
                tl.head = HeapEntry{tl.times[tl.pos], e.seq + 1, e.slot};
            return e;
        }
        SortedSource &src = *top.source;
        if (&src != &run)
            --orderedPending;
        const std::size_t ahead = src.pos + prefetchAhead;
        if (ahead < src.entries.size()) {
            const std::uint32_t slot = src.entries[ahead].slot;
            __builtin_prefetch(&meta[slot], 1);
            __builtin_prefetch(&callbacks[slot], 1);
        }
        return src.entries[src.pos++];
    }

    /**
     * Turn a large heap into the sorted run (file comment). Called
     * only once the run is used up, so the run's buffer holds no
     * live entry and can become the heap's.
     */
    void
    spill()
    {
        fillHole();
        ++spillCount;
        // A lambda, not the function pointer, so the comparison is
        // inlined into the sort.
        std::sort(heap.begin(), heap.end(),
                  [](const HeapEntry &a, const HeapEntry &b) {
                      return before(a, b);
                  });
        run.entries.clear();
        heap.swap(run.entries);
        run.pos = 0;
    }

    /**
     * Resolve one popped entry: free tombstones, else run the
     * callback. Returns true if a live event was dispatched. Takes
     * the entry by value: the callback may re-enter drain() and
     * reallocate the vectors a reference would point into. Forced
     * inline: with the timer path GCC outlined it from drain(), a
     * call on every event.
     */
    [[gnu::always_inline]] bool
    dispatch(HeapEntry e)
    {
        if (e.slot >= timerSlot) {
            return e.slot >= timelineSlot ? dispatchTimeline(e)
                                          : dispatchTimer(e);
        }
        if (sweepDead(e))
            return false;
        // Move the callback out and retire the id before running, so
        // the callback can freely schedule (and even cancel) events —
        // including ids that land in this same slot. The move leaves
        // the slot's callback empty, as a free slot's must be.
        Callback cb = std::move(callbacks[e.slot].cb);
        freeSlot(e.slot);
        --liveEvents;
        currentTick = e.when;
        ++executed;
        cb();
        return true;
    }

    /**
     * Run timeline entry @p e's handler. A timeline's handler and
     * ticks are released once its last event returns; until then the
     * timeline is not reused, even while a nested run inside a
     * handler finishes its other events. `timelines` is a deque, so
     * a handler that schedules another timeline moves no timeline.
     */
    bool
    dispatchTimeline(const HeapEntry &e)
    {
        Timeline &tl = timelines[e.slot - timelineSlot];
        --liveEvents;
        currentTick = e.when;
        ++executed;
        tl.handler(static_cast<std::size_t>(e.seq - tl.firstSeq));
        if (--tl.unfinished == 0) {
            tl.handler = nullptr;
            tl.times = std::vector<Tick>();
            tl.pos = 0;
        }
        return true;
    }

    /**
     * Run timer entry @p e's callback in place, unless the timer was
     * disarmed or re-armed since the entry was taken (file comment).
     * Kept out of line, so dispatch() stays small enough to inline.
     */
    [[gnu::noinline]] bool
    dispatchTimer(const HeapEntry &e)
    {
        const std::uint32_t t = e.slot - timerSlot;
        TimerCell &c = timer(t);
        if (c.seq != e.seq)
            return false;
        c.seq = 0;
        ++c.firing;
        --liveEvents;
        currentTick = e.when;
        ++executed;
        c.cb();
        if (--c.firing == 0 && c.removed)
            releaseTimer(t);
        return true;
    }

    /** Free timer @p t (disarmed, not firing) for reuse by addTimer(). */
    void
    releaseTimer(TimerId t)
    {
        TimerCell &c = timer(t);
        c.cb.reset();
        c.removed = false;
        c.nextFree = freeTimer;
        freeTimer = t;
    }

    /**
     * Write a taken timer entry @p e back into its key after a stop in
     * mid-batch, unless the timer has been disarmed or re-armed since.
     */
    void
    restoreTimer(const HeapEntry &e)
    {
        const std::uint32_t t = e.slot - timerSlot;
        if (timer(t).seq != e.seq)
            return;
        timerKeys[t] = keyOf(e.when, e.seq);
        if (before(e, timerHead))
            timerHead = e;
    }

    /** True if @p e is a tombstone; a timer or timeline entry never is. */
    bool
    cancelled(const HeapEntry &e) const
    {
        return e.slot < timerSlot
            && meta[e.slot].state == SlotState::cancelled;
    }

    /** Free @p e's slot if it is a tombstone; true if it was. */
    bool
    sweepDead(const HeapEntry &e)
    {
        if (!cancelled(e))
            return false;
        freeSlot(e.slot);
        --deadEntries;
        return true;
    }

    /**
     * Drop every tombstoned entry from the heap and restore the heap
     * property bottom-up (Floyd heapify, O(n)), then filter each
     * sorted source's unconsumed tail in place (a stable filter, so
     * it stays sorted). Entries parked in the drain() batch scratch
     * are in none of them and keep their share of deadEntries until
     * dispatched.
     */
    void
    compact()
    {
        fillHole();
        std::size_t kept = 0;
        for (const HeapEntry &e : heap) {
            if (!sweepDead(e))
                heap[kept++] = e;
        }
        heap.resize(kept);
        for (std::size_t i = kept / 2; i-- > 0;)
            siftDown(i, heap[i]);
        filterDead(run);
        orderedPending = 0;
        for (SortedSource &q : queues)
            orderedPending += filterDead(q);
    }

    /** Drop @p src's consumed prefix and its tombstones, keeping the
     *  order; returns the entries left. */
    std::size_t
    filterDead(SortedSource &src)
    {
        std::size_t kept = 0;
        for (std::size_t i = src.pos; i < src.entries.size(); ++i) {
            if (!sweepDead(src.entries[i]))
                src.entries[kept++] = src.entries[i];
        }
        src.entries.resize(kept);
        src.pos = 0;
        return kept;
    }

    /** Execute events with when <= until, honouring cancellations. */
    void
    drain(Tick until)
    {
        stopFlag = false;
        if (run.empty() && heapCount() >= spillMin)
            spill();
        while (!stopFlag) {
            Lead top = leader();
            if (!top.entry || top.entry->when > until)
                break;
            HeapEntry first = take(top);
            top = leader();
            if (!top.entry || top.entry->when != first.when) {
                // Fast path: a lone event at this timestamp.
                dispatch(first);
                continue;
            }
            // Batch path: pop every already-queued event that shares
            // this timestamp, then dispatch in insertion order.
            // Events the batch schedules at the same timestamp join a
            // later batch (their seq is higher), preserving FIFO. The
            // scratch vector is shared across re-entrant runs (a
            // callback may call runFor()), so work with a base offset
            // and indices, never iterators.
            const Tick when = first.when;
            const std::size_t base = batch.size();
            batch.push_back(first);
            for (; top.entry && top.entry->when == when; top = leader())
                batch.push_back(take(top));
            std::size_t i = base;
            for (; i < batch.size() && !stopFlag; ++i)
                dispatch(batch[i]);
            if (i < batch.size()) {
                // Stopped mid-batch: the rest stays pending, a timer's
                // entry in its key and any other in the heap,
                // whichever source it came from.
                for (std::size_t j = i; j < batch.size(); ++j) {
                    const HeapEntry &e = batch[j];
                    if (e.slot >= timerSlot && e.slot < timelineSlot)
                        restoreTimer(e);
                    else
                        pushEntry(e);
                }
            }
            batch.resize(base);
        }
    }

    /**
     * Heap size at which drain() spills into the sorted run. Large
     * enough that the queues of the paper's RUBiS scenarios never
     * reach it and keep the plain heap path.
     */
    static constexpr std::size_t spillMin = 4096;

    /**
     * How many entries ahead of the one taken a sorted source's slot
     * is prefetched: far enough that the line arrives before its
     * dispatch, near enough that it is not evicted first.
     */
    static constexpr std::size_t prefetchAhead = 8;

    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    bool stopFlag = false;
    std::size_t liveEvents = 0;
    std::size_t deadEntries = 0; ///< tombstones in heap, sources or batch
    std::vector<HeapEntry> heap;
    bool hole = false; ///< heap[0] is vacant (see the file comment)
    SortedSource run; ///< the spill run (file comment)
    std::vector<SortedSource> queues; ///< the ordered queues
    std::size_t orderedPending = 0;   ///< unconsumed entries in queues
    std::uint64_t fallbacks = 0;    ///< see orderedFallbacks()
    std::uint64_t spillCount = 0;   ///< see spills()
    std::deque<Timeline> timelines; ///< by index; reused once finished
    std::size_t timelinePending = 0; ///< unconsumed timeline entries
    std::vector<std::unique_ptr<TimerBlock>> timerBlocks; ///< by TimerId
    TimerId freeTimer = noTimer; ///< head of the released timers
    /** The timer source: each timer's waiting firing, by TimerId
     *  (idleKey when none), and the earliest of them, {maxTick, noSeq,
     *  0} when none is waiting. */
    std::vector<TimerKey> timerKeys;
    HeapEntry timerHead{maxTick, noSeq, 0};
    std::vector<HeapEntry> batch; ///< drain() scratch, see above
    std::vector<SlotMeta> meta;           ///< indexed by slot
    std::vector<CallbackLine> callbacks;  ///< indexed by slot
    std::vector<std::uint32_t> freeSlots;
};

/**
 * RAII owner of one Simulator timer (Simulator::addTimer()): a
 * persistent callback fired at each arm() time. Move-only; removes
 * the timer on destruction, which is safe from inside its own
 * callback. A default-constructed Timer owns nothing.
 */
class Timer
{
  public:
    Timer() = default;

    /** A disarmed timer of @p simulator (which must outlive it). */
    template <typename F>
    Timer(Simulator &simulator, F &&f)
        : sim(&simulator), id(simulator.addTimer(std::forward<F>(f)))
    {}

    Timer(Timer &&other) noexcept
        : sim(std::exchange(other.sim, nullptr)), id(other.id)
    {}

    Timer &
    operator=(Timer &&other) noexcept
    {
        if (this != &other) {
            release();
            sim = std::exchange(other.sim, nullptr);
            id = other.id;
        }
        return *this;
    }

    ~Timer() { release(); }

    /** Fire at absolute tick @p when, replacing any pending firing. */
    void arm(Tick when) { sim->arm(id, when); }

    /** Drop the pending firing, if any. */
    void disarm() { sim->disarm(id); }

    /** True while a firing is pending. */
    bool armed() const { return sim != nullptr && sim->armed(id); }

  private:
    void
    release()
    {
        if (sim != nullptr)
            sim->removeTimer(id);
        sim = nullptr;
    }

    Simulator *sim = nullptr;
    Simulator::TimerId id = 0;
};

/**
 * RAII helper for a periodic event: fires a callback every @p period
 * ticks until stopped or destroyed. Used for scheduler ticks,
 * accounting periods, polling loops and monitors. It rides on one
 * Simulator timer, re-armed before each callback runs, so every
 * firing takes the sequence number a freshly scheduled event would.
 */
class PeriodicEvent
{
  public:
    /**
     * @param simulator Owning simulator (must outlive this object).
     * @param period Interval between firings; must be > 0.
     * @param cb Callback invoked each period.
     * @param start_offset Delay before the first firing (default: one
     *        full period).
     */
    PeriodicEvent(Simulator &simulator, Tick period,
                  Simulator::Callback cb, Tick start_offset = 0)
        : sim(simulator), interval(period), callback(std::move(cb)),
          timer(simulator, [this] { fire(); })
    {
        timer.arm(sim.now() + (start_offset == 0 ? interval : start_offset));
    }

    PeriodicEvent(const PeriodicEvent &) = delete;
    PeriodicEvent &operator=(const PeriodicEvent &) = delete;

    /** Stop firing; safe to call repeatedly. */
    void stop() { timer.disarm(); }

    /** True while the periodic event is armed. */
    bool running() const { return timer.armed(); }

  private:
    void
    fire()
    {
        timer.arm(sim.now() + interval);
        callback();
    }

    Simulator &sim;
    Tick interval;
    Simulator::Callback callback;
    Timer timer; ///< last member: destroyed (removed) first
};

} // namespace corm::sim
