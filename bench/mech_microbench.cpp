/**
 * @file
 * Mechanism microbenchmarks (google-benchmark): host-side cost of
 * the simulation kernel and the coordination mechanisms, plus the
 * simulated end-to-end latency of Tune and Trigger delivery.
 *
 * These quantify §3.3's "low-level coordination mechanisms" at the
 * implementation level: message encode/decode, channel send/apply,
 * scheduler boost, and the event kernel that carries them.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "coord/channel.hpp"
#include "coord/fabric.hpp"
#include "coord/reliable.hpp"
#include "coord/message.hpp"
#include "platform/scenarios.hpp"
#include "platform/testbed.hpp"
#include "sim/random.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "xen/sched.hpp"

namespace {

using namespace corm;

/**
 * One schedule plus one dispatch per iteration, with state.range(0)
 * events in flight at a fixed delay (a timer's shape): through the
 * heap, or through an ordered queue when @p Ordered.
 */
template <bool Ordered>
void
scheduleDispatch(benchmark::State &state)
{
    const auto depth = static_cast<sim::Tick>(state.range(0));
    sim::Simulator simulator;
    const sim::Simulator::OrderedQueue q = simulator.addOrderedQueue();
    std::uint64_t fired = 0;
    const auto add = [&](sim::Tick when) {
        if constexpr (Ordered)
            simulator.scheduleInOrder(q, when, [&fired] { ++fired; });
        else
            simulator.scheduleAt(when, [&fired] { ++fired; });
    };
    for (sim::Tick t = 1; t < depth; ++t)
        add(t);
    for (auto _ : state) {
        add(simulator.now() + depth);
        simulator.runFor(1); // fires the one event due next tick
    }
    benchmark::DoNotOptimize(fired);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_EventScheduleDispatch(benchmark::State &state)
{
    scheduleDispatch<false>(state);
}
BENCHMARK(BM_EventScheduleDispatch)->Arg(1)->Arg(64)->Arg(4096);

void
BM_OrderedScheduleDispatch(benchmark::State &state)
{
    scheduleDispatch<true>(state);
}
BENCHMARK(BM_OrderedScheduleDispatch)->Arg(1)->Arg(64)->Arg(4096);

void
BM_EventScheduleFireBatch(benchmark::State &state)
{
    // Steady-state schedule/fire throughput: keep a 64-event window
    // in flight so the heap stays warm (the drain() fast path).
    constexpr int kWindow = 64;
    sim::Simulator simulator;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < kWindow; ++i)
            simulator.schedule(static_cast<sim::Tick>(i + 1),
                               [&fired] { ++fired; });
        simulator.runFor(kWindow + 1);
    }
    benchmark::DoNotOptimize(fired);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kWindow,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleFireBatch);

void
BM_EventScheduleCancel(benchmark::State &state)
{
    // The cancel-heavy pattern of timeout guards: schedule far-future
    // events that almost always get cancelled before firing. The
    // tombstone + amortized-compaction path of the event kernel.
    constexpr int kWindow = 64;
    sim::Simulator simulator;
    sim::EventId ids[kWindow] = {};
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < kWindow; ++i)
            ids[i] = simulator.schedule(1 * sim::sec,
                                        [&fired] { ++fired; });
        for (int i = 0; i < kWindow; ++i)
            simulator.cancel(ids[i]);
        simulator.runFor(1);
    }
    benchmark::DoNotOptimize(fired);
    state.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kWindow,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleCancel);

void
BM_TimerChurn(benchmark::State &state)
{
    // Watchdog-style churn: every "packet" reschedules its timeout —
    // cancel the pending timer, schedule a new one, occasionally let
    // one fire. Mixes live and tombstoned entries in the heap.
    sim::Simulator simulator;
    sim::EventId timeout = sim::invalidEventId;
    std::uint64_t fired = 0;
    int tick = 0;
    for (auto _ : state) {
        simulator.cancel(timeout);
        timeout = simulator.schedule(10 * sim::msec,
                                     [&fired] { ++fired; });
        if (++tick % 16 == 0)
            simulator.runFor(1 * sim::msec);
    }
    benchmark::DoNotOptimize(fired);
    state.counters["ops/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimerChurn);

void
BM_PeriodicTick(benchmark::State &state)
{
    // Cost per tick of the PeriodicEvent helper (scheduler
    // accounting, pollers and samplers all ride on it).
    constexpr int kTicksPerIter = 64;
    sim::Simulator simulator;
    std::uint64_t ticks = 0;
    sim::PeriodicEvent pe(simulator, 1 * sim::msec,
                          [&ticks] { ++ticks; });
    for (auto _ : state)
        simulator.runFor(kTicksPerIter * sim::msec);
    benchmark::DoNotOptimize(ticks);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kTicksPerIter,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PeriodicTick);

void
BM_HoldShallow(benchmark::State &state)
{
    // The RUBiS queue shape: 48 pending events, and every firing
    // reschedules its lane a near-future delay ahead (a hold model).
    // One firing in four also cancels another lane's pending event
    // and schedules its replacement, as a preempted segment end
    // does, so a fifth of all schedules end up cancelled.
    constexpr std::uint64_t kLanes = 48;
    constexpr sim::Tick kTicksPerIter = 64;
    struct Hold
    {
        sim::Simulator &s;
        sim::Rng rng;
        sim::EventId pending[kLanes] = {};

        void
        arm(std::uint64_t lane)
        {
            pending[lane] = s.schedule(
                1 + static_cast<sim::Tick>(rng.uniformInt(64)),
                [this, lane] { fire(lane); });
        }

        void
        fire(std::uint64_t lane)
        {
            if (rng.uniformInt(4) == 0) {
                const std::uint64_t other =
                    (lane + 1 + rng.uniformInt(kLanes - 1)) % kLanes;
                s.cancel(pending[other]);
                arm(other);
            }
            arm(lane);
        }
    };
    sim::Simulator simulator;
    Hold hold{simulator, sim::Rng(0x401d), {}};
    for (std::uint64_t lane = 0; lane < kLanes; ++lane)
        hold.arm(lane);
    const std::uint64_t before = simulator.executedEvents();
    for (auto _ : state)
        simulator.runFor(kTicksPerIter);
    benchmark::DoNotOptimize(hold.pending);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(simulator.executedEvents() - before),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HoldShallow);

void
BM_TimerRearm(benchmark::State &state)
{
    // BM_HoldShallow's queue on timers, as the credit scheduler's
    // segment ends run: one timer per lane, re-armed a near-future
    // delay ahead from its own callback. One firing in four re-arms
    // another lane's timer too (a preempted segment end), which
    // replaces its pending firing instead of leaving a tombstone.
    constexpr std::uint64_t kLanes = 48;
    constexpr sim::Tick kTicksPerIter = 64;
    struct Hold
    {
        sim::Simulator &s;
        sim::Rng rng;
        std::vector<sim::Timer> lanes;

        void
        arm(std::uint64_t lane)
        {
            lanes[lane].arm(s.now() + 1
                            + static_cast<sim::Tick>(rng.uniformInt(64)));
        }

        void
        fire(std::uint64_t lane)
        {
            if (rng.uniformInt(4) == 0)
                arm((lane + 1 + rng.uniformInt(kLanes - 1)) % kLanes);
            arm(lane);
        }
    };
    sim::Simulator simulator;
    Hold hold{simulator, sim::Rng(0x401d), {}};
    for (std::uint64_t lane = 0; lane < kLanes; ++lane)
        hold.lanes.emplace_back(simulator,
                                [&hold, lane] { hold.fire(lane); });
    for (std::uint64_t lane = 0; lane < kLanes; ++lane)
        hold.arm(lane);
    const std::uint64_t before = simulator.executedEvents();
    for (auto _ : state)
        simulator.runFor(kTicksPerIter);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(simulator.executedEvents() - before),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimerRearm);

void
BM_SpillDispatch(benchmark::State &state)
{
    // An unordered bulk load: state.range(0) events scheduled up
    // front in (pair, epoch) order, each an epoch's start plus a
    // small per-sender skew, with a 40-byte capture, then drained by
    // a fresh, reserved simulator. Dispatch runs in time order, so it
    // visits the slots out of their allocation order; the spill run
    // carries the whole load.
    const auto events = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kEpochs = 64;
    constexpr sim::Tick kEpoch = 1000;
    const std::size_t pairs = events / kEpochs;
    sim::Rng rng(0x5b111);
    std::vector<sim::Tick> at;
    at.reserve(events);
    for (std::size_t p = 0; p < pairs; ++p)
        for (std::size_t e = 0; e < kEpochs; ++e)
            at.push_back(static_cast<sim::Tick>(e) * kEpoch
                         + static_cast<sim::Tick>(rng.uniformInt(200)));
    std::uint64_t sum = 0;
    for (auto _ : state) {
        sim::Simulator simulator;
        simulator.reserve(events);
        for (std::size_t i = 0; i < events; ++i) {
            const std::uint64_t a = i, b = at[i], c = i ^ b, d = ~i;
            const auto cb = [&sum, a, b, c, d] { sum += a + b + c + d; };
            static_assert(sizeof(cb) == 40);
            simulator.scheduleAt(at[i], cb);
        }
        simulator.runToCompletion();
        benchmark::DoNotOptimize(sum);
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * events),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpillDispatch)->Arg(4096)->Arg(65536)->Arg(262144);

void
BM_TimelineDispatch(benchmark::State &state)
{
    // BM_SpillDispatch's ticks and 40-byte payload, planned the way
    // runFabricScenario plans its workload: the payload sits in a
    // plan array ordered by tick (stably, outside the timed loop), and
    // one handler serves every event from a timeline. The time covers
    // construction, copying the ticks in and dispatch.
    const auto events = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t kEpochs = 64;
    constexpr sim::Tick kEpoch = 1000;
    const std::size_t pairs = events / kEpochs;
    sim::Rng rng(0x5b111);
    // The spill bench's 40-byte capture, as a plan record.
    std::uint64_t sum = 0;
    struct Payload
    {
        std::uint64_t *sum, a, b, c, d;
    };
    static_assert(sizeof(Payload) == 40);
    std::vector<std::pair<sim::Tick, Payload>> plan;
    plan.reserve(events);
    for (std::size_t p = 0; p < pairs; ++p)
        for (std::size_t e = 0; e < kEpochs; ++e) {
            const std::uint64_t i = plan.size();
            const sim::Tick at = static_cast<sim::Tick>(e) * kEpoch
                + static_cast<sim::Tick>(rng.uniformInt(200));
            plan.push_back({at, {&sum, i, at, i ^ at, ~i}});
        }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const auto &x, const auto &y) {
                         return x.first < y.first;
                     });
    std::vector<sim::Tick> at;
    std::vector<Payload> payload;
    for (const auto &[t, p] : plan) {
        at.push_back(t);
        payload.push_back(p);
    }
    for (auto _ : state) {
        sim::Simulator simulator;
        const auto handler = [&payload](std::size_t i) {
            const Payload &p = payload[i];
            *p.sum += p.a + p.b + p.c + p.d;
        };
        simulator.scheduleTimeline(at, handler);
        simulator.runToCompletion();
        benchmark::DoNotOptimize(sum);
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * events),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimelineDispatch)->Arg(4096)->Arg(65536)->Arg(262144);

void
BM_MessageEncodeDecode(benchmark::State &state)
{
    coord::CoordMessage m;
    m.type = coord::MsgType::tune;
    m.src = 2;
    m.dst = 1;
    m.entity = 7;
    m.value = 32.0;
    for (auto _ : state) {
        const auto w0 = m.encodeWord0();
        const auto w1 = m.encodeWord1();
        const auto w2 = m.encodeWord2();
        auto d = coord::CoordMessage::decode(w0, w1, w2);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_MessageEncodeDecode);

void
BM_TuneSendToApply(benchmark::State &state)
{
    // Full simulated path: policy-side send -> mailbox latency ->
    // island applyTune. Measures host cost per simulated tune.
    platform::Testbed tb;
    auto &guest = tb.addGuest("bench-vm", net::IpAddr{10, 0, 8, 2});
    tb.run(1 * sim::sec);
    coord::CoordMessage m;
    m.type = coord::MsgType::tune;
    m.src = tb.ixp().id();
    m.dst = tb.x86().id();
    m.entity = guest.entity;
    m.value = 1.0;
    for (auto _ : state) {
        tb.channel().send(m);
        tb.run(tb.params().coordLatency * 2);
    }
    benchmark::DoNotOptimize(guest.dom->weight());
}
BENCHMARK(BM_TuneSendToApply);

void
BM_TriggerBoost(benchmark::State &state)
{
    sim::Simulator simulator;
    xen::CreditScheduler sched(simulator, 2);
    xen::Domain a(sched, 1, "a", 256);
    xen::Domain b(sched, 2, "b", 256);
    a.submit(1 * sim::sec, xen::JobKind::user);
    b.submit(1 * sim::sec, xen::JobKind::user);
    simulator.runFor(5 * sim::msec);
    for (auto _ : state) {
        sched.boost(b);
        simulator.runFor(100 * sim::usec);
    }
    benchmark::DoNotOptimize(sched.stats().boosts.value());
}
BENCHMARK(BM_TriggerBoost);

void
BM_SchedulerSaturatedSecond(benchmark::State &state)
{
    // Host cost of simulating one saturated scheduler-second with
    // the configured number of CPU-bound domains.
    const int doms = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator simulator;
        xen::CreditScheduler sched(simulator, 2);
        std::vector<std::unique_ptr<xen::Domain>> domains;
        std::function<void(xen::Domain &)> pump =
            [&pump](xen::Domain &d) {
                d.submit(2 * sim::msec, xen::JobKind::user,
                         [&pump, &d] { pump(d); });
            };
        for (int i = 0; i < doms; ++i) {
            std::string name = "d";
            name += std::to_string(i);
            domains.push_back(std::make_unique<xen::Domain>(
                sched, static_cast<std::uint32_t>(i + 1), name, 256.0));
            pump(*domains.back());
        }
        state.ResumeTiming();
        simulator.runFor(1 * sim::sec);
        benchmark::DoNotOptimize(sched.totalBusy());
    }
}
BENCHMARK(BM_SchedulerSaturatedSecond)->Arg(2)->Arg(4)->Arg(8);

void
BM_RubisSimulatedSecond(benchmark::State &state)
{
    // Host cost of one simulated second of the full coordinated
    // RUBiS platform — the end-to-end "how expensive is this
    // simulator" number.
    platform::RubisScenarioConfig cfg;
    cfg.coordination = true;
    cfg.warmup = 0;
    cfg.measure = 0;
    for (auto _ : state) {
        state.PauseTiming();
        // One fresh testbed per iteration keeps state comparable.
        state.ResumeTiming();
        platform::RubisScenarioConfig c = cfg;
        c.warmup = 1 * sim::sec;
        c.measure = 1 * sim::sec;
        auto r = platform::runRubisScenario(c);
        benchmark::DoNotOptimize(r.throughputRps);
    }
}
BENCHMARK(BM_RubisSimulatedSecond)->Unit(benchmark::kMillisecond);

void
BM_FabricMeshSend(benchmark::State &state)
{
    // Host cost per simulated fabric message across N islands.
    const int n = static_cast<int>(state.range(0));
    coord::FabricParams fp;
    fp.topology = coord::FabricTopology::mesh;
    fp.hopLatency = 10 * sim::usec;
    sim::ShardedEngine engine(1, fp.hopLatency);
    coord::CoordFabric fabric(engine.sim(0), fp);
    struct Sink : coord::ResourceIsland
    {
        coord::IslandId id_;
        std::string name_ = "sink";
        explicit Sink(coord::IslandId i) : id_(i) {}
        coord::IslandId id() const override { return id_; }
        const std::string &name() const override { return name_; }
        void applyTune(coord::EntityId, double) override {}
        void applyTrigger(coord::EntityId) override {}
    };
    std::vector<std::unique_ptr<Sink>> sinks;
    for (int i = 0; i < n; ++i) {
        sinks.push_back(std::make_unique<Sink>(
            static_cast<coord::IslandId>(i + 1)));
        fabric.attach(*sinks.back());
    }
    fabric.enableSharding(engine, {});
    coord::CoordMessage m;
    m.type = coord::MsgType::tune;
    m.src = 1;
    m.dst = static_cast<coord::IslandId>(n);
    m.value = 1.0;
    for (auto _ : state) {
        fabric.send(m);
        engine.runFor(20 * sim::usec);
    }
    benchmark::DoNotOptimize(fabric.stats().delivered.value());
}
BENCHMARK(BM_FabricMeshSend)->Arg(2)->Arg(16)->Arg(64);

void
BM_ReliableRegistrationLossy(benchmark::State &state)
{
    // Cost of one acknowledged registration through a 30%-lossy
    // channel, retries included.
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator simulator;
        platform::Testbed *unused = nullptr;
        (void)unused;
        struct Sink : coord::ResourceIsland
        {
            coord::IslandId id_;
            std::string name_ = "sink";
            explicit Sink(coord::IslandId i) : id_(i) {}
            coord::IslandId id() const override { return id_; }
            const std::string &name() const override { return name_; }
            void applyTune(coord::EntityId, double) override {}
            void applyTrigger(coord::EntityId) override {}
        };
        Sink a(1), b(2);
        coord::CoordChannel ch(simulator, a, b, 100 * sim::usec);
        ch.setLossProbability(0.3);
        coord::ReliableAnnouncer::Params params;
        params.retryTimeout = 500 * sim::usec;
        coord::ReliableAnnouncer ann(simulator, ch, params);
        coord::EntityBinding bind;
        bind.ref = {1, 1};
        bind.ip = net::IpAddr(10, 0, 0, 1);
        state.ResumeTiming();
        ann.announce(2, bind);
        simulator.runFor(20 * sim::msec);
        benchmark::DoNotOptimize(ann.acked());
    }
}
BENCHMARK(BM_ReliableRegistrationLossy);

} // namespace

BENCHMARK_MAIN();
