/**
 * @file
 * Coordination policy framework and the policies the paper evaluates.
 *
 * A policy runs inside the *observer* island (the IXP in the
 * prototype), consumes that island's local observations — classified
 * request types, stream properties, buffer occupancy — and emits
 * Tune/Trigger messages toward entities in remote islands. Policies
 * are deliberately decoupled from the channel: they emit through an
 * injected sender so they can be unit-tested in isolation and reused
 * over any transport.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "coord/message.hpp"
#include "coord/types.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace corm::coord {

/** Stream properties the IXP extracts from RTSP session setup. */
struct StreamInfo
{
    double bitrateBps = 0.0;
    double fps = 0.0;
};

/**
 * Base class for coordination policies. Subclasses override the
 * observation hooks they care about; all emission goes through
 * sendTune()/sendTrigger() so statistics are uniform.
 */
class CoordinationPolicy
{
  public:
    using SendFn = std::function<void(const CoordMessage &)>;

    /** @param policy_name For stats and logs. */
    explicit CoordinationPolicy(std::string policy_name)
        : name_(std::move(policy_name))
    {}

    virtual ~CoordinationPolicy() = default;

    /**
     * Attach the message transport and the observer island's id
     * (stamped into the src field of emitted messages).
     */
    void
    attachSender(IslandId self, SendFn fn)
    {
        selfIsland = self;
        sender = std::move(fn);
    }

    /**
     * Attach a trace recorder (nullptr detaches): every emitted
     * Tune/Trigger becomes the root of a causal span — a decision
     * slice on @p process's "policy" track plus a flow begin whose
     * id travels with the message (CoordMessage::trace) all the way
     * to the remote scheduler effect. @p clock stamps the events.
     */
    void
    attachTrace(corm::obs::TraceRecorder *recorder,
                const std::string &process,
                const corm::sim::Simulator *clock)
    {
        rec = recorder;
        traceClock = clock;
        traceTrack = -1;
        traceProcess = process;
    }

    /** A request of class @p request_class was classified for @p vm. */
    virtual void
    onRequestClassified(const EntityRef &vm, std::uint32_t request_class)
    {
        (void)vm;
        (void)request_class;
    }

    /** Stream properties learned/updated for @p vm. */
    virtual void
    onStreamInfo(const EntityRef &vm, const StreamInfo &info)
    {
        (void)vm;
        (void)info;
    }

    /** Buffer occupancy for @p vm sampled at @p now. */
    virtual void
    onBufferLevel(const EntityRef &vm, std::uint64_t bytes,
                  corm::sim::Tick now)
    {
        (void)vm;
        (void)bytes;
        (void)now;
    }

    /** Periodic hook (monitoring-driven policies). */
    virtual void onPeriodic(corm::sim::Tick now) { (void)now; }

    /** Policy name. */
    const std::string &name() const { return name_; }

    /** Tunes emitted so far. */
    std::uint64_t tunesSent() const { return tunes.value(); }

    /** Triggers emitted so far. */
    std::uint64_t triggersSent() const { return triggers.value(); }

  protected:
    /** Emit a Tune for @p target with signed @p delta. */
    void
    sendTune(const EntityRef &target, double delta)
    {
        if (!sender)
            return;
        CoordMessage m;
        m.type = MsgType::tune;
        m.src = selfIsland;
        m.dst = target.island;
        m.entity = target.entity;
        m.value = delta;
        tunes.add();
        // Guard before the call: the TraceArg list (a vector and its
        // strings) would otherwise be built per Tune even untraced.
        if (CORM_TRACE_ACTIVE(rec))
            beginSpan(m,
                      {{"entity", static_cast<std::uint64_t>(m.entity)},
                       {"delta", delta}});
        sender(m);
    }

    /** Emit a Trigger for @p target. */
    void
    sendTrigger(const EntityRef &target)
    {
        if (!sender)
            return;
        CoordMessage m;
        m.type = MsgType::trigger;
        m.src = selfIsland;
        m.dst = target.island;
        m.entity = target.entity;
        triggers.add();
        if (CORM_TRACE_ACTIVE(rec))
            beginSpan(
                m, {{"entity", static_cast<std::uint64_t>(m.entity)}});
        sender(m);
    }

  private:
    /** Root a causal span at this decision (no-op untraced). */
    void
    beginSpan(CoordMessage &m, std::vector<corm::obs::TraceArg> args)
    {
        if (!CORM_TRACE_ACTIVE(rec) || !traceClock)
            return;
        if (traceTrack < 0)
            traceTrack = rec->track(traceProcess, "policy:" + name_);
        m.trace = rec->newFlow();
        const corm::sim::Tick now = traceClock->now();
        rec->complete(traceTrack, now, 0,
                      std::string("decide:") + msgTypeName(m.type),
                      "coord", std::move(args));
        rec->span(traceTrack, now, m.trace,
                  corm::obs::FlowStamp::decide(now));
    }

    std::string name_;
    IslandId selfIsland = 0;
    SendFn sender;
    corm::obs::TraceRecorder *rec = nullptr;
    const corm::sim::Simulator *traceClock = nullptr;
    std::string traceProcess;
    int traceTrack = -1;
    corm::sim::Counter tunes;
    corm::sim::Counter triggers;
};

/**
 * The RUBiS coordination scheme (§3.1): a table maps each classified
 * request class to a set of weight adjustments for the application's
 * component VMs — browsing requests boost the web tier and shrink the
 * database tier, servlet/write requests do the reverse, and the
 * application server follows whichever tier is active.
 *
 * The paper applies tunes per request and observes occasional
 * mis-application when read/write request types oscillate faster than
 * the (PCIe-latency-delayed) tunes take effect. The optional damping
 * mode (an EWMA with a hysteresis band, our §5-style extension)
 * trades reaction speed against that oscillation; the
 * ablation_oscillation bench quantifies the trade.
 */
class RequestTypeTunePolicy : public CoordinationPolicy
{
  public:
    /** Weight adjustments to issue for one request class. */
    using Adjustments = std::vector<std::pair<EntityRef, double>>;

    /** Damping configuration (disabled by default, as in the paper). */
    struct Damping
    {
        bool enabled = false;
        /** EWMA smoothing factor in (0, 1]; 1 = undamped. */
        double alpha = 0.3;
        /** Minimum |EWMA - last sent| before a tune is emitted. */
        double hysteresis = 32.0;
    };

    RequestTypeTunePolicy() : RequestTypeTunePolicy(Damping{}) {}

    explicit RequestTypeTunePolicy(Damping damping)
        : CoordinationPolicy("rubis-request-tune"), damp(damping)
    {}

    /** Define the adjustments for @p request_class. */
    void
    setAdjustments(std::uint32_t request_class, Adjustments adj)
    {
        table[request_class] = std::move(adj);
    }

    void
    onRequestClassified(const EntityRef &vm,
                        std::uint32_t request_class) override
    {
        (void)vm; // adjustments name their own targets
        auto it = table.find(request_class);
        if (it == table.end())
            return;
        for (const auto &[target, delta] : it->second) {
            if (!damp.enabled) {
                sendTune(target, delta);
                continue;
            }
            auto &st = dampState[key(target)];
            st.ewma = damp.alpha * delta + (1.0 - damp.alpha) * st.ewma;
            if (std::abs(st.ewma - st.lastSent) >= damp.hysteresis) {
                sendTune(target, st.ewma - st.lastSent);
                st.lastSent = st.ewma;
            }
        }
    }

  private:
    struct DampState
    {
        double ewma = 0.0;
        double lastSent = 0.0;
    };

    static std::uint64_t
    key(const EntityRef &ref)
    {
        return (static_cast<std::uint64_t>(ref.island) << 32)
            | ref.entity;
    }

    std::map<std::uint32_t, Adjustments> table;
    Damping damp;
    std::map<std::uint64_t, DampState> dampState;
};

/**
 * The MPlayer stream-property scheme (§3.2, coordination scheme 1):
 * when the IXP learns a stream's bit- and frame-rate at RTSP session
 * setup, it tunes the hosting VM's weight up for high-rate streams
 * and down for low-rate ones, translating stream-level properties
 * into CPU allocations.
 */
class StreamQosTunePolicy : public CoordinationPolicy
{
  public:
    struct Config
    {
        /** Streams at or above these rates count as "high". */
        double highBitrateBps = 800e3;
        double highFps = 24.0;
        /** Weight delta for high-rate streams. */
        double increaseDelta = +128.0;
        /** Weight delta for low-rate streams. */
        double decreaseDelta = -64.0;
        /**
         * Scale the increase with how demanding the stream is:
         * extra delta per Mbit/s above the high threshold.
         */
        double perMbpsBonus = 128.0;
    };

    StreamQosTunePolicy() : StreamQosTunePolicy(Config{}) {}

    explicit StreamQosTunePolicy(Config config)
        : CoordinationPolicy("stream-qos-tune"), cfg(config)
    {}

    void
    onStreamInfo(const EntityRef &vm, const StreamInfo &info) override
    {
        const bool high = info.bitrateBps >= cfg.highBitrateBps
            || info.fps >= cfg.highFps;
        double delta = high ? cfg.increaseDelta : cfg.decreaseDelta;
        if (high && info.bitrateBps > cfg.highBitrateBps) {
            delta += cfg.perMbpsBonus
                * (info.bitrateBps - cfg.highBitrateBps) / 1e6;
        }
        // Only emit when the decision changes; stream properties are
        // per-session state, not per-packet noise.
        auto it = lastDelta.find(key(vm));
        if (it != lastDelta.end() && it->second == delta)
            return;
        lastDelta[key(vm)] = delta;
        sendTune(vm, delta);
    }

  private:
    static std::uint64_t
    key(const EntityRef &ref)
    {
        return (static_cast<std::uint64_t>(ref.island) << 32)
            | ref.entity;
    }

    Config cfg;
    std::map<std::uint64_t, double> lastDelta;
};

/**
 * The system-level buffer-monitoring scheme (§3.2, coordination
 * scheme 2): when a VM's packet-buffer occupancy in IXP DRAM crosses
 * a threshold, fire an immediate Trigger so the host boosts the
 * dequeuing VM before the frontend buffer overflows and drops
 * packets. A per-entity refractory gap prevents trigger storms while
 * occupancy hovers at the threshold.
 */
class BufferThresholdTriggerPolicy : public CoordinationPolicy
{
  public:
    struct Config
    {
        /** Occupancy (bytes) at which to fire; paper uses 128 KiB. */
        std::uint64_t thresholdBytes = 128 * 1024;
        /** Minimum spacing between triggers for one entity. */
        corm::sim::Tick minGap = 20 * corm::sim::msec;
        /**
         * If true, re-arm only after occupancy falls below the
         * threshold (edge triggering); if false, fire every minGap
         * while above it (level triggering). The trigger-semantics
         * ablation compares the two.
         */
        bool edgeTriggered = false;
    };

    BufferThresholdTriggerPolicy()
        : BufferThresholdTriggerPolicy(Config{})
    {}

    explicit BufferThresholdTriggerPolicy(Config config)
        : CoordinationPolicy("buffer-threshold-trigger"), cfg(config)
    {}

    void
    onBufferLevel(const EntityRef &vm, std::uint64_t bytes,
                  corm::sim::Tick now) override
    {
        auto &st = state[key(vm)];
        if (bytes < cfg.thresholdBytes) {
            st.armed = true;
            return;
        }
        if (cfg.edgeTriggered && !st.armed)
            return;
        if (st.lastFire != 0 && now - st.lastFire < cfg.minGap)
            return;
        st.lastFire = now;
        st.armed = false;
        sendTrigger(vm);
    }

  private:
    struct State
    {
        corm::sim::Tick lastFire = 0;
        bool armed = true;
    };

    static std::uint64_t
    key(const EntityRef &ref)
    {
        return (static_cast<std::uint64_t>(ref.island) << 32)
            | ref.entity;
    }

    Config cfg;
    std::map<std::uint64_t, State> state;
};

/**
 * Platform-level power budgeting (§1 use-case 2; §5 ongoing work):
 * keeps the sum of island power draws under a cap by tuning down the
 * lowest-priority entities, restoring them when headroom returns.
 * Power must be capped at *platform* level because slowing cores in
 * one island can strand work in another — which is exactly why this
 * runs as a coordination policy rather than inside any one island.
 */
class PowerCapPolicy : public CoordinationPolicy
{
  public:
    struct Config
    {
        double capWatts = 100.0;
        /** Hysteresis: restore only below this fraction of the cap. */
        double restoreFraction = 0.9;
        /** Weight step per control period. */
        double stepDelta = 64.0;
        /** Maximum cumulative reduction per entity. */
        double maxReduction = 256.0;
    };

    /** Reads the platform's current total power draw. */
    using PowerReader = std::function<double()>;

    PowerCapPolicy(Config config, PowerReader reader)
        : CoordinationPolicy("power-cap"), cfg(config),
          readPower(std::move(reader))
    {}

    /**
     * Register a throttleable entity; lower priority values are
     * throttled first.
     */
    void
    addEntity(const EntityRef &ref, int priority)
    {
        victims.push_back({ref, priority, 0.0});
        std::stable_sort(victims.begin(), victims.end(),
                         [](const Victim &a, const Victim &b) {
                             return a.priority < b.priority;
                         });
    }

    void
    onPeriodic(corm::sim::Tick now) override
    {
        (void)now;
        if (!readPower)
            return;
        const double power = readPower();
        if (power > cfg.capWatts) {
            // Throttle the lowest-priority entity with headroom.
            for (auto &v : victims) {
                if (v.reduced < cfg.maxReduction) {
                    sendTune(v.ref, -cfg.stepDelta);
                    v.reduced += cfg.stepDelta;
                    ++throttleActions;
                    return;
                }
            }
        } else if (power < cfg.capWatts * cfg.restoreFraction) {
            // Restore the highest-priority throttled entity first.
            for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
                if (it->reduced > 0.0) {
                    const double back =
                        std::min(cfg.stepDelta, it->reduced);
                    sendTune(it->ref, back);
                    it->reduced -= back;
                    ++restoreActions;
                    return;
                }
            }
        }
    }

    /** Number of throttle steps taken. */
    std::uint64_t throttles() const { return throttleActions; }

    /** Number of restore steps taken. */
    std::uint64_t restores() const { return restoreActions; }

  private:
    struct Victim
    {
        EntityRef ref;
        int priority;
        double reduced;
    };

    Config cfg;
    PowerReader readPower;
    std::vector<Victim> victims;
    std::uint64_t throttleActions = 0;
    std::uint64_t restoreActions = 0;
};

} // namespace corm::coord
