/**
 * @file
 * The island-to-island coordination channel.
 *
 * In the prototype (§2.3) part of the IXP's PCI configuration space
 * is set up as a message channel between the IXP and the x86 host;
 * this class models that channel as a pair of fixed-latency mailboxes
 * and dispatches decoded messages to the destination island's
 * ResourceIsland interface.
 *
 * The channel supports deterministic failure injection (loss,
 * duplication, reordering, latency spikes, burst outages; see
 * interconnect/faults.hpp) so tests and benches can verify that
 * coordination degrades gracefully — a lost Tune may only cost
 * performance, never correctness. Messages carrying a non-zero
 * reliable-delivery sequence number (coord/reliable.hpp) are
 * acknowledged by the receiving endpoint, which also suppresses
 * duplicate deliveries of the same (src, seq) so retransmissions and
 * fault-injected copies apply at most once.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "coord/island.hpp"
#include "coord/message.hpp"
#include "coord/transport.hpp"
#include "interconnect/faults.hpp"
#include "interconnect/msgring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace corm::coord {

/** Per-direction, per-type channel statistics. */
struct ChannelStats
{
    corm::sim::Counter sent;
    corm::sim::Counter delivered;
    corm::sim::Counter dropped;
    corm::sim::Counter tunes;
    corm::sim::Counter triggers;
    corm::sim::Counter registrations;
    /** Duplicate reliable deliveries suppressed at an endpoint. */
    corm::sim::Counter duplicates;
    /** Deliveries observed out of send order within a direction. */
    corm::sim::Counter reorders;
    /** Retransmissions performed by the reliable layer above. */
    corm::sim::Counter retries;
    /** Send-to-apply latency (microseconds). */
    corm::sim::Summary deliveryLatencyUs;
};

/** Aggregated fault-injection health of a channel. */
struct ChannelHealth
{
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t spiked = 0;
    std::uint64_t outageDrops = 0;
    /** Scheduled outage time elapsed so far, microseconds. */
    double outageTimeUs = 0.0;
};

/**
 * Point-to-point coordination channel between two islands. Each
 * endpoint may send(); messages are delivered to the *other* island's
 * ResourceIsland interface after the channel latency.
 */
class CoordChannel : public CoordTransport
{
  public:
    /**
     * @param simulator Event engine.
     * @param side_a First endpoint (e.g. the IXP island).
     * @param side_b Second endpoint (e.g. the x86 island).
     * @param one_way_latency Mailbox latency per direction.
     * @param channel_name For stats and logs.
     */
    CoordChannel(corm::sim::Simulator &simulator, ResourceIsland &side_a,
                 ResourceIsland &side_b,
                 corm::sim::Tick one_way_latency,
                 std::string channel_name = "coord.pci")
        : sim(simulator), a(side_a), b(side_b),
          aToB(simulator, one_way_latency, channel_name + ".a2b"),
          bToA(simulator, one_way_latency, channel_name + ".b2a"),
          name_(std::move(channel_name))
    {
        aToB.setReceiver(
            [this](std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                   std::uint64_t tag, std::uint64_t flow) {
                CoordMessage m = CoordMessage::decode(w0, w1, w2);
                m.trace = flow; // re-attach the side-band span id
                deliver(0, b, m, tag);
            });
        bToA.setReceiver(
            [this](std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
                   std::uint64_t tag, std::uint64_t flow) {
                CoordMessage m = CoordMessage::decode(w0, w1, w2);
                m.trace = flow;
                deliver(1, a, m, tag);
            });
        auto drop = [this](std::uint64_t tag) {
            stats_.dropped.add();
            pendingSendTime.erase(tag);
            if (CORM_TRACE_ACTIVE(rec_)) {
                rec_->instant(fabricTrack(), sim.now(), "hop:drop",
                              "coord");
            }
        };
        aToB.setDropObserver(drop);
        bToA.setDropObserver(drop);
    }

    CoordChannel(const CoordChannel &) = delete;
    CoordChannel &operator=(const CoordChannel &) = delete;

    /**
     * Send a message. Routing uses msg.dst: it must equal one of the
     * two endpoint island ids; messages to an unknown island are
     * counted as dropped (the two-island prototype cannot route).
     */
    void
    send(CoordMessage msg) override
    {
        stats_.sent.add();
        if (msg.dst == b.id()) {
            aToB.send(msg.encodeWord0(), msg.encodeWord1(),
                      msg.encodeWord2(), rememberSend(), msg.trace);
        } else if (msg.dst == a.id()) {
            bToA.send(msg.encodeWord0(), msg.encodeWord1(),
                      msg.encodeWord2(), rememberSend(), msg.trace);
        } else {
            // Unknown destination: count as dropped. A production
            // fabric would route; the two-island prototype cannot.
            stats_.dropped.add();
            log.warn("unroutable %s to island %u (endpoints %u, %u)",
                     msgTypeName(msg.type),
                     static_cast<unsigned>(msg.dst),
                     static_cast<unsigned>(a.id()),
                     static_cast<unsigned>(b.id()));
        }
    }

    /** Set channel one-way latency on both directions (ablations). */
    void
    setLatency(corm::sim::Tick one_way)
    {
        aToB.setLatency(one_way);
        bToA.setLatency(one_way);
    }

    /** Current one-way latency. */
    corm::sim::Tick oneWayLatency() const { return aToB.oneWayLatency(); }

    /**
     * Subject both directions to the weather described by @p params.
     * The channel owns the plan; the same seed replays the same fault
     * sequence. A plan with no enabled faults removes any previous
     * one.
     */
    void
    installFaultPlan(const corm::interconnect::FaultPlanParams &params)
    {
        if (!params.any()) {
            faults.reset();
            aToB.setFaultInjector(nullptr);
            bToA.setFaultInjector(nullptr);
            return;
        }
        faults =
            std::make_unique<corm::interconnect::FaultPlan>(params);
        aToB.setFaultInjector(&faults->aToB());
        bToA.setFaultInjector(&faults->bToA());
    }

    /**
     * Probability in [0,1] that a sent message is silently lost.
     * Sugar for installing a loss-only fault plan with a fixed seed;
     * kept for the simple loss-robustness tests and ablations.
     */
    void
    setLossProbability(double p)
    {
        corm::interconnect::FaultPlanParams params;
        params.seed = 0x10551055ULL;
        params.lossProb = p;
        installFaultPlan(params);
    }

    /** The installed fault plan, or nullptr for a perfect channel. */
    const corm::interconnect::FaultPlan *faultPlan() const
    {
        return faults.get();
    }

    /** Aggregated fault-injection health counters. */
    ChannelHealth
    health() const
    {
        ChannelHealth h;
        if (!faults)
            return h;
        h.lost = faults->lost();
        h.duplicated = faults->duplicated();
        h.reordered = faults->reordered();
        h.spiked = faults->spiked();
        h.outageDrops = faults->outageDrops();
        h.outageTimeUs =
            corm::sim::toMicros(faults->outageTimeUpTo(sim.now()));
        return h;
    }

    /**
     * Observe acks delivered to @p endpoint (one of the two island
     * ids). Observers are per endpoint, so one reliable sender per
     * island can coexist on the same channel without seeing the
     * other's acks.
     */
    std::uint64_t
    addAckObserver(IslandId endpoint, AckObservers::Fn fn) override
    {
        return acks_.add(endpoint, std::move(fn));
    }

    void
    removeAckObserver(IslandId endpoint, std::uint64_t token) override
    {
        acks_.remove(endpoint, token);
    }

    /** Record a retransmission performed by the reliable layer. */
    void noteRetransmit() override { stats_.retries.add(); }

    /**
     * Observe lane activity on one direction (0 = a→b, 1 = b→a) —
     * the heartbeat feed for a health monitor's stall watchdog.
     * nullptr-able; replaces any previous observer.
     */
    void
    setActivityObserver(int dir,
                        corm::interconnect::Mailbox::ActivityFn fn)
    {
        (dir == 0 ? aToB : bToA).setActivityObserver(std::move(fn));
    }

    /**
     * Attach a trace recorder (nullptr detaches). The channel emits
     * per-hop transit slices on a fabric track, propagates causal
     * flow spans across deliveries, and installs the delivered
     * message's span id around the destination island's apply
     * dispatch (obs::TraceScope).
     */
    void setTrace(corm::obs::TraceRecorder *recorder) { rec_ = recorder; }

    /**
     * Mirror per-message send-to-apply latency (microseconds) into a
     * registry-owned histogram (nullptr detaches). The Summary in
     * stats() is kept for the text report.
     */
    void setDeliveryHistogram(corm::obs::Histogram *h)
    {
        deliveryHist = h;
    }

    /** Channel statistics. */
    const ChannelStats &stats() const { return stats_; }

    /** Channel name. */
    const std::string &name() const { return name_; }

  private:
    std::uint64_t
    rememberSend()
    {
        // Tag every send with a fresh monotonically increasing
        // sequence so two in-flight identical messages (repeated
        // tunes of the same entity/delta) keep distinct latency
        // records. The tag travels the mailbox as an opaque cookie;
        // drops erase their record, so the map stays bounded by the
        // number of in-flight messages.
        const std::uint64_t tag = ++sendTag;
        pendingSendTime.emplace(tag, sim.now());
        return tag;
    }

    /** True if (src, seq) was recently applied at endpoint @p dir. */
    bool
    seenRecently(int dir, const CoordMessage &msg)
    {
        // 16-bit src and 32-bit seq no longer fit a packed 32-bit
        // key; a uint64 holds (type, src, seq) with room to spare.
        // Callers guarantee seq != 0, so the key never collides with
        // an empty (zero-initialised) window slot.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(msg.type) << 48)
            | (static_cast<std::uint64_t>(msg.src) << 32)
            | static_cast<std::uint64_t>(msg.seq);
        auto &window = seenWindow[dir];
        for (std::uint64_t k : window) {
            if (k == key)
                return true;
        }
        window[seenHead[dir]++ % window.size()] = key;
        return false;
    }

    void
    sendAckFor(ResourceIsland &learner, const CoordMessage &msg)
    {
        CoordMessage ack;
        ack.type = MsgType::ack;
        ack.src = learner.id();
        ack.dst = msg.src;
        ack.entity = msg.entity;
        ack.seq = msg.seq; // echo: the sender matches pending by seq
        ack.trace = msg.trace; // the return leg stays on the span
        send(ack);
    }

    /** Fabric track for per-direction hop slices (lazy). */
    int
    fabricTrack()
    {
        if (fabricTrk < 0)
            fabricTrk = rec_->track("fabric", name_);
        return fabricTrk;
    }

    /**
     * Trace one delivery: transit slice (first copies), duplicate
     * instant, and the message's flow-span hop. Kept out of line
     * ([[gnu::noinline]]) so deliver() — the per-message hot path —
     * does not carry this block's string/argument construction code
     * when tracing is off.
     */
    [[gnu::noinline]] void
    traceDelivery(int dir, const CoordMessage &msg,
                  corm::sim::Tick sendTick, bool firstCopy)
    {
        if (firstCopy) {
            // Transit slice: send time to delivery time.
            rec_->complete(
                fabricTrack(), sendTick, sim.now() - sendTick,
                std::string("hop:") + msgTypeName(msg.type), "coord",
                {{"dir", dir == 0 ? "a2b" : "b2a"},
                 {"entity", static_cast<std::uint64_t>(msg.entity)},
                 {"seq", static_cast<int>(msg.seq)}});
        }
        if (msg.trace == 0)
            return;
        if (!firstCopy) {
            rec_->instant(fabricTrack(), sim.now(),
                          std::string("hop:dup:")
                              + msgTypeName(msg.type),
                          "coord");
        }
        if (msg.type == MsgType::ack) {
            // The ack reaching the original sender is the last hop
            // of a reliable span.
            rec_->flowEnd(fabricTrack(), sim.now(), msg.trace,
                          "coord.span", "coord");
        } else {
            rec_->flowStep(fabricTrack(), sim.now(), msg.trace,
                           "coord.span", "coord");
        }
    }

    void
    deliver(int dir, ResourceIsland &dst, const CoordMessage &msg,
            std::uint64_t tag)
    {
        stats_.delivered.add();
        // Latency accounting by send tag. A duplicated delivery's
        // second copy misses the (erased) record and is not counted.
        bool firstCopy = false;
        corm::sim::Tick sendTick = 0;
        if (auto it = pendingSendTime.find(tag);
            it != pendingSendTime.end()) {
            firstCopy = true;
            sendTick = it->second;
            const double us =
                corm::sim::toMicros(sim.now() - sendTick);
            stats_.deliveryLatencyUs.record(us);
            if (deliveryHist)
                deliveryHist->record(us);
            pendingSendTime.erase(it);
        }
        if (CORM_TRACE_ACTIVE(rec_))
            traceDelivery(dir, msg, sendTick, firstCopy);
        // Observed reordering: tags are monotone per direction, so a
        // delivery below the direction's high-water mark overtook.
        if (tag > maxTagDelivered[dir]) {
            maxTagDelivered[dir] = tag;
        } else if (tag != 0) {
            stats_.reorders.add();
        }
        // Idempotent duplicate suppression for reliable messages:
        // retransmissions and fault-injected copies apply at most
        // once, but are re-acked so a sender whose ack was lost
        // stops retrying.
        if (msg.seq != 0 && msg.type != MsgType::ack
            && seenRecently(dir, msg)) {
            stats_.duplicates.add();
            sendAckFor(dst, msg);
            return;
        }
        // The destination island's effect events (weight change,
        // boost, thread-share change) join the span via the installed
        // flow context; a fire-and-forget message's apply is the
        // span's last leg (a reliable one still has the ack return).
        corm::obs::TraceScope span(rec_, msg.trace, msg.seq == 0);
        switch (msg.type) {
          case MsgType::tune:
            stats_.tunes.add();
            dst.applyTune(msg.entity, msg.value);
            if (msg.seq != 0)
                sendAckFor(dst, msg);
            break;
          case MsgType::trigger:
            stats_.triggers.add();
            dst.applyTrigger(msg.entity);
            if (msg.seq != 0)
                sendAckFor(dst, msg);
            break;
          case MsgType::registerEntity: {
            stats_.registrations.add();
            EntityBinding binding;
            binding.ref = EntityRef{msg.src, msg.entity};
            binding.ip = corm::net::IpAddr(
                static_cast<std::uint32_t>(
                    std::bit_cast<std::uint64_t>(msg.value)));
            dst.learnBinding(binding);
            // Registrations are acknowledged even without a seq so
            // the announcer can retry losses (see coord/reliable.hpp).
            sendAckFor(dst, msg);
            break;
          }
          case MsgType::ack:
            acks_.dispatch(msg);
            break;
        }
    }

    corm::sim::Simulator &sim;
    ResourceIsland &a;
    ResourceIsland &b;
    corm::interconnect::Mailbox aToB;
    corm::interconnect::Mailbox bToA;
    std::string name_;
    std::unique_ptr<corm::interconnect::FaultPlan> faults;
    AckObservers acks_;
    ChannelStats stats_;
    corm::obs::TraceRecorder *rec_ = nullptr;
    corm::obs::Histogram *deliveryHist = nullptr;
    int fabricTrk = -1;
    corm::sim::Logger log{"coord.channel"};
    std::map<std::uint64_t, corm::sim::Tick> pendingSendTime;
    std::uint64_t sendTag = 0;
    std::array<std::uint64_t, 2> maxTagDelivered{};
    /** Per-endpoint window of recently applied (type, src, seq) keys. */
    std::array<std::array<std::uint64_t, 64>, 2> seenWindow{};
    std::array<std::size_t, 2> seenHead{};
};

} // namespace corm::coord
