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
 * performance, never correctness. A copy the weather duplicated is
 * dropped at the receiver, as on a fabric lane (and as PCIe's link
 * layer discards a replayed packet it already received). Each
 * endpoint applies what it receives by the rules every transport
 * shares (applyAtEndpoint in coord/transport.hpp): messages carrying
 * a non-zero reliable-delivery sequence number (coord/reliable.hpp)
 * are acknowledged, and a retransmission of an already-applied
 * (type, src, seq) is re-acked but not applied again.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
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
    /** First copies delivered (a wire duplicate counts in
     *  duplicates instead). */
    corm::sim::Counter delivered;
    corm::sim::Counter dropped;
    corm::sim::Counter tunes;
    corm::sim::Counter triggers;
    corm::sim::Counter registrations;
    /** Wire duplicate copies dropped at the receiver, plus reliable
     *  retransmissions suppressed by the endpoint's dedup window. */
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
        const int dir = msg.dst == b.id() ? 0 : msg.dst == a.id() ? 1 : -1;
        if (dir < 0) {
            // Unknown destination: count as dropped. A production
            // fabric would route; the two-island prototype cannot.
            stats_.dropped.add();
            log.warn("unroutable %s to island %u (endpoints %u, %u)",
                     msgTypeName(msg.type),
                     static_cast<unsigned>(msg.dst),
                     static_cast<unsigned>(a.id()),
                     static_cast<unsigned>(b.id()));
            return;
        }
        // Tag every send with a fresh monotonically increasing
        // sequence so two in-flight identical messages (repeated
        // tunes of the same entity/delta) keep distinct latency
        // records. The tag travels the mailbox as an opaque cookie;
        // only posted sends get a record, and delivery erases it, so
        // the map stays bounded by the number of in-flight messages.
        const std::uint64_t tag = ++sendTag;
        const std::optional<corm::sim::Tick> when =
            (dir == 0 ? aToB : bToA)
                .send(msg.encodeWord0(), msg.encodeWord1(),
                      msg.encodeWord2(), tag, msg.trace);
        if (when)
            pendingSendTime.emplace(tag, sim.now());
        else
            stats_.dropped.add();
        if (CORM_TRACE_ACTIVE(rec_))
            traceSend(dir, msg, when);
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
     * Attach a trace recorder (nullptr detaches). The channel traces
     * hops at transmit, as the fabric does: each posted send emits
     * its transit slice [send, first-copy delivery] on the
     * fabric/<channel name> track with its flow step at the slice's
     * own timestamp, and a send the weather ate emits hop:drop. A
     * first copy's delivery steps (or, for an ack, ends) the
     * message's span; a duplicate copy is a bare hop:dup:* instant.
     * The endpoint installs the span id around the destination
     * island's apply dispatch (obs::TraceScope).
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
    /** Fabric track for per-direction hop slices (lazy). */
    int
    fabricTrack()
    {
        if (fabricTrk < 0)
            fabricTrk = rec_->track("fabric", name_);
        return fabricTrk;
    }

    /**
     * Trace one send at transmit: the transit slice up to the first
     * copy's delivery tick and the span's flow step, or hop:drop when
     * the fault roll ate it. Kept out of line ([[gnu::noinline]]), as
     * is traceDelivery, so the per-message hot path does not carry
     * the string/argument construction code when tracing is off.
     */
    [[gnu::noinline]] void
    traceSend(int dir, const CoordMessage &msg,
              std::optional<corm::sim::Tick> when)
    {
        const corm::sim::Tick now = sim.now();
        if (!when) {
            rec_->instant(fabricTrack(), now, "hop:drop", "coord");
            return;
        }
        rec_->complete(
            fabricTrack(), now, *when - now,
            std::string("hop:") + msgTypeName(msg.type), "coord",
            {{"dir", dir == 0 ? "a2b" : "b2a"},
             {"entity", static_cast<std::uint64_t>(msg.entity)},
             {"seq", static_cast<int>(msg.seq)}});
        rec_->span(fabricTrack(), now, msg.trace,
                   corm::obs::FlowStamp::hop(msg.type == MsgType::ack,
                                             *when));
    }

    /** Trace one delivered copy: the span's flow step, or its end
     *  when the ack reaches the sender. A duplicate copy is only a
     *  hop:dup:* instant, as on a fabric lane, flowed or not. */
    [[gnu::noinline]] void
    traceDelivery(const CoordMessage &msg, bool firstCopy)
    {
        if (!firstCopy) {
            rec_->instant(fabricTrack(), sim.now(),
                          std::string("hop:dup:")
                              + msgTypeName(msg.type),
                          "coord");
            return;
        }
        // The ack reaching the original sender is the last hop of a
        // reliable span.
        rec_->span(fabricTrack(), sim.now(), msg.trace,
                   {corm::obs::FlowMark::checkpoint},
                   msg.type == MsgType::ack);
    }

    void
    deliver(int dir, ResourceIsland &dst, const CoordMessage &msg,
            std::uint64_t tag)
    {
        // Latency and order accounting by send tag. A copy whose tag
        // is no longer pending is a wire duplicate: its first copy
        // already arrived and erased the record. The receiver drops
        // it, as a fabric lane does, so it is neither delivered,
        // timed, mistaken for an overtaking message, applied nor
        // re-acked.
        const auto it = pendingSendTime.find(tag);
        const bool firstCopy = it != pendingSendTime.end();
        if (CORM_TRACE_ACTIVE(rec_))
            traceDelivery(msg, firstCopy);
        if (!firstCopy) {
            stats_.duplicates.add();
            return;
        }
        stats_.delivered.add();
        const double us = corm::sim::toMicros(sim.now() - it->second);
        stats_.deliveryLatencyUs.record(us);
        if (deliveryHist)
            deliveryHist->record(us);
        pendingSendTime.erase(it);
        // Observed reordering: tags are monotone per direction, so a
        // first copy below the direction's high-water mark overtook.
        if (tag > maxTagDelivered[dir])
            maxTagDelivered[dir] = tag;
        else
            stats_.reorders.add();
        switch (applyAtEndpoint(*this, dst, seen[dir], acks_, rec_, msg)) {
          case EndpointResult::duplicate:
            stats_.duplicates.add();
            break;
          case EndpointResult::tune:
            stats_.tunes.add();
            break;
          case EndpointResult::trigger:
            stats_.triggers.add();
            break;
          case EndpointResult::registration:
            stats_.registrations.add();
            break;
          case EndpointResult::ack:
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
    /** Dedup windows of the receiving endpoint, by direction. */
    std::array<SeenWindow, 2> seen;
};

} // namespace corm::coord
