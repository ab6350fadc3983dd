/**
 * @file
 * The coordination transport interface.
 *
 * The reliable-delivery layer (coord/reliable.hpp) was written
 * against the two-island CoordChannel; the N-island CoordFabric
 * needs the same ack/retry machinery. Both expose the same small
 * surface — send a message toward msg.dst, observe acks arriving at
 * an endpoint, account retransmissions — so ReliableSender and
 * ReliableAnnouncer are written against this interface and work
 * unchanged over either transport.
 *
 * The receiving endpoint's half of the protocol — dedup, re-ack,
 * apply, ack dispatch — lives here too (SeenWindow, applyAtEndpoint),
 * so every transport applies a delivered message by the same rules.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "coord/island.hpp"
#include "coord/message.hpp"
#include "obs/trace.hpp"

namespace corm::coord {

/**
 * Token-registered ack observers, several per endpoint: reliable
 * senders (an announcer that lives the whole run plus a trigger
 * sender, say — both homed at the root) share one endpoint without
 * clobbering each other. Tokens are unique per registry, and
 * observers at one endpoint run in registration order.
 */
class AckObservers
{
  public:
    using Fn = std::function<void(const CoordMessage &)>;

    /** Register @p fn for acks delivered to @p endpoint. */
    std::uint64_t
    add(IslandId endpoint, Fn fn)
    {
        entries_.push_back({++lastToken_, endpoint, std::move(fn)});
        return lastToken_;
    }

    /** Unregister the observer @p token named at @p endpoint. */
    void
    remove(IslandId endpoint, std::uint64_t token)
    {
        std::erase_if(entries_, [&](const Entry &e) {
            return e.token == token && e.endpoint == endpoint;
        });
    }

    /**
     * Hand @p ack to every observer at ack.dst. A callback may
     * register or unregister observers (even destroy its own
     * sender), so each step re-finds the next observer that was
     * registered before the dispatch began and is still registered,
     * and calls a copy of it — a callback belonging to a sender an
     * earlier callback destroyed never runs.
     */
    void
    dispatch(const CoordMessage &ack)
    {
        const std::uint64_t last = lastToken_;
        std::uint64_t done = 0;
        for (;;) {
            auto it = std::find_if(
                entries_.begin(), entries_.end(), [&](const Entry &e) {
                    return e.token > done && e.token <= last
                        && e.endpoint == ack.dst;
                });
            if (it == entries_.end())
                return;
            done = it->token;
            if (it->fn) {
                const Fn fn = it->fn;
                fn(ack);
            }
        }
    }

  private:
    struct Entry
    {
        std::uint64_t token = 0;
        IslandId endpoint = 0;
        Fn fn;
    };
    std::vector<Entry> entries_; ///< ascending token order
    std::uint64_t lastToken_ = 0;
};

/**
 * Abstract message transport between islands. Implementations route
 * by msg.dst, acknowledge sequenced messages at the receiving
 * endpoint, and deliver acks to the endpoint's observers.
 */
class CoordTransport
{
  public:
    virtual ~CoordTransport() = default;

    /** Send @p msg toward msg.dst. */
    virtual void send(CoordMessage msg) = 0;

    /**
     * Observe acks delivered to @p endpoint (see AckObservers). The
     * returned token unregisters exactly this observer via
     * removeAckObserver.
     */
    virtual std::uint64_t addAckObserver(IslandId endpoint,
                                         AckObservers::Fn fn) = 0;

    /** Unregister the observer @p token named at @p endpoint. */
    virtual void removeAckObserver(IslandId endpoint,
                                   std::uint64_t token) = 0;

    /** Record a retransmission performed by the reliable layer. */
    virtual void noteRetransmit() = 0;
};

/**
 * One endpoint's window of the last 64 applied sequenced messages,
 * the dedup state behind exactly-once application: a reliable
 * retransmission, or a copy the weather duplicated, whose original
 * already applied here is recognised and not applied again.
 */
class SeenWindow
{
  public:
    /**
     * Dedup key. The type is part of the key: two reliable senders
     * sharing a source endpoint (an announcer and a trigger sender,
     * say) each start their sequence space at 1, and a window keyed
     * on (src, seq) alone would eat the second sender's first
     * messages as replays of the first's. The packed lanes are
     * (type:8 << 48) | (src:16 << 32) | seq:32 — full-width, so no
     * two distinct (type, src, seq) triples ever alias, and a real
     * key (seq != 0) never equals an empty slot. The key is
     * independent of the route taken, which is what makes dedup
     * stable across a fabric re-parent: a tune re-driven under a new
     * route still matches the copy that slipped through the old one.
     */
    static std::uint64_t
    key(const CoordMessage &msg)
    {
        return (static_cast<std::uint64_t>(msg.type) << 48)
            | (static_cast<std::uint64_t>(msg.src) << 32)
            | static_cast<std::uint64_t>(msg.seq);
    }

    /** True if @p msg's key was recently applied here; records the
     *  key on a miss. */
    bool
    seenRecently(const CoordMessage &msg)
    {
        if (contains(msg))
            return true;
        keys_[head_++ % keys_.size()] = key(msg);
        return false;
    }

    /** Lookup-only probe (no recording): the fabric's
     *  migrate-forward path, where an old home must not claim keys
     *  it never applied. */
    bool
    contains(const CoordMessage &msg) const
    {
        return std::find(keys_.begin(), keys_.end(), key(msg))
            != keys_.end();
    }

  private:
    std::array<std::uint64_t, 64> keys_{};
    std::size_t head_ = 0;
};

/** Acknowledge @p msg from @p learner back to its sender over
 *  @p transport. The ack echoes the seq (the sender matches pending
 *  sends by it) and the trace id (the return leg stays on the span). */
inline void
sendAckFor(CoordTransport &transport, IslandId learner,
           const CoordMessage &msg)
{
    CoordMessage ack;
    ack.type = MsgType::ack;
    ack.src = learner;
    ack.dst = msg.src;
    ack.entity = msg.entity;
    ack.seq = msg.seq;
    ack.trace = msg.trace;
    transport.send(ack);
}

/** What applyAtEndpoint did with a delivered message; the transport
 *  bumps its own counters from it. */
enum class EndpointResult : std::uint8_t
{
    duplicate, ///< suppressed by the dedup window (and re-acked)
    tune,
    trigger,
    registration,
    ack ///< handed to the addressed endpoint's ack observers
};

/**
 * Apply @p msg at its destination endpoint @p dst, whose dedup window
 * is @p seen. Every transport drops a wire duplicate copy at the
 * receiver before it gets here, so each sent message reaches this
 * once. A sequenced request seen recently is a retransmission: it is
 * re-acked, so a sender whose ack was lost stops retrying, and not
 * applied again.
 * Otherwise the message's span id is installed (obs::TraceScope) so
 * the island's effect events join the flow — a fire-and-forget
 * message's apply is the span's last leg, a reliable one still has
 * the ack return — and the tune, trigger or registration is applied
 * and acked, or the ack dispatched to @p acks. Registrations are
 * acked even without a seq so the announcer can retry losses (see
 * coord/reliable.hpp); an unsequenced tune or trigger is applied
 * each time it arrives.
 */
inline EndpointResult
applyAtEndpoint(CoordTransport &transport, ResourceIsland &dst,
                SeenWindow &seen, AckObservers &acks,
                corm::obs::TraceRecorder *rec, const CoordMessage &msg)
{
    if (msg.seq != 0 && msg.type != MsgType::ack
        && seen.seenRecently(msg)) {
        sendAckFor(transport, dst.id(), msg);
        return EndpointResult::duplicate;
    }
    corm::obs::TraceScope span(rec, msg.trace, msg.seq == 0);
    switch (msg.type) {
      case MsgType::tune:
        dst.applyTune(msg.entity, msg.value);
        if (msg.seq != 0)
            sendAckFor(transport, dst.id(), msg);
        return EndpointResult::tune;
      case MsgType::trigger:
        dst.applyTrigger(msg.entity);
        if (msg.seq != 0)
            sendAckFor(transport, dst.id(), msg);
        return EndpointResult::trigger;
      case MsgType::registerEntity: {
        EntityBinding binding;
        binding.ref = EntityRef{msg.src, msg.entity};
        binding.ip = corm::net::IpAddr(static_cast<std::uint32_t>(
            std::bit_cast<std::uint64_t>(msg.value)));
        dst.learnBinding(binding);
        sendAckFor(transport, dst.id(), msg);
        return EndpointResult::registration;
      }
      case MsgType::ack:
        break;
    }
    acks.dispatch(msg);
    return EndpointResult::ack;
}

} // namespace corm::coord
