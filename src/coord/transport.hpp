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
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "coord/message.hpp"

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

} // namespace corm::coord
