/**
 * @file
 * Reliable delivery over the coordination channel.
 *
 * Tune and Trigger are fire-and-forget by design — a lost tune only
 * costs a little performance. Some coordination traffic is different:
 * if the IXP never learns a guest's binding, every packet for that
 * guest is unclassifiable forever. The registration leg of the §2.3
 * protocol therefore needs acknowledgement and retry.
 *
 * ReliableSender is the general layer any policy can opt into: it
 * stamps messages with a non-zero sequence number (the channel acks
 * sequenced messages and suppresses duplicate deliveries of the same
 * (src, seq) at the receiving endpoint), retries unacked messages
 * with exponential backoff up to a cap, and gives up after a bounded
 * number of attempts. One sender serves one source endpoint; acks are
 * observed through the channel's per-endpoint ack observer, so a
 * sender per island can coexist on the same channel.
 *
 * ReliableAnnouncer keeps the registration-specific behaviour on top:
 * one logical slot per (island, entity), where a re-announcement
 * supersedes the pending one (the newest binding wins).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "coord/message.hpp"
#include "coord/transport.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace corm::coord {

/**
 * Sequence-numbered ack/retry transport for one source endpoint.
 */
class ReliableSender
{
  public:
    struct Params
    {
        /** First resend if unacked after this long. */
        corm::sim::Tick retryTimeout = 5 * corm::sim::msec;
        /** Multiplier applied to the timeout after every attempt. */
        double backoffFactor = 2.0;
        /** Upper bound of the backed-off timeout. */
        corm::sim::Tick backoffCap = 40 * corm::sim::msec;
        /** Total attempts before giving up (>= 1). */
        int maxAttempts = 8;
        /**
         * Test hook: usable sequence values cycle in [1, seqSpace).
         * 0 means the full 32-bit space. Shrinking it (>= 2) keeps
         * the exhaustion-reclaim path reachable in tests now that
         * the real space is practically inexhaustible.
         */
        SeqNum seqSpace = 0;
    };

    /** Final fate of one reliable send. */
    enum class Outcome { acked, abandoned, superseded };

    /** Completion callback: outcome plus the message it concerns. */
    using OutcomeFn =
        std::function<void(Outcome, const CoordMessage &)>;

    /**
     * @param simulator Event engine.
     * @param channel Transport the messages travel (channel or
     *                fabric; see coord/transport.hpp).
     * @param self Source endpoint island; acks to it are observed.
     * @param params Retry parameters.
     */
    ReliableSender(corm::sim::Simulator &simulator,
                   CoordTransport &channel, IslandId self)
        : ReliableSender(simulator, channel, self, Params{})
    {}

    ReliableSender(corm::sim::Simulator &simulator,
                   CoordTransport &channel, IslandId self, Params params)
        : sim(simulator), chan(channel), selfId(self), cfg(params)
    {
        // Token registration: several senders (and an announcer) can
        // share one endpoint (see AckObservers).
        ackToken = chan.addAckObserver(
            selfId, [this](const CoordMessage &m) { onAck(m); });
    }

    ~ReliableSender()
    {
        for (auto &[seq, st] : pending)
            sim.cancel(st.retryEvent);
        chan.removeAckObserver(selfId, ackToken);
    }

    ReliableSender(const ReliableSender &) = delete;
    ReliableSender &operator=(const ReliableSender &) = delete;

    /**
     * Send @p m reliably: stamps a fresh sequence number, retries
     * until acked or out of attempts. @p m.src should equal the
     * sender's endpoint (acks route back to msg.src).
     *
     * @return The sequence number assigned (usable with cancel()).
     */
    SeqNum
    send(CoordMessage m, OutcomeFn done = {})
    {
        const SeqNum seq = allocSeq();
        m.seq = seq;
        Pending &st = pending[seq];
        st.msg = m;
        st.attempts = 0;
        st.timeout = cfg.retryTimeout;
        st.allocIndex = allocCounter++;
        st.done = std::move(done);
        transmit(seq);
        return seq;
    }

    /**
     * Withdraw a pending send (a newer message supersedes it). Safe
     * to call with a seq that already completed.
     */
    void
    cancel(SeqNum seq)
    {
        auto it = pending.find(seq);
        if (it == pending.end())
            return;
        finish(it, Outcome::superseded);
    }

    /**
     * Abandon every pending send addressed to @p dst — the departed-
     * destination path: when an island leaves or crashes the retry
     * timers toward it must be cancelled through finish() with a
     * proper abandon note, not left firing into an unroutable lane
     * inflating the transport's drop counters. Returns how many
     * sends were abandoned.
     */
    std::size_t
    abandonDestination(IslandId dst)
    {
        std::size_t n = 0;
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->second.msg.dst != dst) {
                ++it;
                continue;
            }
            abandonedCount.add();
            logger.debug("abandoning %s seq %u: island %u departed",
                         msgTypeName(it->second.msg.type),
                         static_cast<unsigned>(it->first),
                         static_cast<unsigned>(dst));
            if (CORM_TRACE_ACTIVE(rec_)
                && it->second.msg.trace != 0) {
                rec_->instant(myTrack(), sim.now(), "abandon", "coord",
                              {{"seq", static_cast<int>(it->first)},
                               {"departed", 1}});
                rec_->span(myTrack(), sim.now(), it->second.msg.trace,
                           {corm::obs::FlowMark::abandon}, true);
            }
            if (onAbandon)
                onAbandon(it->second.msg);
            // finish() erases the entry; restart after the mutation
            // (done callbacks may themselves touch `pending`).
            const SeqNum seq = it->first;
            finish(it, Outcome::abandoned);
            it = pending.upper_bound(seq);
            ++n;
        }
        return n;
    }

    /** Sends not yet acked, abandoned, or cancelled. */
    std::size_t pendingCount() const { return pending.size(); }

    /** Sends acknowledged. */
    std::uint64_t acked() const { return ackedCount.value(); }

    /** Retransmissions performed. */
    std::uint64_t retries() const { return retryCount.value(); }

    /** Sends abandoned after maxAttempts. */
    std::uint64_t abandoned() const { return abandonedCount.value(); }

    /** Acks that arrived after their send completed (e.g. gave up). */
    std::uint64_t lateAcks() const { return lateAckCount.value(); }

    /** Endpoint this sender transmits from. */
    IslandId endpoint() const { return selfId; }

    /**
     * Attach a trace recorder (nullptr detaches): retransmissions
     * and abandonments become instants on a per-endpoint "coord"
     * track, stepping the message's causal span so retried legs stay
     * on one chain.
     */
    void setTrace(corm::obs::TraceRecorder *recorder) { rec_ = recorder; }

    /**
     * Observer of abandoned sends (for a health monitor): invoked
     * with a short description when a message runs out of attempts.
     * nullptr-able; replaces any previous observer.
     */
    using AbandonFn = std::function<void(const CoordMessage &)>;
    void setAbandonObserver(AbandonFn fn)
    {
        onAbandon = std::move(fn);
    }

  private:
    struct Pending
    {
        CoordMessage msg;
        int attempts = 0;
        corm::sim::Tick timeout = 0;
        corm::sim::EventId retryEvent = corm::sim::invalidEventId;
        /** Monotonic allocation order, for oldest-first reclaim. */
        std::uint64_t allocIndex = 0;
        OutcomeFn done;
    };

    SeqNum
    allocSeq()
    {
        // Usable values cycle in [1, space); 0 stays the
        // fire-and-forget marker. The scan skips seqs still in
        // flight and visits at most pending.size() + 1 values, so it
        // terminates whenever at least one value is free.
        const std::uint64_t space = cfg.seqSpace
            ? static_cast<std::uint64_t>(cfg.seqSpace)
            : (std::uint64_t{1} << 32);
        if (static_cast<std::uint64_t>(pending.size()) + 1 < space) {
            for (;;) {
                nextSeq = static_cast<SeqNum>(
                    (static_cast<std::uint64_t>(nextSeq) + 1) % space);
                if (nextSeq == 0)
                    continue;
                if (!pending.count(nextSeq))
                    return nextSeq;
            }
        }
        // Every usable seq is in flight — only reachable with a
        // shrunken test seq space or a catastrophically dead channel.
        // Reclaim the OLDEST in-flight send as a proper Abandoned
        // completion through finish(): its retry timer is cancelled,
        // the abandon observer fires, and the accounting stays
        // consistent (no silently orphaned Pending).
        auto oldest = pending.begin();
        for (auto it = std::next(pending.begin()); it != pending.end();
             ++it)
            if (it->second.allocIndex < oldest->second.allocIndex)
                oldest = it;
        const SeqNum seq = oldest->first;
        logger.warn("sequence space exhausted at endpoint %u; "
                    "abandoning oldest in-flight seq %u",
                    static_cast<unsigned>(selfId),
                    static_cast<unsigned>(seq));
        abandonedCount.add();
        if (CORM_TRACE_ACTIVE(rec_) && oldest->second.msg.trace != 0) {
            rec_->instant(myTrack(), sim.now(), "abandon", "coord",
                          {{"seq", static_cast<int>(seq)},
                           {"exhausted", 1}});
            rec_->span(myTrack(), sim.now(), oldest->second.msg.trace,
                       {corm::obs::FlowMark::abandon}, true);
        }
        if (onAbandon)
            onAbandon(oldest->second.msg);
        finish(oldest, Outcome::abandoned);
        return seq;
    }

    void
    finish(std::map<SeqNum, Pending>::iterator it, Outcome o)
    {
        sim.cancel(it->second.retryEvent);
        OutcomeFn done = std::move(it->second.done);
        const CoordMessage msg = it->second.msg;
        pending.erase(it);
        if (done)
            done(o, msg);
    }

    void
    transmit(SeqNum seq)
    {
        auto it = pending.find(seq);
        if (it == pending.end())
            return;
        Pending &st = it->second;
        if (st.attempts >= cfg.maxAttempts) {
            abandonedCount.add();
            logger.debug("abandoning %s seq %u to island %u after %d "
                         "attempts",
                         msgTypeName(st.msg.type),
                         static_cast<unsigned>(seq),
                         static_cast<unsigned>(st.msg.dst),
                         st.attempts);
            if (CORM_TRACE_ACTIVE(rec_) && st.msg.trace != 0) {
                rec_->instant(myTrack(), sim.now(), "abandon", "coord",
                              {{"seq", static_cast<int>(seq)},
                               {"attempts", st.attempts}});
                rec_->span(myTrack(), sim.now(), st.msg.trace,
                           {corm::obs::FlowMark::abandon}, true);
            }
            if (onAbandon)
                onAbandon(st.msg);
            finish(it, Outcome::abandoned);
            return;
        }
        ++st.attempts;
        if (st.attempts > 1) {
            retryCount.add();
            chan.noteRetransmit();
            if (CORM_TRACE_ACTIVE(rec_) && st.msg.trace != 0) {
                rec_->instant(
                    myTrack(), sim.now(),
                    std::string("retry:") + msgTypeName(st.msg.type),
                    "coord",
                    {{"seq", static_cast<int>(seq)},
                     {"attempt", st.attempts}});
                rec_->span(myTrack(), sim.now(), st.msg.trace,
                           {corm::obs::FlowMark::retry});
            }
        }
        chan.send(st.msg);
        st.retryEvent =
            sim.schedule(st.timeout, [this, seq] { transmit(seq); });
        const double next = static_cast<double>(st.timeout)
            * (cfg.backoffFactor > 1.0 ? cfg.backoffFactor : 1.0);
        st.timeout = std::min(
            cfg.backoffCap,
            static_cast<corm::sim::Tick>(next));
    }

    void
    onAck(const CoordMessage &m)
    {
        if (m.seq == 0)
            return; // legacy unsequenced ack; nothing to match
        auto it = pending.find(m.seq);
        if (it == pending.end()) {
            lateAckCount.add();
            return;
        }
        ackedCount.add();
        finish(it, Outcome::acked);
    }

    /** Per-endpoint reliable-layer track (lazy). */
    int
    myTrack()
    {
        if (trk < 0)
            trk = rec_->track(
                "coord", "reliable@" + std::to_string(selfId));
        return trk;
    }

    corm::sim::Simulator &sim;
    CoordTransport &chan;
    IslandId selfId;
    std::uint64_t ackToken = 0;
    Params cfg;
    corm::obs::TraceRecorder *rec_ = nullptr;
    AbandonFn onAbandon;
    int trk = -1;
    corm::sim::Logger logger{"coord.reliable"};
    std::map<SeqNum, Pending> pending;
    SeqNum nextSeq = 0;
    std::uint64_t allocCounter = 0;
    corm::sim::Counter ackedCount;
    corm::sim::Counter retryCount;
    corm::sim::Counter abandonedCount;
    corm::sim::Counter lateAckCount;
};

/**
 * Retries registration announcements until acknowledged.
 *
 * Usage: install as (part of) the GlobalController's announce
 * transport. announce() sends the registration through a
 * ReliableSender; a re-announcement of the same (island, entity)
 * supersedes the pending one so the newest binding wins.
 *
 * Registration bring-up predates any traffic, so the default retry
 * policy is a constant aggressive timeout (backoffFactor 1); set
 * backoffFactor > 1 for exponential backoff.
 */
class ReliableAnnouncer
{
  public:
    struct Params
    {
        /** Resend if unacked after this long. */
        corm::sim::Tick retryTimeout = 5 * corm::sim::msec;
        /** Total attempts before giving up (>= 1). */
        int maxAttempts = 8;
        /** Timeout multiplier per attempt (1 = constant). */
        double backoffFactor = 1.0;
        /** Upper bound of the backed-off timeout. */
        corm::sim::Tick backoffCap = 40 * corm::sim::msec;
    };

    /**
     * @param simulator Event engine.
     * @param channel Transport the announcements travel.
     * @param params Retry parameters.
     */
    ReliableAnnouncer(corm::sim::Simulator &simulator,
                      CoordTransport &channel)
        : ReliableAnnouncer(simulator, channel, Params{})
    {}

    ReliableAnnouncer(corm::sim::Simulator &simulator,
                      CoordTransport &channel, Params params)
        : sim(simulator), chan(channel), cfg(params)
    {}

    ReliableAnnouncer(const ReliableAnnouncer &) = delete;
    ReliableAnnouncer &operator=(const ReliableAnnouncer &) = delete;

    /**
     * Announce @p binding to the island @p to over the channel,
     * retrying until acknowledged. All announcements of one
     * announcer must originate from the same source island
     * (binding.ref.island); the first call pins it.
     */
    void
    announce(IslandId to, const EntityBinding &binding)
    {
        CoordMessage m;
        m.type = MsgType::registerEntity;
        m.src = binding.ref.island;
        m.dst = to;
        m.entity = binding.ref.entity;
        m.value = std::bit_cast<double>(
            static_cast<std::uint64_t>(binding.ip.v));

        if (!sender) {
            ReliableSender::Params sp;
            sp.retryTimeout = cfg.retryTimeout;
            sp.maxAttempts = cfg.maxAttempts;
            sp.backoffFactor = cfg.backoffFactor;
            sp.backoffCap = cfg.backoffCap;
            sender = std::make_unique<ReliableSender>(
                sim, chan, binding.ref.island, sp);
            sender->setTrace(rec_);
            sender->setAbandonObserver(onAbandon);
        }

        const std::uint64_t k = key(to, binding.ref.entity);
        if (auto it = slots.find(k); it != slots.end())
            sender->cancel(it->second); // re-announcement supersedes
        slots[k] = sender->send(
            m, [this](ReliableSender::Outcome o, const CoordMessage &msg) {
                if (o == ReliableSender::Outcome::superseded)
                    return; // announce() is installing the new seq
                slots.erase(key(msg.dst, msg.entity));
            });
    }

    /**
     * Abandon pending announcements to a departed island; their
     * slots clear through the completion callback, so a later
     * re-join announces fresh. Returns how many were abandoned.
     */
    std::size_t
    abandonDestination(IslandId to)
    {
        return sender ? sender->abandonDestination(to) : 0;
    }

    /** Announcements not yet acknowledged. */
    std::size_t
    pendingCount() const
    {
        return sender ? sender->pendingCount() : 0;
    }

    /** Announcements acknowledged. */
    std::uint64_t acked() const { return sender ? sender->acked() : 0; }

    /** Retransmissions performed. */
    std::uint64_t
    retries() const
    {
        return sender ? sender->retries() : 0;
    }

    /** Announcements abandoned after maxAttempts. */
    std::uint64_t
    abandoned() const
    {
        return sender ? sender->abandoned() : 0;
    }

    /** Acks that arrived after their announcement gave up. */
    std::uint64_t
    lateAcks() const
    {
        return sender ? sender->lateAcks() : 0;
    }

    /** Attach a trace recorder to the underlying sender. */
    void
    setTrace(corm::obs::TraceRecorder *recorder)
    {
        rec_ = recorder;
        if (sender)
            sender->setTrace(recorder);
    }

    /** Observe abandoned announcements (forwarded to the sender). */
    void
    setAbandonObserver(ReliableSender::AbandonFn fn)
    {
        onAbandon = std::move(fn);
        if (sender)
            sender->setAbandonObserver(onAbandon);
    }

  private:
    static std::uint64_t
    key(IslandId to, EntityId entity)
    {
        return (static_cast<std::uint64_t>(to) << 32) | entity;
    }

    corm::sim::Simulator &sim;
    CoordTransport &chan;
    Params cfg;
    corm::obs::TraceRecorder *rec_ = nullptr;
    ReliableSender::AbandonFn onAbandon;
    std::unique_ptr<ReliableSender> sender;
    /** Logical (island, entity) slot -> in-flight sequence number. */
    std::map<std::uint64_t, SeqNum> slots;
};

} // namespace corm::coord
