/**
 * @file
 * Host–device message queues: descriptor rings plus a DMA engine.
 *
 * Models the Netronome/IXP messaging driver path described in §2 of
 * the paper: packet payloads are DMAed into a buffer-pool region of
 * reserved host memory, then a descriptor is appended to a message
 * queue which the host-side messaging driver drains either by
 * periodic polling or on a device interrupt. The coordination Mailbox
 * sends over a WireLane (interconnect/faults.hpp).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "interconnect/faults.hpp"
#include "interconnect/pcie.hpp"
#include "net/packet.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace corm::interconnect {

/** Size of one message descriptor on the wire. */
inline constexpr std::uint32_t descriptorBytes = 32;

/**
 * A descriptor ring in reserved host memory, written by the device
 * (after payload DMA) and drained by the host messaging driver.
 * A full ring back-pressures the producer: postings fail and the
 * producer must retry, exactly the condition that lets the IXP-side
 * DRAM buffers grow (Fig. 7).
 */
class DescriptorRing
{
  public:
    /**
     * @param capacity Ring slots; posting to a full ring fails.
     * @param ring_name For stats and logs.
     */
    explicit DescriptorRing(std::size_t capacity, std::string ring_name)
        : cap(capacity), name_(std::move(ring_name))
    {}

    /**
     * Post a packet descriptor.
     * @return false if the ring is full (producer must retry).
     */
    bool
    post(corm::net::PacketPtr pkt)
    {
        if (ring.size() >= cap) {
            fullRejects.add();
            return false;
        }
        ring.push_back(std::move(pkt));
        posted.add();
        occupancyHigh = std::max(occupancyHigh, ring.size());
        if (onPost)
            onPost();
        return true;
    }

    /**
     * Install a post notification (the device-side doorbell that an
     * interrupt-mode host driver hooks; polling drivers leave it
     * unset). SmallCallback, not std::function: the doorbell fires
     * once per posted descriptor, and the typical [this]-capturing
     * handler stays inside the inline buffer with no heap traffic.
     */
    void setPostCallback(corm::sim::SmallCallback fn)
    {
        onPost = std::move(fn);
    }

    /** True if no descriptors are outstanding. */
    bool empty() const { return ring.empty(); }

    /** Outstanding descriptors. */
    std::size_t size() const { return ring.size(); }

    /** Ring capacity. */
    std::size_t capacity() const { return cap; }

    /** Oldest outstanding descriptor without consuming it. */
    const corm::net::PacketPtr &front() const { return ring.front(); }

    /** Dequeue the oldest outstanding descriptor (must not be empty). */
    corm::net::PacketPtr
    consume()
    {
        corm::net::PacketPtr p = std::move(ring.front());
        ring.pop_front();
        return p;
    }

    /** Ring name. */
    const std::string &name() const { return name_; }

    /** Total descriptors ever posted. */
    std::uint64_t totalPosted() const { return posted.value(); }

    /** Times a post failed on a full ring. */
    std::uint64_t totalFullRejects() const { return fullRejects.value(); }

    /** High-water mark of occupancy. */
    std::size_t highWater() const { return occupancyHigh; }

  private:
    std::size_t cap;
    std::string name_;
    std::deque<corm::net::PacketPtr> ring;
    corm::sim::SmallCallback onPost;
    corm::sim::Counter posted;
    corm::sim::Counter fullRejects;
    std::size_t occupancyHigh = 0;
};

/**
 * DMA engine: moves a packet's payload across a Link and then posts
 * its descriptor to a DescriptorRing. If the ring is full at
 * completion time the packet is handed back to the caller's reject
 * handler so the device can keep it queued in its own memory.
 */
class DmaEngine
{
  public:
    using RejectFn = std::function<void(corm::net::PacketPtr)>;
    using PostedFn = std::function<void()>;

    /**
     * @param link Wire the payload crosses.
     * @param ring Ring receiving the descriptor at completion.
     */
    DmaEngine(Link &link, DescriptorRing &ring)
        : wire(link), descriptors(ring)
    {}

    /**
     * Start a payload DMA.
     *
     * @param pkt Packet whose payload is moved.
     * @param on_posted Invoked after the descriptor lands in the ring.
     * @param on_reject Invoked instead if the ring was full.
     */
    void
    dma(corm::net::PacketPtr pkt, PostedFn on_posted, RejectFn on_reject)
    {
        const std::uint64_t bytes = pkt->bytes + descriptorBytes;
        auto captured = std::move(pkt);
        wire.transfer(bytes,
                      [this, p = std::move(captured),
                       posted = std::move(on_posted),
                       reject = std::move(on_reject)]() mutable {
                          if (descriptors.post(p)) {
                              completed.add();
                              if (posted)
                                  posted();
                          } else if (reject) {
                              reject(std::move(p));
                          }
                      });
    }

    /** DMAs that completed and posted successfully. */
    std::uint64_t totalCompleted() const { return completed.value(); }

  private:
    Link &wire;
    DescriptorRing &descriptors;
    corm::sim::Counter completed;
};

/**
 * The coordination mailbox: a low-rate small-message channel carved
 * out of the device's PCI configuration space (§2.3). Messages are
 * fixed-size, FIFO, and experience the mailbox latency — deliberately
 * modelled separately from the bulk-data link so the ablation benches
 * can study coordination-channel latency in isolation.
 *
 * Each send crosses a WireLane, which decides the attempt's fate and
 * ticks below the message semantics (optional fault weather, in-order
 * clamp); the mailbox reports activity and schedules the copies.
 */
class Mailbox
{
  public:
    /**
     * Receive handler. @p tag and @p flow are the sender-side
     * cookies passed to send(); duplicated deliveries repeat both.
     */
    using DeliverFn = std::function<void(
        std::uint64_t word0, std::uint64_t word1, std::uint64_t word2,
        std::uint64_t tag, std::uint64_t flow)>;

    /** Liveness activity on this direction, as a health monitor
     *  sees it: a send enters the lane even when faults silently eat
     *  it (the sender cannot know), a delivery proves the lane moved.
     */
    enum class Activity : std::uint8_t { sent, delivered };
    /** Observer of lane activity (heartbeats for stall detection). */
    using ActivityFn = std::function<void(Activity)>;

    /**
     * @param simulator Event engine.
     * @param one_way_latency Send-to-deliver latency per message.
     * @param mailbox_name For stats and logs.
     */
    Mailbox(corm::sim::Simulator &simulator,
            corm::sim::Tick one_way_latency, std::string mailbox_name)
        : sim(simulator), latency(one_way_latency),
          name_(std::move(mailbox_name))
    {}

    /** Install the receiving side's handler. */
    void setReceiver(DeliverFn fn) { receiver = std::move(fn); }

    /** Observe lane activity (nullptr-able; replaces previous). */
    void setActivityObserver(ActivityFn fn)
    {
        onActivity = std::move(fn);
    }

    /**
     * Subject this direction to @p injector's weather (nullptr
     * restores the perfect channel). Not owned; must outlive the
     * mailbox or be reset first.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        wire.setInjector(injector);
    }

    /**
     * Send a three-word message across the wire. @p tag and @p flow
     * are opaque sender-side cookies handed back on delivery (the
     * channel's latency-accounting tag and trace-span id).
     *
     * @return The first copy's delivery tick, or std::nullopt if the
     *         fault injector dropped the message.
     */
    std::optional<corm::sim::Tick>
    send(std::uint64_t word0, std::uint64_t word1, std::uint64_t word2,
         std::uint64_t tag = 0, std::uint64_t flow = 0)
    {
        if (onActivity)
            onActivity(Activity::sent);
        const std::optional<WireTicks> t =
            wire.attempt(sim.now(), latency);
        if (!t)
            return std::nullopt;
        deliverAt(t->first, word0, word1, word2, tag, flow);
        if (t->second)
            deliverAt(*t->second, word0, word1, word2, tag, flow);
        return t->first;
    }

    /** Adjust latency (ablation sweeps). */
    void setLatency(corm::sim::Tick one_way) { latency = one_way; }

    /** Current one-way latency. */
    corm::sim::Tick oneWayLatency() const { return latency; }

    /** Mailbox name. */
    const std::string &name() const { return name_; }

  private:
    void
    deliverAt(corm::sim::Tick when, std::uint64_t word0,
              std::uint64_t word1, std::uint64_t word2,
              std::uint64_t tag, std::uint64_t flow)
    {
        sim.scheduleAt(when, [this, word0, word1, word2, tag, flow] {
            if (onActivity)
                onActivity(Activity::delivered);
            if (receiver)
                receiver(word0, word1, word2, tag, flow);
        });
    }

    corm::sim::Simulator &sim;
    corm::sim::Tick latency;
    std::string name_;
    DeliverFn receiver;
    ActivityFn onActivity;
    WireLane wire;
};

} // namespace corm::interconnect
