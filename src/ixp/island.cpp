/**
 * @file
 * IXP island implementation. See island.hpp for the data-path notes.
 */

#include "ixp/island.hpp"

#include <algorithm>

namespace corm::ixp {

using corm::net::Packet;
using corm::net::PacketPtr;
using corm::sim::Tick;

IxpIsland::IxpIsland(corm::sim::Simulator &simulator,
                     coord::IslandId island_id, std::string island_name,
                     corm::interconnect::Link &d2h_link,
                     corm::interconnect::DescriptorRing &host_ring,
                     IxpParams params)
    : sim(simulator), id_(island_id), name_(std::move(island_name)),
      cfg(params),
      rxStage(simulator, name_ + ".rx", cfg.rxThreads,
              [this](const Packet &p) {
                  return cfg.costs.rxTime(cfg.mem, p.bytes);
              }),
      classifyStage(simulator, name_ + ".classify", cfg.classifyThreads,
                    [this](const Packet &) {
                        return cfg.costs.classifyTime(cfg.mem);
                    }),
      txStage(simulator, name_ + ".tx", cfg.txThreads,
              [this](const Packet &p) {
                  return cfg.costs.txTime(cfg.mem, p.bytes);
              }),
      dma(d2h_link, host_ring)
{
    rxStage.setOutput(
        [this](PacketPtr p) { classifyStage.push(std::move(p)); });
    classifyStage.setOutput(
        [this](PacketPtr p) { classify(std::move(p)); });
    txStage.setOutput([this](PacketPtr p) {
        stats_.wireTx.add();
        if (wireTx)
            wireTx(std::move(p));
    });
    monitor = std::make_unique<corm::sim::PeriodicEvent>(
        sim, cfg.monitorPeriod, [this] { monitorTick(); });
}

IxpIsland::~IxpIsland() = default;

void
IxpIsland::injectFromWire(PacketPtr pkt)
{
    stats_.wireRx.add();
    pkt->created = sim.now();
    rxStage.push(std::move(pkt));
}

void
IxpIsland::enqueueTx(PacketPtr pkt)
{
    // Tx classification: per-VM egress queues keyed by source guest
    // (Fig. 3's Tx classifier feeding the Tx scheduler). Tuning the
    // queue's thread share paces both directions of the guest's
    // bandwidth (§2.1).
    auto it = ipToEntity.find(pkt->flow.src.v);
    if (it == ipToEntity.end()) {
        txStage.push(std::move(pkt));
        return;
    }
    VmQueue &vq = *queues.at(it->second);
    if (!vq.txq.push(std::move(pkt))) {
        stats_.vmQueueDrops.add();
        return;
    }
    pumpTxQueue(vq);
}

void
IxpIsland::pumpTxQueue(VmQueue &vq)
{
    if (vq.txInFlight || vq.txq.empty())
        return;
    vq.txInFlight = true;
    const Tick service = static_cast<Tick>(
        static_cast<double>(cfg.pollInterval) / vq.threads)
        + cfg.costs.ringOpTime(cfg.mem);
    sim.schedule(service, [this, &vq] {
        vq.txInFlight = false;
        if (vq.txq.empty())
            return;
        txStage.push(vq.txq.pop());
        pumpTxQueue(vq);
    });
}

std::uint64_t
IxpIsland::txQueueBytes(coord::EntityId entity) const
{
    const VmQueue *vq = queueForEntity(entity);
    return vq == nullptr ? 0 : vq->txq.bytes();
}

void
IxpIsland::classify(PacketPtr pkt)
{
    auto it = ipToEntity.find(pkt->flow.dst.v);
    if (it == ipToEntity.end()) {
        stats_.unknownDst.add();
        return;
    }
    VmQueue &vq = *queues.at(it->second);
    stats_.classified.add();

    // Surface application knowledge to the attached policies — the
    // deep-packet-inspection results the coordination schemes use.
    switch (pkt->tag.kind) {
      case corm::net::AppTag::Kind::httpRequest:
        for (auto *p : policies)
            p->onRequestClassified(vq.guest, pkt->tag.value);
        break;
      case corm::net::AppTag::Kind::rtspSetup: {
        // Session setup carries the SDP-equivalent stream metadata.
        auto info = std::static_pointer_cast<coord::StreamInfo>(
            pkt->context);
        if (info) {
            for (auto *p : policies)
                p->onStreamInfo(vq.guest, *info);
        }
        break;
      }
      default:
        break;
    }

    if (!vq.q.push(std::move(pkt))) {
        stats_.vmQueueDrops.add();
        return;
    }
    pumpQueue(vq);
}

void
IxpIsland::pumpQueue(VmQueue &vq)
{
    if (vq.inFlight || vq.backoff || vq.q.empty())
        return;
    vq.inFlight = true;

    // A dequeuing thread visits the queue every pollInterval; the
    // aggregate drain rate scales with the queue's thread share.
    const Tick service = static_cast<Tick>(
        static_cast<double>(cfg.pollInterval) / vq.threads)
        + cfg.costs.ringOpTime(cfg.mem)
        + cfg.costs.dmaSetupTime(cfg.mem);

    sim.schedule(service, [this, &vq] {
        if (vq.q.empty()) {
            // Tune/teardown races can empty the queue meanwhile.
            vq.inFlight = false;
            return;
        }
        PacketPtr p = vq.q.pop();
        dma.dma(std::move(p),
                /*on_posted=*/[this, &vq] {
                    vq.inFlight = false;
                    pumpQueue(vq);
                },
                /*on_reject=*/[this, &vq](PacketPtr rejected) {
                    // Host descriptor ring full: keep the packet at
                    // the queue head and retry after a backoff. This
                    // is how host-side stalls grow the IXP DRAM
                    // buffers (Fig. 7).
                    stats_.dmaRejects.add();
                    vq.q.pushFront(std::move(rejected));
                    vq.inFlight = false;
                    vq.backoff = true;
                    sim.schedule(cfg.dmaRetryBackoff, [this, &vq] {
                        vq.backoff = false;
                        pumpQueue(vq);
                    });
                });
    });
}

void
IxpIsland::applyTune(coord::EntityId entity, double delta)
{
    VmQueue *vq = queueForEntity(entity);
    if (vq == nullptr)
        return;
    stats_.tunesApplied.add();
    const double before = vq->threads;
    vq->threads = std::clamp(
        vq->threads + delta * cfg.threadsPerTuneUnit,
        cfg.minQueueThreads, cfg.maxQueueThreads);
    if (CORM_TRACE_ACTIVE(rec)) {
        const auto flow = rec->currentFlow();
        rec->complete(
            islandTrack(), sim.now(), 0, "tune:apply", "ixp",
            {{"entity", static_cast<std::uint64_t>(entity)},
             {"delta", delta},
             {"threads_before", before},
             {"threads_after", vq->threads}});
        rec->span(islandTrack(), sim.now(), flow.id,
                  {obs::FlowMark::apply}, flow.final);
    }
}

void
IxpIsland::applyTrigger(coord::EntityId entity)
{
    stats_.triggersApplied.add();
    if (CORM_TRACE_ACTIVE(rec)) {
        const auto flow = rec->currentFlow();
        rec->instant(islandTrack(), sim.now(), "trigger:noop", "ixp",
                     {{"entity", static_cast<std::uint64_t>(entity)}});
        if (flow.final)
            rec->span(islandTrack(), sim.now(), flow.id,
                      {obs::FlowMark::apply}, true);
    }
}

void
IxpIsland::learnBinding(const coord::EntityBinding &binding)
{
    // Mirror the guest's entity id for the queue that serves it.
    auto [it, inserted] = queues.try_emplace(
        binding.ref.entity,
        std::make_unique<VmQueue>(binding.ref, binding.ip,
                                  cfg.vmQueueBytes,
                                  cfg.defaultQueueThreads));
    if (!inserted) {
        // Re-registration updates the address.
        ipToEntity.erase(it->second->ip.v);
        it->second->ip = binding.ip;
        it->second->guest = binding.ref;
    }
    ipToEntity[binding.ip.v] = binding.ref.entity;
}

double
IxpIsland::currentPowerWatts() const
{
    // Busy thread-time across the three managed stages since the
    // last query approximates microengine activity.
    const Tick busy = rxStage.busyThreadTime()
        + classifyStage.busyThreadTime() + txStage.busyThreadTime();
    const Tick now = sim.now();
    double fraction = 0.0;
    if (now > lastPowerQuery) {
        const double denom = static_cast<double>(now - lastPowerQuery)
            * static_cast<double>(cfg.rxThreads + cfg.classifyThreads
                                  + cfg.txThreads);
        fraction = denom > 0.0
            ? static_cast<double>(busy - lastBusySnapshot) / denom
            : 0.0;
    }
    lastPowerQuery = now;
    lastBusySnapshot = busy;
    return cfg.idleWatts
        + cfg.activeWatts * std::clamp(fraction, 0.0, 1.0);
}

std::uint64_t
IxpIsland::queueBytes(coord::EntityId entity) const
{
    const VmQueue *vq = queueForEntity(entity);
    return vq == nullptr ? 0 : vq->q.bytes();
}

double
IxpIsland::queueThreads(coord::EntityId entity) const
{
    const VmQueue *vq = queueForEntity(entity);
    return vq == nullptr ? 0.0 : vq->threads;
}

const corm::sim::TimeSeries *
IxpIsland::occupancySeries(coord::EntityId entity) const
{
    const VmQueue *vq = queueForEntity(entity);
    return vq == nullptr ? nullptr : &vq->occupancy;
}

std::uint64_t
IxpIsland::queueDrops(coord::EntityId entity) const
{
    const VmQueue *vq = queueForEntity(entity);
    return vq == nullptr ? 0 : vq->q.totalDrops();
}

IxpIsland::VmQueue *
IxpIsland::queueForEntity(coord::EntityId entity)
{
    auto it = queues.find(entity);
    return it == queues.end() ? nullptr : it->second.get();
}

const IxpIsland::VmQueue *
IxpIsland::queueForEntity(coord::EntityId entity) const
{
    auto it = queues.find(entity);
    return it == queues.end() ? nullptr : it->second.get();
}

void
IxpIsland::monitorTick()
{
    for (auto &[entity, vq] : queues) {
        vq->occupancy.record(sim.now(),
                             static_cast<double>(vq->q.bytes()));
        if (CORM_TRACE_ACTIVE(rec) && rec->detail()) {
            rec->counter(islandTrack(), sim.now(),
                         "queue_bytes:" + std::to_string(entity),
                         "bytes",
                         static_cast<double>(vq->q.bytes()));
        }
        for (auto *p : policies)
            p->onBufferLevel(vq->guest, vq->q.bytes(), sim.now());
    }
}

} // namespace corm::ixp
