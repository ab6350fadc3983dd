/**
 * @file
 * Testbed assembly.
 */

#include "platform/testbed.hpp"

#include <bit>

namespace corm::platform {

using corm::coord::CoordMessage;
using corm::coord::EntityBinding;
using corm::coord::MsgType;
using corm::sim::UtilizationTracker;

Testbed::Testbed(TestbedParams params)
    : cfg(std::move(params)),
      sched_(sim_, cfg.pcpus, cfg.sched),
      dom0_(sched_, 0, "dom0", cfg.dom0Weight, cfg.dom0Vcpus),
      bridge_(dom0_, cfg.bridgeRelayCost),
      pcie_(sim_, cfg.link, "pcie"),
      ring_(cfg.ringSlots, "hostring"),
      ixp_(sim_, cfg.ixpIslandId, "ixp2850", pcie_.deviceToHost(), ring_,
           cfg.ixp),
      x86_(sim_, cfg.x86IslandId, "x86-xen", sched_),
      channel_(sim_, ixp_, x86_, cfg.coordLatency),
      announcer_(sim_, channel_, cfg.announcer),
      driver_(sim_, dom0_, ring_, bridge_, pcie_.hostToDevice(), ixp_,
              cfg.driver)
{
    channel_.installFaultPlan(cfg.coordFaults);

    registerMetrics();
    if (cfg.monitor)
        armMonitor();

    // Components trace into the full recorder when one is attached;
    // with only the monitor armed they trace into its bounded flight
    // ring, so an incident dump carries real platform events.
    if (corm::obs::TraceRecorder *tr = effectiveTrace()) {
        channel_.setTrace(tr);
        x86_.setTrace(tr);
        ixp_.setTrace(tr);
        announcer_.setTrace(tr);
    }

    controller_.registerIsland(x86_);
    controller_.registerIsland(ixp_);

    // Registration announcements to the IXP travel the coordination
    // channel (§2.3); islands co-located with the controller learn
    // directly.
    controller_.setAnnounceTransport(
        [this](corm::coord::ResourceIsland &to, const EntityBinding &b) {
            if (to.id() == ixp_.id()) {
                // Registrations travel the channel with ack + retry:
                // a lost binding would blind the classifier forever.
                announcer_.announce(ixp_.id(), b);
            } else {
                to.learnBinding(b);
            }
        });

    // Wire egress: route to the registered external sink for the
    // destination address.
    ixp_.setWireTx([this](corm::net::PacketPtr p) {
        auto it = wireSinks.find(p->flow.dst.v);
        if (it != wireSinks.end())
            it->second(p);
    });
}

Testbed::Guest &
Testbed::addGuest(const std::string &name, corm::net::IpAddr ip,
                  double weight)
{
    auto guest = std::make_unique<Guest>();
    guest->dom = std::make_unique<corm::xen::Domain>(
        sched_, static_cast<std::uint32_t>(guests_.size() + 1), name,
        weight);
    guest->vif =
        std::make_unique<corm::xen::GuestVif>(*guest->dom, ip, cfg.vif);
    bridge_.attach(*guest->vif);

    guest->entity = x86_.manage(*guest->dom);
    guest->ref = corm::coord::EntityRef{x86_.id(), guest->entity};

    EntityBinding binding;
    binding.ref = guest->ref;
    binding.name = name;
    binding.ip = ip;
    controller_.registerEntity(binding);

    guests_.push_back(std::move(guest));
    return *guests_.back();
}

void
Testbed::attachPolicy(corm::coord::CoordinationPolicy &policy)
{
    ixp_.attachPolicy(policy);
    policy.attachSender(ixp_.id(), [this](const CoordMessage &m) {
        channel_.send(m);
    });
    if (corm::obs::TraceRecorder *tr = effectiveTrace())
        policy.attachTrace(tr, ixp_.name(), &sim_);
}

void
Testbed::armMonitor()
{
    corm::obs::HealthMonitor::Params mp = cfg.monitorParams;
    if (mp.rules.empty())
        mp.rules = corm::obs::defaultHealthRules();
    monitor_ =
        std::make_unique<corm::obs::HealthMonitor>(sim_, metrics_, mp);
    monitor_->setMirrorTrace(cfg.trace);

    // Heartbeat lanes: one per mailbox direction. Every send enters
    // the lane (even when fault weather silently eats it — that is
    // exactly the outage signature the stall watchdog exists for);
    // a delivery proves the lane moved.
    using Activity = corm::interconnect::Mailbox::Activity;
    for (int dir = 0; dir < 2; ++dir) {
        const int id = monitor_->lane(channel_.name()
                                      + (dir == 0 ? ".a2b" : ".b2a"));
        channel_.setActivityObserver(dir, [this, id](Activity act) {
            if (act == Activity::sent)
                monitor_->laneSent(id);
            else
                monitor_->laneDelivered(id);
        });
    }

    announcer_.setAbandonObserver([this](const CoordMessage &m) {
        monitor_->noteAbandon(
            "reg:entity=" + std::to_string(m.entity) + ",dst="
            + std::to_string(static_cast<unsigned>(m.dst)));
    });

    metrics_.counterFn("health.breaches", {},
                       [this] { return monitor_->breaches(); });
    metrics_.counterFn("health.events", {}, [this] {
        return static_cast<std::uint64_t>(monitor_->events().size());
    });

    monitor_->start();
}

void
Testbed::registerMetrics()
{
    using corm::obs::Labels;
    auto &m = metrics_;

    const Labels chan{{"channel", channel_.name()}};
    const auto &cs = channel_.stats();
    m.counterFn("coord.channel.sent", chan,
                [&cs] { return cs.sent.value(); });
    m.counterFn("coord.channel.delivered", chan,
                [&cs] { return cs.delivered.value(); });
    m.counterFn("coord.channel.dropped", chan,
                [&cs] { return cs.dropped.value(); });
    m.counterFn("coord.channel.tunes", chan,
                [&cs] { return cs.tunes.value(); });
    m.counterFn("coord.channel.triggers", chan,
                [&cs] { return cs.triggers.value(); });
    m.counterFn("coord.channel.registrations", chan,
                [&cs] { return cs.registrations.value(); });
    m.counterFn("coord.channel.duplicates", chan,
                [&cs] { return cs.duplicates.value(); });
    m.counterFn("coord.channel.reorders", chan,
                [&cs] { return cs.reorders.value(); });
    m.counterFn("coord.channel.retries", chan,
                [&cs] { return cs.retries.value(); });
    channel_.setDeliveryHistogram(
        &m.histogram("coord.channel.delivery_latency_us", chan));

    const Labels x86l{{"island", x86_.name()}};
    const auto &ss = sched_.stats();
    m.counterFn("xen.sched.context_switches", x86l,
                [&ss] { return ss.contextSwitches.value(); });
    m.counterFn("xen.sched.migrations", x86l,
                [&ss] { return ss.migrations.value(); });
    m.counterFn("xen.sched.boosts", x86l,
                [&ss] { return ss.boosts.value(); });
    m.counterFn("xen.sched.accountings", x86l,
                [&ss] { return ss.accountings.value(); });
    m.counterFn("xen.island.tunes_applied", x86l,
                [this] { return x86_.totalTunes(); });
    m.counterFn("xen.island.triggers_applied", x86l,
                [this] { return x86_.totalTriggers(); });
    m.counterFn("xen.island.ignored_ops", x86l,
                [this] { return x86_.totalIgnored(); });

    const Labels ixpl{{"island", ixp_.name()}};
    const auto &is = ixp_.stats();
    m.counterFn("ixp.wire_rx", ixpl,
                [&is] { return is.wireRx.value(); });
    m.counterFn("ixp.wire_tx", ixpl,
                [&is] { return is.wireTx.value(); });
    m.counterFn("ixp.classified", ixpl,
                [&is] { return is.classified.value(); });
    m.counterFn("ixp.unknown_dst", ixpl,
                [&is] { return is.unknownDst.value(); });
    m.counterFn("ixp.vm_queue_drops", ixpl,
                [&is] { return is.vmQueueDrops.value(); });
    m.counterFn("ixp.dma_rejects", ixpl,
                [&is] { return is.dmaRejects.value(); });
    m.counterFn("ixp.tunes_applied", ixpl,
                [&is] { return is.tunesApplied.value(); });
    m.counterFn("ixp.triggers_applied", ixpl,
                [&is] { return is.triggersApplied.value(); });

    m.counterFn("driver.polls", {},
                [this] { return driver_.totalPolls(); });
    m.counterFn("driver.interrupts", {},
                [this] { return driver_.totalInterrupts(); });
    m.counterFn("driver.delivered", {},
                [this] { return driver_.totalDelivered(); });
    m.counterFn("driver.transmitted", {},
                [this] { return driver_.totalTransmitted(); });

    m.counterFn("reg.acked", {},
                [this] { return announcer_.acked(); });
    m.counterFn("reg.retries", {},
                [this] { return announcer_.retries(); });
    m.counterFn("reg.abandoned", {},
                [this] { return announcer_.abandoned(); });
    m.gaugeFn("reg.pending", {}, [this] {
        return static_cast<double>(announcer_.pendingCount());
    });

    m.counterFn("hostring.posted", {},
                [this] { return ring_.totalPosted(); });
    m.counterFn("hostring.full_rejects", {},
                [this] { return ring_.totalFullRejects(); });
    m.gaugeFn("hostring.high_water", {}, [this] {
        return static_cast<double>(ring_.highWater());
    });
}

void
Testbed::beginMeasurement()
{
    measureStart = sim_.now();
    sched_.resetBusy();
    dom0_.resetUsage();
    for (auto &g : guests_)
        g->dom->resetUsage();
}

double
Testbed::guestCpuPct(const Guest &guest) const
{
    const corm::sim::Tick elapsed = measuredElapsed();
    if (elapsed == 0)
        return 0.0;
    const auto &u = guest.dom->cpuUsage();
    const corm::sim::Tick busy = u.busy(UtilizationTracker::Kind::user)
        + u.busy(UtilizationTracker::Kind::system);
    return 100.0 * static_cast<double>(busy)
        / static_cast<double>(elapsed);
}

double
Testbed::guestIowaitPct(const Guest &guest) const
{
    const corm::sim::Tick elapsed = measuredElapsed();
    if (elapsed == 0)
        return 0.0;
    return 100.0
        * static_cast<double>(guest.dom->cpuUsage().busy(
              UtilizationTracker::Kind::iowait))
        / static_cast<double>(elapsed);
}

} // namespace corm::platform
