/**
 * @file
 * The x86 scheduling island: the coordination-facing adapter around
 * the Xen credit scheduler and its domains (§2.2, §2.3).
 *
 * This is where the generic Tune/Trigger mechanisms are translated
 * into this island's own units: a Tune becomes a credit-weight
 * adjustment via the XenCtrl interface, a Trigger becomes a run-queue
 * boost. Entity ids name managed guest domains.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coord/island.hpp"
#include "coord/types.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "xen/sched.hpp"

namespace corm::xen {

/**
 * Thin model of the user-space "XenCtrl interface" Dom0 hosts to tune
 * the credit scheduler (§2.2): weight queries and adjustments for
 * individual guests. Kept separate from the island adapter so local
 * management tools and remote coordination share one code path.
 */
class XenCtl
{
  public:
    explicit XenCtl(CreditScheduler &scheduler) : sched(scheduler) {}

    /** Current weight of @p dom. */
    double getWeight(const Domain &dom) const { return dom.weight(); }

    /** Set @p dom's weight (clamped by the scheduler). */
    void setWeight(Domain &dom, double weight)
    {
        sched.setWeight(dom, weight);
    }

    /** Adjust @p dom's weight by a signed delta. */
    void adjustWeight(Domain &dom, double delta)
    {
        sched.adjustWeight(dom, delta);
    }

    /** Boost @p dom to the head of the run queue. */
    void boost(Domain &dom) { sched.boost(dom); }

  private:
    CreditScheduler &sched;
};

/** Simple island power model: idle floor plus per-core active power. */
struct PowerModel
{
    double idleWatts = 40.0;
    double perCoreActiveWatts = 35.0;
};

/**
 * The x86 island's coordination adapter. Owns the entity-id mapping
 * for guest domains; translates Tunes into weight deltas and Triggers
 * into boosts; answers power queries from the platform power model.
 */
class XenIsland : public coord::ResourceIsland
{
  public:
    /**
     * @param simulator Event engine (for power-window accounting).
     * @param island_id Platform-wide island id.
     * @param island_name e.g. "x86-xen".
     * @param scheduler The island's internal resource manager.
     * @param power Power-model parameters.
     */
    XenIsland(corm::sim::Simulator &simulator, coord::IslandId island_id,
              std::string island_name, CreditScheduler &scheduler,
              PowerModel power = {})
        : sim(simulator), id_(island_id), name_(std::move(island_name)),
          sched(scheduler), ctl(scheduler), powerModel(power)
    {}

    /**
     * Enable decay of tuned weights back toward each entity's
     * baseline with time constant @p tau (0 disables). Repeated
     * one-sided Tunes would otherwise drift every weight to a clamp
     * bound and freeze there; with decay, a weight reflects the Tune
     * inflow of roughly the last tau — i.e., it tracks the *recent*
     * request mix, which is what per-request coordination is for.
     * This is this island's local translation policy for the generic
     * Tune mechanism (§3.3 leaves the translation island-defined);
     * the ablation_oscillation bench compares decay settings.
     */
    void
    setTuneDecay(corm::sim::Tick tau)
    {
        decayTau = tau;
        if (tau == 0) {
            decayEvent.reset();
            return;
        }
        const corm::sim::Tick period = 50 * corm::sim::msec;
        decayEvent = std::make_unique<corm::sim::PeriodicEvent>(
            sim, period, [this, period] {
                const double beta = static_cast<double>(period)
                    / static_cast<double>(decayTau);
                for (auto &[id, dom] : entities) {
                    const double base = baselines[id];
                    ctl.setWeight(*dom,
                                  dom->weight()
                                      + (base - dom->weight()) * beta);
                }
            });
    }

    /**
     * Place a guest domain under coordination management.
     * @return the entity id remote islands use to name it.
     */
    coord::EntityId
    manage(Domain &dom)
    {
        const coord::EntityId id = nextEntity++;
        entities[id] = &dom;
        baselines[id] = dom.weight();
        return id;
    }

    /** Domain managed under @p entity (null if unknown). */
    Domain *
    domainFor(coord::EntityId entity) const
    {
        auto it = entities.find(entity);
        return it == entities.end() ? nullptr : it->second;
    }

    /** The XenCtrl tuning interface. */
    XenCtl &xenctl() { return ctl; }

    /**
     * Attach a trace recorder to the island and its scheduler
     * (nullptr detaches). Tune/Trigger applications become slices on
     * this island's track, joined to the causal span the channel
     * installed around the dispatch.
     */
    void
    setTrace(corm::obs::TraceRecorder *recorder)
    {
        rec = recorder;
        trk = -1;
        sched.setTrace(recorder, name_);
    }

    /** The underlying scheduler. */
    CreditScheduler &scheduler() { return sched; }

    // ResourceIsland interface ------------------------------------

    coord::IslandId id() const override { return id_; }

    const std::string &name() const override { return name_; }

    /**
     * Tune: "translated into corresponding weight or priority
     * adjustments, depending on the remote island's scheduling
     * algorithm — e.g. credit adjustments in the Xen scheduler"
     * (§3.3). Unknown entities are ignored.
     */
    void
    applyTune(coord::EntityId entity, double delta) override
    {
        Domain *dom = domainFor(entity);
        if (dom == nullptr) {
            ignoredOps.add();
            return;
        }
        tunesApplied.add();
        const double before = dom->weight();
        ctl.adjustWeight(*dom, delta);
        if (CORM_TRACE_ACTIVE(rec))
            traceTuneApplied(*dom, delta, before);
    }

    /** Out of line so the untraced applyTune stays lean (it is on
     *  the per-Tune hot path measured by BM_TuneSendToApply). */
    [[gnu::noinline]] void
    traceTuneApplied(Domain &dom, double delta, double before)
    {
        const auto flow = rec->currentFlow();
        rec->complete(islandTrack(), sim.now(), 0, "tune:apply",
                      "xen",
                      {{"dom", static_cast<std::uint64_t>(dom.id())},
                       {"delta", delta},
                       {"weight_before", before},
                       {"weight_after", dom.weight()}});
        // A fire-and-forget tune ends its span here; a reliable one
        // still has the ack's return hop.
        rec->span(islandTrack(), sim.now(), flow.id,
                  {corm::obs::FlowMark::apply}, flow.final);
    }

    /** Trigger: boost the entity's VCPUs in the run queue. */
    void
    applyTrigger(coord::EntityId entity) override
    {
        Domain *dom = domainFor(entity);
        if (dom == nullptr) {
            ignoredOps.add();
            return;
        }
        triggersApplied.add();
        if (CORM_TRACE_ACTIVE(rec)) {
            const auto flow = rec->currentFlow();
            rec->complete(islandTrack(), sim.now(), 0,
                          "trigger:apply", "xen",
                          {{"dom", static_cast<std::uint64_t>(
                                       dom->id())}});
            // Always a step: the span finishes when the boosted VCPU
            // reaches a PCPU (CreditScheduler::dispatch).
            rec->span(islandTrack(), sim.now(), flow.id,
                      {corm::obs::FlowMark::apply});
        }
        ctl.boost(*dom);
    }

    /**
     * Set the island's DVFS level in (0, 1]: all PCPUs run at that
     * fraction of nominal frequency. This is the island's second
     * power actuator besides weight throttling; active power scales
     * roughly with f·V² ≈ level³ (voltage tracks frequency).
     */
    void
    setDvfsLevel(double level)
    {
        dvfsLevel = std::clamp(level, 0.05, 1.0);
        for (int i = 0; i < sched.pcpuCount(); ++i)
            sched.setPcpuSpeed(i, dvfsLevel);
    }

    /** Current DVFS level. */
    double currentDvfsLevel() const { return dvfsLevel; }

    /**
     * Instantaneous power estimate: idle floor plus per-core active
     * power scaled by each core's busy fraction since the previous
     * query (windowed average) and by the cube of its DVFS speed
     * (frequency × voltage²).
     */
    double
    currentPowerWatts() const override
    {
        const corm::sim::Tick now = sim.now();
        if (lastBusyPerCore.size()
            != static_cast<std::size_t>(sched.pcpuCount())) {
            lastBusyPerCore.assign(
                static_cast<std::size_t>(sched.pcpuCount()), 0);
        }
        double active = 0.0;
        for (int i = 0; i < sched.pcpuCount(); ++i) {
            const corm::sim::Tick busy = sched.pcpuBusy(i);
            double fraction = 0.0;
            if (now > lastPowerQuery) {
                fraction = static_cast<double>(
                               busy
                               - lastBusyPerCore[static_cast<
                                   std::size_t>(i)])
                    / static_cast<double>(now - lastPowerQuery);
            }
            const double speed = sched.pcpuSpeed(i);
            active += powerModel.perCoreActiveWatts
                * std::clamp(fraction, 0.0, 1.0) * speed * speed
                * speed;
            lastBusyPerCore[static_cast<std::size_t>(i)] = busy;
        }
        lastPowerQuery = now;
        return powerModel.idleWatts + active;
    }

    /** Tunes applied so far. */
    std::uint64_t totalTunes() const { return tunesApplied.value(); }
    /** Triggers applied so far. */
    std::uint64_t totalTriggers() const { return triggersApplied.value(); }
    /** Operations naming unknown entities (ignored by contract). */
    std::uint64_t totalIgnored() const { return ignoredOps.value(); }

  private:
    /** Island-level track for apply events (lazy). */
    int
    islandTrack()
    {
        if (trk < 0)
            trk = rec->track(name_, "coord-adapter");
        return trk;
    }

    corm::sim::Simulator &sim;
    coord::IslandId id_;
    std::string name_;
    CreditScheduler &sched;
    corm::obs::TraceRecorder *rec = nullptr;
    int trk = -1;
    XenCtl ctl;
    PowerModel powerModel;
    std::map<coord::EntityId, Domain *> entities;
    std::map<coord::EntityId, double> baselines;
    coord::EntityId nextEntity = 1;
    corm::sim::Tick decayTau = 0;
    std::unique_ptr<corm::sim::PeriodicEvent> decayEvent;
    corm::sim::Counter tunesApplied;
    corm::sim::Counter triggersApplied;
    corm::sim::Counter ignoredOps;
    double dvfsLevel = 1.0;
    mutable corm::sim::Tick lastPowerQuery = 0;
    mutable std::vector<corm::sim::Tick> lastBusyPerCore;
};

} // namespace corm::xen
