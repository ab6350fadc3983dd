/**
 * @file
 * Credit-scheduler implementation. See sched.hpp for the model notes.
 */

#include "xen/sched.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace corm::xen {

using corm::sim::Tick;

//
// JobRing
//

void
JobRing::grow()
{
    const std::uint32_t bigger = cap == 0 ? 4 : 2 * cap;
    auto fresh = std::make_unique<Job[]>(bigger);
    for (std::uint32_t i = 0; i < count; ++i)
        fresh[i] = std::move(buf[(head + i) & (cap - 1)]);
    buf = std::move(fresh);
    head = 0;
    cap = bigger;
}

//
// Domain
//

Domain::Domain(CreditScheduler &scheduler, std::uint32_t domid,
               std::string domain_name, double weight, int num_vcpus)
    : sched(scheduler), domid_(domid), name_(std::move(domain_name)),
      weight_(std::clamp(weight, scheduler.params().minWeight,
                         scheduler.params().maxWeight))
{
    for (int i = 0; i < num_vcpus; ++i)
        vcpus.push_back(std::make_unique<Vcpu>(*this, i));
    sched.attach(*this);
}

void
Domain::submit(Tick duration, JobKind kind,
               corm::sim::SmallCallback on_complete, int vcpu_index)
{
    Vcpu &vc = *vcpus.at(vcpu_index);
    vc.jobs.push(duration, kind, std::move(on_complete));
    sched.onSubmit(vc);
}

std::size_t
Domain::queuedJobs() const
{
    std::size_t n = 0;
    for (const auto &vc : vcpus)
        n += vc->jobs.size();
    return n;
}

void
Domain::ioBegin()
{
    if (outstandingIo++ == 0)
        ioSince = sched.simulator().now();
}

void
Domain::ioEnd()
{
    if (outstandingIo == 0)
        return;
    if (outstandingIo == 1) {
        // The I/O interval is closing: account any overlap with
        // blocked VCPUs before the state is forgotten.
        for (auto &vc : vcpus) {
            if (vc->st == VcpuState::blocked)
                flushIowait(*vc);
        }
    }
    --outstandingIo;
}

void
Domain::flushIowait(Vcpu &vc)
{
    if (outstandingIo == 0 || vc.st != VcpuState::blocked
        || vc.blockedSince == 0) {
        return;
    }
    const Tick now = sched.simulator().now();
    const Tick start = std::max(vc.blockedSince, ioSince);
    if (now > start) {
        usage.addBusy(JobKind::iowait, now - start);
        // Advance the marker so repeated flushes don't double-count.
        vc.blockedSince = now;
    }
}

//
// CreditScheduler
//

CreditScheduler::CreditScheduler(corm::sim::Simulator &simulator,
                                 int num_pcpus, SchedParams params)
    : sim(simulator), cfg(params)
{
    pcpus.resize(static_cast<std::size_t>(num_pcpus));
    for (int i = 0; i < num_pcpus; ++i) {
        PCpu &pc = pcpus[static_cast<std::size_t>(i)];
        pc.index = i;
        pc.segTimer =
            corm::sim::Timer(sim, [this, &pc] { onSegmentEnd(pc); });
    }

    // Stagger per-PCPU ticks as Xen does, so simultaneous debits on
    // all cores don't create lockstep artifacts.
    for (int i = 0; i < num_pcpus; ++i) {
        const Tick offset =
            cfg.tickPeriod * static_cast<Tick>(i + 1)
            / static_cast<Tick>(num_pcpus);
        tickEvents.push_back(
            std::make_unique<corm::sim::PeriodicEvent>(
                sim, cfg.tickPeriod,
                [this, i] { onTick(pcpus[static_cast<std::size_t>(i)]); },
                offset));
    }
    acctEvent = std::make_unique<corm::sim::PeriodicEvent>(
        sim, cfg.tickPeriod * static_cast<Tick>(cfg.ticksPerAcct),
        [this] { accounting(); });
}

void
CreditScheduler::attach(Domain &dom)
{
    doms.push_back(&dom);
    for (auto &vc : dom.vcpus) {
        vc->assignedPcpu = nextPcpu;
        nextPcpu = (nextPcpu + 1) % pcpuCount();
    }
}

void
CreditScheduler::setWeight(Domain &dom, double weight)
{
    dom.weight_ = std::clamp(weight, cfg.minWeight, cfg.maxWeight);
}

void
CreditScheduler::adjustWeight(Domain &dom, double delta)
{
    setWeight(dom, dom.weight_ + delta);
}

void
CreditScheduler::boost(Domain &dom)
{
    stats_.boosts.add();
    // The traced variant lives out of line: keeping the recorder
    // calls (and their argument construction) out of this function
    // preserves the untraced path's codegen — boost() sits on the
    // Trigger fast path and is microbenchmarked (BM_TriggerBoost).
    if (CORM_TRACE_ACTIVE(rec_)) {
        boostTraced(dom);
        return;
    }
    for (auto &vc : dom.vcpus) {
        traceEvent(SchedEvent::Kind::boost, *vc, vc->assignedPcpu);
        switch (vc->st) {
          case VcpuState::blocked:
            vc->pendingBoost = true;
            break;
          case VcpuState::runnable: {
            // Move to the front of the BOOST class on its PCPU.
            removeFromRunq(*vc);
            vc->prio = Priority::boost;
            vc->wakeTick = sim.now();
            PCpu &pc = pcpus[static_cast<std::size_t>(vc->assignedPcpu)];
            enqueue(pc, *vc, /*at_front=*/true);
            preemptIfNeeded(pc);
            break;
          }
          case VcpuState::running:
            break; // already has the CPU
        }
    }
}

void
CreditScheduler::boostTraced(Domain &dom)
{
    // Adopt the causal span of the Trigger being dispatched (the
    // channel installs it around applyTrigger; see obs::TraceScope):
    // the span finishes when the boosted VCPU actually reaches a
    // PCPU, which is the effect the Trigger asked for. The span is
    // parked in the boostFlows side table (not in Vcpu) so the
    // untraced scheduler pays neither the field nor these calls.
    const auto flow = rec_->currentFlow();
    for (auto &vc : dom.vcpus) {
        traceEvent(SchedEvent::Kind::boost, *vc, vc->assignedPcpu);
        switch (vc->st) {
          case VcpuState::blocked:
            vc->pendingBoost = true;
            noteBoostFlow(*vc, flow);
            break;
          case VcpuState::runnable: {
            removeFromRunq(*vc);
            vc->prio = Priority::boost;
            vc->wakeTick = sim.now();
            noteBoostFlow(*vc, flow);
            PCpu &pc = pcpus[static_cast<std::size_t>(vc->assignedPcpu)];
            enqueue(pc, *vc, /*at_front=*/true);
            preemptIfNeeded(pc);
            break;
          }
          case VcpuState::running:
            // Already has the CPU: the Trigger's effect is immediate.
            if (flow.id != 0) {
                rec_->span(obsTrack(), sim.now(), flow.id,
                           {corm::obs::FlowMark::checkpoint},
                           flow.final);
                rec_->instant(obsTrack(), sim.now(),
                              "boost:already-running", "xen",
                              {{"dom", static_cast<std::uint64_t>(
                                           dom.id())}});
            }
            break;
        }
    }
}

Tick
CreditScheduler::totalBusy() const
{
    Tick t = 0;
    for (const auto &pc : pcpus)
        t += pc.busy;
    return t;
}

void
CreditScheduler::setPcpuSpeed(int pcpu, double speed)
{
    PCpu &pc = pcpus.at(static_cast<std::size_t>(pcpu));
    speed = std::clamp(speed, 0.05, 1.0);
    if (pc.speed == speed)
        return;
    // Retire work done at the old speed, then re-plan the in-flight
    // segment at the new one.
    accrue(pc);
    pc.speed = speed;
    if (pc.current != nullptr) {
        pc.segTimer.disarm();
        if (!pc.current->jobs.empty()
            && pc.current->jobs.front().remaining == 0) {
            // The speed change landed exactly at a job boundary.
            onSegmentEnd(pc);
        } else {
            startSegment(pc);
        }
    }
}

void
CreditScheduler::resetBusy()
{
    for (auto &pc : pcpus) {
        // Keep an in-flight segment consistent: charge what has
        // accrued so far, then zero.
        accrue(pc);
        pc.busy = 0;
    }
}

void
CreditScheduler::onSubmit(Vcpu &vcpu)
{
    if (vcpu.st == VcpuState::blocked)
        wake(vcpu);
    // Runnable or running VCPUs simply have the job queued behind
    // whatever they are doing.
}

void
CreditScheduler::wake(Vcpu &vcpu)
{
    assert(vcpu.st == VcpuState::blocked);

    // Account iowait: time spent blocked while an I/O-like dependency
    // was outstanding is guest-visible iowait.
    vcpu.dom.flushIowait(vcpu);
    vcpu.blockedSince = 0;
    vcpu.st = VcpuState::runnable;

    // Xen's wake boost: an UNDER VCPU woken by an event preempts.
    if (vcpu.pendingBoost || vcpu.credit >= 0.0) {
        vcpu.prio = Priority::boost;
        vcpu.wakeTick = sim.now();
    } else {
        vcpu.prio = Priority::over;
    }
    vcpu.pendingBoost = false;
    traceEvent(SchedEvent::Kind::wake, vcpu, vcpu.assignedPcpu);

    // Prefer the home PCPU if idle, else any idle PCPU (wake-time
    // migration), else queue at home.
    PCpu *home = &pcpus[static_cast<std::size_t>(vcpu.assignedPcpu)];
    PCpu *target = home;
    if (home->current != nullptr && cfg.workStealing) {
        for (auto &pc : pcpus) {
            if (pc.current == nullptr) {
                target = &pc;
                break;
            }
        }
    }
    if (target != home) {
        stats_.migrations.add();
        vcpu.assignedPcpu = target->index;
    }
    enqueue(*target, vcpu);
    preemptIfNeeded(*target);
}

void
CreditScheduler::enqueue(PCpu &pc, Vcpu &vcpu, bool at_front)
{
    RunQueue &q = pc.runq[static_cast<std::size_t>(vcpu.prio)];
    if (at_front)
        q.pushFront(vcpu);
    else
        q.pushBack(vcpu);
}

void
CreditScheduler::removeFromRunq(Vcpu &vcpu)
{
    PCpu &pc = pcpus[static_cast<std::size_t>(vcpu.assignedPcpu)];
    RunQueue &q = pc.runq[static_cast<std::size_t>(vcpu.prio)];
    // A runnable VCPU is always queued on (assignedPcpu, prio).
    assert(q.contains(vcpu));
    q.unlink(vcpu);
}

void
CreditScheduler::dispatch(PCpu &pc)
{
    assert(pc.current == nullptr);

    // Pick the best candidate. With work stealing enabled the choice
    // is global, mirroring credit1's csched_load_balance: a dispatch
    // prefers a higher-class VCPU queued on another PCPU over a
    // lower-class local one (ties keep the local VCPU to limit
    // migrations).
    Vcpu *next = pickCandidate(pc, /*remove=*/true);
    if (next == nullptr)
        return; // idle
    if (next->assignedPcpu != pc.index) {
        next->assignedPcpu = pc.index;
        stats_.migrations.add();
        traceEvent(SchedEvent::Kind::migrate, *next, pc.index);
    }

    stats_.contextSwitches.add();
    traceEvent(SchedEvent::Kind::dispatch, *next, pc.index);
    if (next->prio == Priority::boost && next->wakeTick != 0) {
        stats_.boostDispatchUs.record(
            corm::sim::toMicros(sim.now() - next->wakeTick));
        // Out of line so dispatch() — the scheduler's hottest
        // function — keeps its untraced codegen.
        if (CORM_TRACE_ACTIVE(rec_))
            traceBoostDispatch(*next, pc);
        next->wakeTick = 0;
    }
    pc.current = next;
    next->st = VcpuState::running;
    pc.segStart = sim.now();
    pc.sliceEnd = sim.now() + cfg.sliceLimit;
    startSegment(pc);
}

void
CreditScheduler::traceBoostDispatch(Vcpu &vc, PCpu &pc)
{
    // The per-dispatch slice is dataplane detail (the trace-densest
    // event in the system); span legs below must record regardless.
    if (rec_->detail()) {
        rec_->complete(
            obsTrack(), vc.wakeTick, sim.now() - vc.wakeTick,
            "boost:dispatch-wait", "xen",
            {{"dom", static_cast<std::uint64_t>(vc.dom.id())},
             {"pcpu", pc.index}});
    }
    if (auto it = boostFlows.find(&vc); it != boostFlows.end()) {
        rec_->span(obsTrack(), sim.now(), it->second.id,
                   {corm::obs::FlowMark::checkpoint}, it->second.final);
        boostFlows.erase(it);
    }
}

void
CreditScheduler::startSegment(PCpu &pc)
{
    assert(pc.current != nullptr);
    assert(!pc.current->jobs.empty());

    // Wall time to finish the job at this PCPU's DVFS speed (round
    // up so rounding can never schedule the end before the work is
    // done; the residual converges across segments).
    // At full speed the quotient is the work itself, so skip the
    // division (the cast through double keeps it bit-identical).
    const double remaining =
        static_cast<double>(pc.current->jobs.front().remaining);
    const Tick job_wall = pc.speed == 1.0
        ? static_cast<Tick>(remaining)
        : static_cast<Tick>(std::ceil(remaining / pc.speed));
    const Tick job_end = sim.now() + job_wall;
    pc.segTimer.arm(std::min(job_end, pc.sliceEnd));
}

void
CreditScheduler::accrue(PCpu &pc)
{
    if (pc.current == nullptr)
        return;
    const Tick delta = sim.now() - pc.segStart;
    if (delta == 0)
        return;
    pc.segStart = sim.now();
    pc.busy += delta;
    Vcpu &vc = *pc.current;
    vc.consumedSinceAcct = true;
    assert(!vc.jobs.empty());
    Job &job = vc.jobs.front();
    // Work retired scales with the PCPU's DVFS speed; usage is
    // charged in wall time (what the guest observes as CPU time).
    const Tick progress = pc.speed >= 1.0
        ? delta
        : static_cast<Tick>(static_cast<double>(delta) * pc.speed);
    job.remaining = job.remaining > progress ? job.remaining - progress
                                             : 0;
    vc.dom.usage.addBusy(job.kind, delta);

    // Continuous credit burn: creditsPerTick per tickPeriod executed.
    vc.credit -= static_cast<double>(delta) * cfg.creditsPerTick
        / static_cast<double>(cfg.tickPeriod);
    if (vc.credit < cfg.creditFloor)
        vc.credit = cfg.creditFloor;
}

void
CreditScheduler::onSegmentEnd(PCpu &pc)
{
    assert(pc.current != nullptr);
    accrue(pc);
    Vcpu &vc = *pc.current;

    // If a job finished, detach its callback now but run it only
    // after the VCPU's next state is settled: callbacks submit new
    // work (possibly to this very VCPU) and may wake BOOST-class
    // VCPUs that preempt this PCPU, so the scheduler state must be
    // consistent before user code runs.
    corm::sim::SmallCallback callback;
    if (!vc.jobs.empty() && vc.jobs.front().remaining == 0) {
        callback = std::move(vc.jobs.front().onComplete);
        vc.jobs.pop();
        vc.dom.completed.add();
    }

    if (vc.jobs.empty()) {
        // Nothing left: block. A callback that submits fresh work
        // will wake the VCPU through the normal path.
        vc.st = VcpuState::blocked;
        vc.prio = priorityFromCredits(vc);
        vc.blockedSince = sim.now();
        pc.current = nullptr;
        traceEvent(SchedEvent::Kind::block, vc, pc.index);
        if (callback)
            callback();
        if (pc.current == nullptr)
            dispatch(pc);
        return;
    }

    if (sim.now() >= pc.sliceEnd) {
        // Slice expired: rotate to the tail of the queue.
        vc.st = VcpuState::runnable;
        vc.prio = priorityFromCredits(vc);
        pc.current = nullptr;
        enqueue(pc, vc);
        if (callback)
            callback();
        if (pc.current == nullptr)
            dispatch(pc);
        return;
    }

    // Keep running within the slice — unless the callback woke
    // something that preempted us.
    if (callback)
        callback();
    if (pc.current == &vc)
        startSegment(pc);
}

void
CreditScheduler::preemptIfNeeded(PCpu &pc)
{
    if (pc.current == nullptr) {
        dispatch(pc);
        return;
    }
    accrue(pc); // bring the running VCPU's credit up to date

    // A waiting BOOST VCPU preempts any non-BOOST runner. Below
    // BOOST: creditOrdered preempts on a one-tick credit lead;
    // classFifo preempts only on a strictly better class (the
    // credit1 rule — an OVER runner yields to a waiting UNDER).
    bool preempt = false;
    Vcpu &cur = *pc.current;
    Vcpu *best = pickCandidate(pc, /*remove=*/false);
    if (best == nullptr)
        return;
    if (best->prio == Priority::boost && cur.prio != Priority::boost) {
        preempt = true;
    } else if (cfg.creditOrderedDispatch) {
        preempt = best->credit > cur.credit + cfg.creditsPerTick;
    } else {
        preempt = static_cast<int>(best->prio)
            < static_cast<int>(cur.prio);
    }
    if (!preempt)
        return;

    pc.segTimer.disarm();
    cur.st = VcpuState::runnable;
    cur.prio = priorityFromCredits(cur);
    pc.current = nullptr;
    traceEvent(SchedEvent::Kind::preempt, cur, pc.index);
    enqueue(pc, cur);
    dispatch(pc);
}

void
CreditScheduler::onTick(PCpu &pc)
{
    accrue(pc);
    if (pc.current != nullptr) {
        // A tick ends any boost: priority falls back to the credit
        // classes.
        pc.current->prio = priorityFromCredits(*pc.current);
    }
    preemptIfNeeded(pc);
}

void
CreditScheduler::accounting()
{
    stats_.accountings.add();

    // Total credits to hand out this period, across all PCPUs.
    const double total =
        cfg.creditsPerAcct * static_cast<double>(pcpuCount());

    // A domain is active if any of its VCPUs consumed CPU since the
    // last accounting or is currently runnable/running.
    double active_weight = 0.0;
    for (Domain *dom : doms) {
        bool active = false;
        for (auto &vc : dom->vcpus) {
            if (vc->consumedSinceAcct || vc->st != VcpuState::blocked)
                active = true;
        }
        if (active)
            active_weight += dom->weight_;
    }
    if (active_weight <= 0.0)
        return;

    for (Domain *dom : doms) {
        bool active = false;
        int nvcpus = 0;
        for (auto &vc : dom->vcpus) {
            if (vc->consumedSinceAcct || vc->st != VcpuState::blocked)
                active = true;
            ++nvcpus;
        }
        for (auto &vc : dom->vcpus) {
            if (active) {
                vc->credit += total * (dom->weight_ / active_weight)
                    / static_cast<double>(nvcpus);
            }
            vc->credit = std::clamp(vc->credit, cfg.creditFloor,
                                    cfg.creditCap);
            vc->consumedSinceAcct = false;
        }
    }

    // Re-class queued runnable VCPUs from their new credit balances;
    // BOOST entries keep their class (and place) until first
    // dispatch. The UNDER queue, then the OVER queue, is relinked in
    // order onto the tails of the new classes: the order a drain of
    // all three queues and a re-enqueue would give.
    for (auto &pc : pcpus) {
        RunQueue &under = pc.runq[static_cast<std::size_t>(Priority::under)];
        RunQueue &over = pc.runq[static_cast<std::size_t>(Priority::over)];
        Vcpu *const chains[] = {under.head, over.head};
        under = {};
        over = {};
        for (Vcpu *v : chains) {
            while (v != nullptr) {
                Vcpu *const next = v->rqNext;
                v->prio = priorityFromCredits(*v);
                enqueue(pc, *v);
                v = next;
            }
        }
        preemptIfNeeded(pc);
    }
}

Vcpu *
CreditScheduler::pickCandidate(PCpu &pc, bool remove)
{
    // Rank candidates: BOOST first (FIFO, local preferred on ties),
    // then by credit (creditOrdered) or class-then-FIFO (classFifo).
    // Remote queues are consulted only when work stealing is enabled,
    // mirroring credit1's per-dispatch load balance.
    Vcpu *best = nullptr;
    PCpu *best_home = nullptr;
    auto better = [this, &pc, &best](Vcpu *cand, const PCpu &home) {
        if (best == nullptr)
            return true;
        if (cand->prio != best->prio
            && (cand->prio == Priority::boost
                || best->prio == Priority::boost)) {
            return cand->prio == Priority::boost;
        }
        if (cfg.creditOrderedDispatch) {
            if (cand->credit != best->credit)
                return cand->credit > best->credit;
        } else {
            if (cand->prio != best->prio)
                return static_cast<int>(cand->prio)
                    < static_cast<int>(best->prio);
        }
        // Tie: prefer the local queue to limit migrations.
        return home.index == pc.index;
    };

    for (auto &home : pcpus) {
        if (&home != &pc && !cfg.workStealing)
            continue;
        for (auto &q : home.runq) {
            if (q.empty())
                continue;
            // FIFO within a class: only the head is a candidate.
            Vcpu *cand = q.head;
            if (better(cand, home)) {
                best = cand;
                best_home = &home;
            }
        }
    }
    if (best != nullptr && remove)
        best_home->runq[static_cast<std::size_t>(best->prio)].unlink(*best);
    return best;
}

Priority
CreditScheduler::priorityFromCredits(const Vcpu &vcpu)
{
    return vcpu.credit >= 0.0 ? Priority::under : Priority::over;
}

} // namespace corm::xen
