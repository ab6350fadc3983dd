/**
 * @file
 * The x86 island's internal resource manager: a discrete-event model
 * of the Xen credit scheduler (credit1) managing single-VCPU domains
 * on a small SMP, as in the paper's prototype (§2.2).
 *
 * Modelled mechanisms, following Cherkasova/Gupta/Vahdat's description
 * of the credit scheduler cited by the paper:
 *
 *  * weights → credits: every 30 ms accounting period, active VCPUs
 *    receive credits in proportion to their domain weights;
 *  * running VCPUs burn credits as they execute; credit sign gives
 *    the UNDER/OVER priority classes;
 *  * event-woken UNDER VCPUs enter the BOOST class and preempt lower
 *    classes (this is what a coordination Trigger piggybacks on);
 *  * 30 ms time slices, per-PCPU run queues, and idle-time work
 *    stealing across PCPUs.
 *
 * Two dispatch modes are provided (SchedParams::creditOrderedDispatch):
 *
 *  * **classFifo** (credit1-faithful, the 2010 behaviour the paper
 *    ran on): BOOST > UNDER > OVER, FIFO within class, 30 ms slices.
 *    An OVER vcpu waits for every UNDER vcpu regardless of how small
 *    the credit gap is — the latency pathology (cf. Ongaro et al.,
 *    the paper's [24]) that coordination exploits: a well-timed
 *    weight increase flips the critical VM to UNDER and collapses its
 *    scheduling delay. The paper-reproduction scenarios use this mode.
 *
 *  * **creditOrdered** (default for new code): within the non-BOOST
 *    classes the dispatcher picks the highest-credit VCPU and
 *    preempts on a one-tick credit lead. Sign-only classes quantise
 *    badly at 10 ms ticks and drift toward 50/50 under high weight
 *    ratios; credit-ordered dispatch restores tight
 *    weight-proportional shares.
 *
 * In both modes credits burn continuously (creditsPerTick per
 * tickPeriod of execution) rather than in 100-credit tick quanta.
 * The ablation_scheduler bench quantifies how much of the paper's
 * coordination win a better scheduler would have absorbed.
 *
 * Domains execute *jobs* — CPU demands tagged user/system — submitted
 * by workload models; the scheduler decides when they run. Weight
 * changes (the XenCtrl / Tune path) take effect at the next
 * accounting, exactly the actuation delay the paper's per-request
 * coordination has to live with.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace corm::xen {

/** Scheduling class; lower value = served first (Xen credit1). */
enum class Priority : std::uint8_t { boost = 0, under = 1, over = 2 };

/** VCPU run states. */
enum class VcpuState : std::uint8_t { blocked, runnable, running };

/** What a job's CPU time counts as, for Fig. 5-style accounting. */
using JobKind = corm::sim::UtilizationTracker::Kind;

/** Scheduler parameters; defaults mirror Xen credit1. */
struct SchedParams
{
    corm::sim::Tick tickPeriod = 10 * corm::sim::msec;
    int ticksPerAcct = 3; ///< accounting every 30 ms
    double creditsPerTick = 100.0;
    double creditsPerAcct = 300.0; ///< per PCPU per accounting period
    corm::sim::Tick sliceLimit = 30 * corm::sim::msec;
    double minWeight = 16.0;
    double maxWeight = 4096.0;
    double creditCap = 600.0;   ///< hoarding bound
    double creditFloor = -600.0;
    bool workStealing = true;
    /**
     * true: credit-ordered dispatch (tight proportional shares);
     * false: literal credit1 class-FIFO (the 2010 semantics with its
     * latency pathologies). See the file comment.
     */
    bool creditOrderedDispatch = true;
};

class Domain;
class CreditScheduler;

/** A unit of CPU demand executed by a domain's VCPU. */
struct Job
{
    corm::sim::Tick remaining = 0;
    JobKind kind = JobKind::user;
    /** SmallCallback: the vif, bridge, driver and RUBiS completions
     *  (a shared_ptr plus `this`, up to 48 B) are stored inline. */
    corm::sim::SmallCallback onComplete;
};

/**
 * A VCPU's FIFO of jobs: a power-of-two ring that doubles when full
 * and never shrinks, so a warm queue allocates nothing.
 */
class JobRing
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    Job &front() { return buf[head]; }

    /** Append a job at the tail, filling its slot in place. */
    void
    push(corm::sim::Tick remaining, JobKind kind,
         corm::sim::SmallCallback &&on_complete)
    {
        if (count == cap)
            grow();
        Job &job = buf[(head + count) & (cap - 1)];
        job.remaining = remaining;
        job.kind = kind;
        job.onComplete = std::move(on_complete);
        ++count;
    }

    /** Drop the head job, releasing its callable now. */
    void
    pop()
    {
        buf[head].onComplete.reset();
        head = (head + 1) & (cap - 1);
        --count;
    }

  private:
    void grow();

    std::unique_ptr<Job[]> buf;
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    std::uint32_t cap = 0; ///< zero or a power of two
};

/**
 * A virtual CPU. The paper's guest domains are single-VCPU; Dom0 may
 * have several. Scheduling state is owned by the CreditScheduler.
 */
class Vcpu
{
    friend class CreditScheduler;
    friend class Domain;

  public:
    Vcpu(Domain &owner, int index) : dom(owner), idx(index) {}

    Domain &domain() { return dom; }
    const Domain &domain() const { return dom; }
    int index() const { return idx; }
    VcpuState state() const { return st; }
    Priority priority() const { return prio; }
    double credits() const { return credit; }
    int pcpu() const { return assignedPcpu; }

  private:
    Domain &dom;
    int idx;
    VcpuState st = VcpuState::blocked;
    Priority prio = Priority::under;
    double credit = 0.0;
    int assignedPcpu = 0;
    bool pendingBoost = false;
    bool consumedSinceAcct = false;
    JobRing jobs;
    corm::sim::Tick blockedSince = 0;
    corm::sim::Tick wakeTick = 0;
    /** Links in the run queue of (assignedPcpu, prio) while runnable. */
    Vcpu *rqPrev = nullptr;
    Vcpu *rqNext = nullptr;
};

// Vcpu stays within two cache lines (see CreditScheduler::boostFlows).
static_assert(sizeof(Vcpu) <= 128);

/**
 * A Xen domain (VM): name, weight, one or more VCPUs, job submission
 * API for workload models, and CPU-usage accounting.
 */
class Domain
{
    friend class CreditScheduler;

  public:
    /**
     * @param scheduler The island scheduler that will run this domain.
     * @param domid Xen-style domain id (0 = control domain).
     * @param domain_name e.g. "web-server".
     * @param weight Initial credit-scheduler weight (Xen default 256).
     * @param num_vcpus VCPUs; guests in the paper have exactly 1.
     */
    Domain(CreditScheduler &scheduler, std::uint32_t domid,
           std::string domain_name, double weight, int num_vcpus = 1);

    std::uint32_t id() const { return domid_; }
    const std::string &name() const { return name_; }

    /** Current credit-scheduler weight. */
    double weight() const { return weight_; }

    /**
     * Submit a CPU job to a VCPU's work queue (FIFO). Wakes the VCPU
     * if it was blocked.
     *
     * @param duration CPU time the job needs.
     * @param kind Accounting kind (user/system).
     * @param on_complete Invoked when the job's last tick executes.
     * @param vcpu_index Which VCPU runs it (default 0).
     */
    void submit(corm::sim::Tick duration, JobKind kind,
                corm::sim::SmallCallback on_complete = {},
                int vcpu_index = 0);

    /** Pending + running jobs across VCPUs. */
    std::size_t queuedJobs() const;

    /**
     * Mark the start/end of an outstanding I/O-like dependency (e.g.
     * an RPC to another tier). Time a VCPU spends fully blocked while
     * such a dependency is outstanding is accounted as iowait,
     * mirroring the guest-visible iowait the paper reports shrinking
     * under coordination.
     */
    void ioBegin();
    void ioEnd();

    /** CPU usage accounting (user/system/iowait). */
    const corm::sim::UtilizationTracker &cpuUsage() const { return usage; }

    /** Jobs completed so far. */
    std::uint64_t jobsCompleted() const { return completed.value(); }

    /** Reset usage accounting (end of warm-up). */
    void resetUsage() { usage.reset(); }

    Vcpu &vcpu(int index = 0) { return *vcpus.at(index); }
    const Vcpu &vcpu(int index = 0) const { return *vcpus.at(index); }
    int vcpuCount() const { return static_cast<int>(vcpus.size()); }

  private:
    /**
     * Account pending iowait for @p vc: the overlap of its blocked
     * interval with the outstanding-I/O interval, up to now.
     */
    void flushIowait(Vcpu &vc);

    CreditScheduler &sched;
    std::uint32_t domid_;
    std::string name_;
    double weight_;
    std::vector<std::unique_ptr<Vcpu>> vcpus;
    int outstandingIo = 0;
    corm::sim::Tick ioSince = 0;
    corm::sim::UtilizationTracker usage;
    corm::sim::Counter completed;
};

/**
 * One scheduler trace event (xentrace-style): what the dispatcher
 * did, when, where, and to whom. Tracing is off unless a capacity is
 * set; the ring keeps the most recent events.
 */
struct SchedEvent
{
    enum class Kind : std::uint8_t
    {
        dispatch,
        preempt,
        block,
        wake,
        boost,
        migrate,
    };

    corm::sim::Tick when = 0;
    Kind kind = Kind::dispatch;
    std::uint32_t domid = 0;
    int pcpu = 0;
};

/** Human-readable trace-event kind. */
constexpr const char *
schedEventName(SchedEvent::Kind k)
{
    switch (k) {
      case SchedEvent::Kind::dispatch: return "dispatch";
      case SchedEvent::Kind::preempt: return "preempt";
      case SchedEvent::Kind::block: return "block";
      case SchedEvent::Kind::wake: return "wake";
      case SchedEvent::Kind::boost: return "boost";
      case SchedEvent::Kind::migrate: return "migrate";
    }
    return "?";
}

/** Aggregate scheduler statistics. */
struct SchedStats
{
    corm::sim::Counter contextSwitches;
    corm::sim::Counter migrations;
    corm::sim::Counter boosts;
    corm::sim::Counter accountings;
    /** Wake-to-dispatch latency of BOOST wakes (microseconds). */
    corm::sim::Summary boostDispatchUs;
};

/**
 * The credit scheduler proper: owns the PCPUs, the run queues, the
 * tick/accounting machinery, and the tuning surface (weights and the
 * Trigger boost) the coordination layer acts on.
 */
class CreditScheduler
{
  public:
    /**
     * @param simulator Event engine.
     * @param num_pcpus Physical cores (the prototype host has 2).
     * @param params Tunables; defaults mirror Xen credit1.
     */
    CreditScheduler(corm::sim::Simulator &simulator, int num_pcpus,
                    SchedParams params = {});

    ~CreditScheduler() = default;
    CreditScheduler(const CreditScheduler &) = delete;
    CreditScheduler &operator=(const CreditScheduler &) = delete;

    /** Event engine this scheduler runs on. */
    corm::sim::Simulator &simulator() { return sim; }

    /** Number of physical CPUs. */
    int pcpuCount() const { return static_cast<int>(pcpus.size()); }

    /** Parameters in force. */
    const SchedParams &params() const { return cfg; }

    /**
     * Set a domain's weight, clamped to [minWeight, maxWeight]. Takes
     * effect at the next accounting period, as via the real XenCtrl.
     */
    void setWeight(Domain &dom, double weight);

    /** Adjust a domain's weight by a signed delta (Tune semantics). */
    void adjustWeight(Domain &dom, double delta);

    /**
     * Boost a domain's VCPUs to the front of the run queue (Trigger
     * semantics, §3.3: "lets an island request resource allocation
     * for a particular process in a remote island as soon as
     * possible"). Blocked VCPUs boost on their next wake.
     */
    void boost(Domain &dom);

    /** Busy time of one PCPU. */
    corm::sim::Tick pcpuBusy(int pcpu) const
    {
        return pcpus.at(pcpu).busy;
    }

    /**
     * Set a PCPU's DVFS speed factor (1.0 = nominal frequency).
     * Running jobs stretch by 1/speed; the in-flight segment is
     * rescheduled. Substrate for platform-level power coordination
     * (§1 use-case 2 / §5 ongoing work).
     */
    void setPcpuSpeed(int pcpu, double speed);

    /** Current DVFS speed factor of one PCPU. */
    double pcpuSpeed(int pcpu) const
    {
        return pcpus.at(pcpu).speed;
    }

    /** Total busy time across PCPUs. */
    corm::sim::Tick totalBusy() const;

    /** Scheduler statistics. */
    const SchedStats &stats() const { return stats_; }

    /**
     * Enable event tracing with a bounded ring of @p capacity events
     * (0 disables). The most recent events are kept.
     */
    void
    setTraceCapacity(std::size_t capacity)
    {
        traceCap = capacity;
        if (traceRing.size() > traceCap)
            traceRing.erase(traceRing.begin(),
                            traceRing.end()
                                - static_cast<std::ptrdiff_t>(traceCap));
        if (traceCap == 0)
            traceRing.clear();
    }

    /** The recorded trace, oldest first. */
    const std::deque<SchedEvent> &trace() const { return traceRing; }

    /**
     * Attach an observability trace recorder (nullptr detaches);
     * independent of the xentrace-style ring above. Boost dispatches
     * emit wake-to-dispatch slices on @p process's "sched" thread,
     * finishing the causal span of the Trigger that requested them.
     */
    void
    setTrace(corm::obs::TraceRecorder *recorder,
             std::string process = "x86-xen")
    {
        rec_ = recorder;
        obsProcess = std::move(process);
        obsTrk = -1;
    }

    /** Reset PCPU busy accounting (end of warm-up). */
    void resetBusy();

    /** All domains attached to this scheduler. */
    const std::vector<Domain *> &domains() const { return doms; }

  private:
    friend class Domain;

    /**
     * FIFO of runnable VCPUs, linked through Vcpu::rqPrev/rqNext, so
     * a boost or a dispatch from any position unlinks in O(1).
     */
    struct RunQueue
    {
        Vcpu *head = nullptr;
        Vcpu *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        pushBack(Vcpu &v)
        {
            v.rqPrev = tail;
            v.rqNext = nullptr;
            (tail != nullptr ? tail->rqNext : head) = &v;
            tail = &v;
        }

        void
        pushFront(Vcpu &v)
        {
            v.rqPrev = nullptr;
            v.rqNext = head;
            (head != nullptr ? head->rqPrev : tail) = &v;
            head = &v;
        }

        void
        unlink(Vcpu &v)
        {
            (v.rqPrev != nullptr ? v.rqPrev->rqNext : head) = v.rqNext;
            (v.rqNext != nullptr ? v.rqNext->rqPrev : tail) = v.rqPrev;
            v.rqPrev = nullptr;
            v.rqNext = nullptr;
        }

        bool
        contains(const Vcpu &v) const
        {
            for (const Vcpu *p = head; p != nullptr; p = p->rqNext) {
                if (p == &v)
                    return true;
            }
            return false;
        }
    };

    struct PCpu
    {
        int index = 0;
        Vcpu *current = nullptr;
        corm::sim::Tick segStart = 0;
        corm::sim::Tick sliceEnd = 0;
        corm::sim::Timer segTimer; ///< fires at the running segment's end
        RunQueue runq[3]; ///< indexed by Priority
        corm::sim::Tick busy = 0;
        double speed = 1.0; ///< DVFS factor: work done per wall tick
    };

    /** Domain registration (from Domain's constructor). */
    void attach(Domain &dom);

    /** Job submitted; wake the VCPU if needed. */
    void onSubmit(Vcpu &vcpu);

    void wake(Vcpu &vcpu);
    void enqueue(PCpu &pc, Vcpu &vcpu, bool at_front = false);
    void removeFromRunq(Vcpu &vcpu);
    void dispatch(PCpu &pc);
    /** Traced boost()/dispatch() slow paths, kept out of line so the
     *  untraced hot paths keep their codegen (see boost()). */
    void boostTraced(Domain &dom);
    void traceBoostDispatch(Vcpu &vc, PCpu &pc);
    void startSegment(PCpu &pc);
    void accrue(PCpu &pc);
    void onSegmentEnd(PCpu &pc);
    void preemptIfNeeded(PCpu &pc);
    void onTick(PCpu &pc);
    void accounting();
    Vcpu *pickCandidate(PCpu &pc, bool remove);
    static Priority priorityFromCredits(const Vcpu &vcpu);

    corm::sim::Simulator &sim;
    SchedParams cfg;
    std::vector<PCpu> pcpus;
    std::vector<Domain *> doms;
    std::vector<std::unique_ptr<corm::sim::PeriodicEvent>> tickEvents;
    std::unique_ptr<corm::sim::PeriodicEvent> acctEvent;
    void
    traceEvent(SchedEvent::Kind kind, const Vcpu &vcpu, int pcpu)
    {
        if (traceCap == 0)
            return;
        traceRing.push_back(
            {sim.now(), kind, vcpu.domain().id(), pcpu});
        if (traceRing.size() > traceCap)
            traceRing.pop_front();
    }

    /** Observability track for scheduler events (lazy). */
    int
    obsTrack()
    {
        if (obsTrk < 0)
            obsTrk = rec_->track(obsProcess, "sched");
        return obsTrk;
    }

    /** Park (or clear) the Trigger span a boost handed this VCPU. */
    void
    noteBoostFlow(const Vcpu &vc,
                  corm::obs::TraceRecorder::FlowContext flow)
    {
        if (flow.id != 0)
            boostFlows[&vc] = flow;
        else
            boostFlows.erase(&vc);
    }

    SchedStats stats_;
    corm::obs::TraceRecorder *rec_ = nullptr;
    std::string obsProcess = "x86-xen";
    int obsTrk = -1;
    /**
     * Causal span of the Trigger that boosted each VCPU, keyed by
     * VCPU. A side table rather than a Vcpu field so the untraced
     * scheduler pays nothing — Vcpu stays two cache lines, and both
     * writers and the dispatch-side lookup sit behind
     * CORM_TRACE_ACTIVE.
     */
    std::map<const Vcpu *, corm::obs::TraceRecorder::FlowContext>
        boostFlows;
    std::size_t traceCap = 0;
    std::deque<SchedEvent> traceRing;
    int nextPcpu = 0; ///< round-robin initial placement
};

} // namespace corm::xen
