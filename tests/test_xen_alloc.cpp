/**
 * @file
 * Allocation-count regression test for the Xen job path. Job
 * completions are SmallCallbacks, a VCPU's jobs sit in a ring that
 * stops growing once warm, and the run queues are intrusive links,
 * so a warmed credit scheduler completes jobs whose callbacks capture
 * 24-48 bytes without touching the allocator. A short coordinated
 * RUBiS run, which still allocates packets and request contexts,
 * stays under a fixed number of allocations per event.
 *
 * Global operator new is replaced with a counting one, so this binary
 * gets no sanitizer twin (the sanitizers bring their own allocator).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "platform/scenarios.hpp"
#include "sim/simulator.hpp"
#include "xen/sched.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

} // namespace

// Out of line, like the deletes below: inlined into a new-expression
// at -O3, GCC sees malloc() meet delete (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never sees free() meet a new-expression.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

// The over-aligned forms too (the event kernel's callback table is
// cache-line aligned), so no allocation escapes the count.
[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t al)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    // aligned_alloc wants a non-zero multiple of the alignment.
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace corm::sim;
using namespace corm::xen;

namespace {

/** Allocations made while @p body runs. */
template <typename Body>
std::uint64_t
allocationsDuring(Body &&body)
{
    allocations.store(0);
    counting.store(true);
    body();
    counting.store(false);
    return allocations.load();
}

/** Shared per-request state, like a RUBiS RequestCtx. */
struct Payload
{
    std::uint64_t stage = 0;
};

/**
 * Keeps @p depth jobs queued on a domain's VCPU. Each completion
 * resubmits with a capture of 24 bytes (`this` + shared_ptr) or 48
 * bytes (that plus three pointers), the sizes of the vif, bridge,
 * driver and RUBiS completions.
 */
class Pump
{
  public:
    Pump(Domain &dom, Tick job_len, int depth, std::uint64_t *sink)
        : target(dom), len(job_len), out(sink)
    {
        for (int i = 0; i < depth; ++i)
            submit(std::make_shared<Payload>());
    }

    std::uint64_t completed = 0;

  private:
    void
    submit(std::shared_ptr<Payload> p)
    {
        if (p->stage % 2 == 0) {
            target.submit(len, JobKind::user,
                          [this, p = std::move(p)]() mutable {
                              ++p->stage;
                              ++completed;
                              submit(std::move(p));
                          });
            return;
        }
        std::uint64_t *a = out, *b = out, *c = out;
        target.submit(len, JobKind::system,
                      [this, p = std::move(p), a, b, c]() mutable {
                          ++p->stage;
                          ++completed;
                          *a += (b == c) ? 1 : 0;
                          submit(std::move(p));
                      });
    }

    Domain &target;
    Tick len;
    std::uint64_t *out;
};

} // namespace

TEST(XenAlloc, WarmJobPathAllocatesNothing)
{
    Simulator sim;
    sim.reserve(256);
    CreditScheduler sched(sim, 2);
    std::uint64_t sink = 0;
    std::vector<std::unique_ptr<Domain>> doms;
    std::vector<std::unique_ptr<Pump>> pumps;
    for (int i = 0; i < 4; ++i) {
        std::string name = "d";
        name += std::to_string(i);
        doms.push_back(std::make_unique<Domain>(
            sched, static_cast<std::uint32_t>(i + 1), name,
            256.0 * (i + 1)));
        pumps.push_back(std::make_unique<Pump>(
            *doms.back(), (200 + 150 * static_cast<Tick>(i)) * usec,
            1 + i, &sink));
    }
    // Boosts move queued VCPUs to the front from any position.
    PeriodicEvent booster(sim, 7 * msec, [&] {
        sched.boost(*doms[static_cast<std::size_t>(sim.now() / msec) % 4]);
    });

    sim.runFor(1 * sec); // warm: rings, slot table and heap at size
    std::uint64_t before = 0;
    for (const auto &p : pumps)
        before += p->completed;
    const std::uint64_t allocs =
        allocationsDuring([&] { sim.runFor(2 * sec); });
    std::uint64_t jobs = 0;
    for (const auto &p : pumps)
        jobs += p->completed;
    jobs -= before;

    ASSERT_GT(jobs, 5000u);
    EXPECT_GT(sched.stats().boosts.value(), 100u);
    EXPECT_EQ(allocs, 0u) << "allocations for " << jobs << " jobs";
}

namespace {

/** Allocations and events of one coordinated RUBiS run. */
struct RubisCount
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
};

RubisCount
coordinatedRubis(Tick measure)
{
    corm::platform::RubisScenarioConfig cfg;
    cfg.coordination = true;
    cfg.warmup = 1 * sec;
    cfg.measure = measure;
    RubisCount c;
    c.allocs = allocationsDuring([&] {
        c.events = corm::platform::runRubisScenario(cfg).eventsExecuted;
    });
    return c;
}

} // namespace

TEST(XenAlloc, CoordinatedRubisStaysUnderPerEventBound)
{
    // The marginal rate between a short and a longer run leaves out
    // the fixed cost of building and tearing down the testbed.
    const RubisCount shortRun = coordinatedRubis(2 * sec);
    const RubisCount longRun = coordinatedRubis(14 * sec);
    ASSERT_GT(longRun.events, shortRun.events + 50000);
    const double perEvent =
        static_cast<double>(longRun.allocs - shortRun.allocs)
        / static_cast<double>(longRun.events - shortRun.events);
    std::printf("coordinated RUBiS: %llu allocations / %llu events "
                "between the runs = %.4f per event\n",
                static_cast<unsigned long long>(longRun.allocs
                                                - shortRun.allocs),
                static_cast<unsigned long long>(longRun.events
                                                - shortRun.events),
                perEvent);
    // 0.48 per event with std::function completions, deque job
    // queues and run queues; 0.17 with the allocation-free job path.
    EXPECT_LT(perEvent, 0.25);
}
