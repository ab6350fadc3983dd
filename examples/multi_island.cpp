/**
 * @file
 * Example: coordination beyond two islands (§5's ongoing work).
 *
 * Builds a platform of several heterogeneous islands on a
 * coordination fabric — one x86/Xen compute island plus a set of
 * accelerator-style islands modelled by their coordination surface —
 * registers entities through the global controller, and runs a
 * platform-wide power cap across all of them.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/mplayer.hpp"
#include "coord/controller.hpp"
#include "coord/fabric.hpp"
#include "coord/policy.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "xen/island.hpp"
#include "xen/sched.hpp"

namespace {

/**
 * A minimal accelerator island: fixed idle power plus a load knob
 * the coordination layer can tune down.
 */
class AcceleratorIsland : public corm::coord::ResourceIsland
{
  public:
    AcceleratorIsland(corm::coord::IslandId id, std::string name)
        : id_(id), name_(std::move(name))
    {}

    corm::coord::IslandId id() const override { return id_; }
    const std::string &name() const override { return name_; }

    void
    applyTune(corm::coord::EntityId, double delta) override
    {
        // Tune translation for this island: duty-cycle percentage.
        duty = std::clamp(duty + delta / 512.0, 0.1, 1.0);
    }

    void applyTrigger(corm::coord::EntityId) override {}

    double currentPowerWatts() const override
    {
        return 10.0 + 25.0 * duty;
    }

    double duty = 1.0;

  private:
    corm::coord::IslandId id_;
    std::string name_;
};

} // namespace

int
main()
{
    using namespace corm;

    // The fabric runs on a (one-shard) sharded engine whose lookahead
    // is the fabric's hop latency; every island lives on its
    // simulator.
    constexpr sim::Tick hop = 10 * sim::usec;
    sim::ShardedEngine engine(1, hop);
    sim::Simulator &simulator = engine.sim(0);

    // Island 1: x86 compute under the credit scheduler.
    xen::CreditScheduler sched(simulator, 2);
    xen::XenIsland x86(simulator, 1, "x86-xen", sched);
    xen::Domain guest(sched, 1, "worker", 256);
    apps::mplayer::DiskPlayer load(guest, 12 * sim::msec);
    load.start();
    const auto guest_entity = x86.manage(guest);

    // Islands 2..4: accelerators, each with one tunable entity.
    std::vector<std::unique_ptr<AcceleratorIsland>> accels;
    for (int i = 0; i < 3; ++i) {
        accels.push_back(std::make_unique<AcceleratorIsland>(
            static_cast<coord::IslandId>(i + 2),
            "accel-" + std::to_string(i)));
    }

    // The fabric: a mesh, as hardware-supported queues would give.
    coord::FabricParams fp;
    fp.topology = coord::FabricTopology::mesh;
    fp.hopLatency = hop;
    coord::CoordFabric fabric(simulator, fp);
    fabric.attach(x86);
    for (auto &a : accels)
        fabric.attach(*a);
    fabric.enableSharding(engine, {});

    coord::GlobalController controller;
    controller.registerIsland(x86);
    for (auto &a : accels)
        controller.registerIsland(*a);
    std::printf("platform: %zu islands on a mesh fabric\n",
                fabric.islandCount());

    // Platform-wide power cap: throttle accelerators before compute.
    double sampled = 0.0;
    coord::PowerCapPolicy::Config pc;
    pc.capWatts = 150.0;
    pc.stepDelta = 64.0;
    pc.maxReduction = 320.0;
    coord::PowerCapPolicy policy(pc, [&sampled] { return sampled; });
    policy.attachSender(
        1, [&fabric](const coord::CoordMessage &m) { fabric.send(m); });
    for (std::size_t i = 0; i < accels.size(); ++i) {
        policy.addEntity(
            coord::EntityRef{accels[i]->id(), 1},
            /*priority=*/static_cast<int>(i));
    }
    policy.addEntity(coord::EntityRef{x86.id(), guest_entity},
                     /*priority=*/100); // compute throttles last

    sim::PeriodicEvent power_loop(simulator, 250 * sim::msec, [&] {
        sampled = x86.currentPowerWatts();
        for (auto &a : accels)
            sampled += a->currentPowerWatts();
        policy.onPeriodic(simulator.now());
    });

    engine.runUntil(5 * sim::sec);
    double total = x86.currentPowerWatts();
    for (auto &a : accels)
        total += a->currentPowerWatts();
    std::printf("after 5 s under a 150 W cap: platform draw %.1f W, "
                "accelerator duties %.2f / %.2f / %.2f\n",
                total, accels[0]->duty, accels[1]->duty,
                accels[2]->duty);
    std::printf("throttle actions %llu, restores %llu, fabric "
                "messages %llu (mean lat %.0f us)\n",
                static_cast<unsigned long long>(policy.throttles()),
                static_cast<unsigned long long>(policy.restores()),
                static_cast<unsigned long long>(
                    fabric.stats().delivered.value()),
                fabric.stats().deliveryLatencyUs.mean());
    std::printf("\nThe same Tune mechanism each island already "
                "implements carries the platform-wide power policy —\n"
                "the generality argument of the paper's conclusion.\n");
    return 0;
}
