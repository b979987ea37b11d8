// BiddingFramework edge cases: stop mid-run, SLA failure injection, lead
// times, and cost monotonicity over time.
#include <gtest/gtest.h>

#include "replay/framework.hpp"

namespace jupiter {
namespace {

struct Fx {
  Fx() : zones{0, 1, 4}, spec(ServiceSpec::lock_service()) {
    spec.baseline_nodes = 3;
    book = TraceBook::synthetic(zones, InstanceKind::kM1Small, SimTime(0),
                                SimTime(3 * kWeek), 77);
  }
  std::vector<int> zones;
  ServiceSpec spec;
  TraceBook book;
};

TEST(FrameworkEdge, StopTerminatesEverythingAndFreezesLedgers) {
  Fx fx;
  Simulator sim;
  CloudProvider provider(sim, fx.book, 1);
  OnDemandStrategy strategy(fx.spec);
  BiddingFramework fw(sim, provider, fx.book, strategy, fx.spec, fx.zones,
                      {.interval = kHour});
  fw.start(SimTime(2 * kWeek));
  sim.run_until(SimTime(2 * kWeek) + 3 * kHour);
  ASSERT_GT(provider.live_instance_count(), 0u);
  fw.stop();
  EXPECT_EQ(provider.live_instance_count(), 0u);
  Money cost = fw.total_cost();
  // Time passes, no instances: cost frozen; stop is idempotent.
  sim.run_until(SimTime(2 * kWeek) + 6 * kHour);
  fw.stop();
  EXPECT_EQ(fw.total_cost(), cost);
}

TEST(FrameworkEdge, SlaCrashesSurfaceAsBoundedDowntime) {
  Fx fx;
  Simulator sim;
  SlaFailureConfig sla;
  sla.enabled = true;
  sla.mtbf_seconds = 4 * kHour;  // aggressive: several crashes per day
  sla.mttr_seconds = 20 * kMinute;
  CloudProvider provider(sim, fx.book, 2, sla);
  OnDemandStrategy strategy(fx.spec);
  BiddingFramework fw(sim, provider, fx.book, strategy, fx.spec, fx.zones,
                      {.interval = kHour});
  fw.start(SimTime(2 * kWeek));
  sim.run_until(SimTime(2 * kWeek) + 2 * kDay);
  // Single-node outages are tolerated (3 nodes, quorum 2); only overlapping
  // outages count.  Availability must sit between "perfect" and the
  // per-node availability.
  double a = fw.availability();
  double per_node = sla.mtbf_seconds / (sla.mtbf_seconds + sla.mttr_seconds);
  EXPECT_GT(a, per_node);
  EXPECT_LT(a, 1.0);  // two-node overlaps do happen at this crash rate
  fw.stop();
}

TEST(FrameworkEdge, CostGrowsMonotonically) {
  Fx fx;
  Simulator sim;
  CloudProvider provider(sim, fx.book, 3);
  JupiterStrategy strategy(fx.book, fx.spec, SimTime(0),
                           {.horizon_minutes = 60});
  BiddingFramework fw(sim, provider, fx.book, strategy, fx.spec, fx.zones,
                      {.interval = kHour});
  fw.start(SimTime(2 * kWeek));
  Money prev;
  for (int h = 1; h <= 8; ++h) {
    sim.run_until(SimTime(2 * kWeek) + h * kHour + 1);
    Money now = fw.total_cost();
    EXPECT_GE(now, prev) << h;
    prev = now;
  }
  fw.stop();
}

TEST(FrameworkEdge, RebidsCountMatchesIntervals) {
  Fx fx;
  Simulator sim;
  CloudProvider provider(sim, fx.book, 4);
  OnDemandStrategy strategy(fx.spec);
  BiddingFramework fw(sim, provider, fx.book, strategy, fx.spec, fx.zones,
                      {.interval = 2 * kHour});
  fw.start(SimTime(2 * kWeek));
  sim.run_until(SimTime(2 * kWeek) + 10 * kHour + kMinute);
  // Decisions at 0, 2h-lead? First at start, then one per boundary
  // pre-launch: intervals starting at 2,4,6,8,10h -> 6 total.
  EXPECT_EQ(fw.rebids(), 6);
  fw.stop();
}

}  // namespace
}  // namespace jupiter
