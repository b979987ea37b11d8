#include "replay/framework.hpp"

#include <gtest/gtest.h>

namespace jupiter {
namespace {

/// Adapter that records every membership notification.
class RecordingAdapter : public ServiceAdapter {
 public:
  void on_membership(
      const std::vector<CloudProvider::InstanceId>& members) override {
    history.push_back(members);
  }
  std::vector<std::vector<CloudProvider::InstanceId>> history;
};

struct FrameworkFixture : ::testing::Test {
  FrameworkFixture() {
    zones = {0, 1, 4, 5, 7};
    book = TraceBook::synthetic(zones, InstanceKind::kM1Small, SimTime(0),
                                SimTime(4 * kWeek), 21);
    spec = ServiceSpec::lock_service();
    spec.baseline_nodes = 3;
  }
  std::vector<int> zones;
  TraceBook book;
  ServiceSpec spec;
};

TEST_F(FrameworkFixture, LiveRunKeepsQuorumAndAccruesCost) {
  Simulator sim;
  CloudProvider provider(sim, book, 33);
  JupiterStrategy strategy(book, spec, SimTime(0), {.horizon_minutes = 60});
  RecordingAdapter adapter;
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour}, &adapter);
  // Start after two weeks of price history so the model has data.
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + 12 * kHour);

  EXPECT_GE(fw.rebids(), 12);
  EXPECT_GT(fw.total_cost().micros(), 0);
  EXPECT_FALSE(fw.members().empty());
  EXPECT_FALSE(adapter.history.empty());
  // Startup of the very first fleet costs a few hundred seconds; after
  // that the service must hold quorum.
  EXPECT_LT(fw.downtime_seconds(), 1200);
  fw.stop();
  EXPECT_TRUE(fw.members().empty());
}

TEST_F(FrameworkFixture, ExtraStrategyLiveRun) {
  Simulator sim;
  CloudProvider provider(sim, book, 34);
  ExtraStrategy strategy(spec, 0, 0.2);
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour});
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + 6 * kHour);
  EXPECT_GT(fw.total_cost().micros(), 0);
  EXPECT_GT(fw.availability(), 0.5);
  fw.stop();
}

TEST_F(FrameworkFixture, OnDemandBaselineIsAlwaysUpAfterBoot) {
  Simulator sim;
  CloudProvider provider(sim, book, 35);
  OnDemandStrategy strategy(spec);
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour});
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + 6 * kHour);
  // Only the initial boot window can be down.
  EXPECT_LE(fw.downtime_seconds(), 700);
  // Cost: 3 nodes, 6+ hours each at on-demand rates.
  EXPECT_GE(fw.total_cost(), Money::from_dollars(0.044) * 18);
  fw.stop();
}

TEST_F(FrameworkFixture, MembershipNotificationsTrackJoins) {
  Simulator sim;
  CloudProvider provider(sim, book, 36);
  OnDemandStrategy strategy(spec);
  RecordingAdapter adapter;
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour}, &adapter);
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + 2 * kHour);
  // Membership grew from empty to the full deployment as nodes became
  // ready.
  ASSERT_FALSE(adapter.history.empty());
  EXPECT_TRUE(adapter.history.front().size() <= 1);
  EXPECT_EQ(adapter.history.back().size(), 3u);
  fw.stop();
  EXPECT_TRUE(adapter.history.back().empty());
}

TEST_F(FrameworkFixture, AvailabilityLedgerConsistent) {
  Simulator sim;
  CloudProvider provider(sim, book, 37);
  JupiterStrategy strategy(book, spec, SimTime(0), {.horizon_minutes = 60});
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour});
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + 8 * kHour);
  EXPECT_EQ(fw.elapsed_seconds(), 8 * kHour);
  EXPECT_GE(fw.downtime_seconds(), 0);
  EXPECT_LE(fw.downtime_seconds(), fw.elapsed_seconds());
  double a = fw.availability();
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
  EXPECT_NEAR(a,
              1.0 - static_cast<double>(fw.downtime_seconds()) /
                        static_cast<double>(fw.elapsed_seconds()),
              1e-12);
  fw.stop();
}

}  // namespace
}  // namespace jupiter
