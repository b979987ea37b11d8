// End-to-end integration: the full stack working together —
// synthetic market -> failure model -> bidding framework -> cloud provider
// -> Paxos-replicated lock service with clients, across out-of-bid churn.
#include <gtest/gtest.h>

#include "replay/framework.hpp"
#include "lock/lock_service.hpp"
#include "replay/sweep.hpp"
#include "storage/kv_store.hpp"

namespace jupiter {
namespace {

TEST(Integration, MiniSweepShapeMatchesPaper) {
  // A 4-week scenario (2 train + 2 replay) over the 17 experiment zones:
  // Jupiter must be far cheaper than on-demand while at least matching
  // Extra(0,0.2)'s availability.
  Scenario sc = make_scenario(InstanceKind::kM1Small, 2, 2, 5150);
  ServiceSpec spec = ServiceSpec::lock_service();
  SweepOptions opts;
  opts.intervals = {6 * kHour};
  opts.extras = {{0, 0.2}};
  auto cells = run_sweep(sc, spec, opts);
  ASSERT_EQ(cells.size(), 2u);
  const ReplayResult* jup = nullptr;
  const ReplayResult* extra = nullptr;
  for (const auto& c : cells) {
    if (c.strategy == "Jupiter") jup = &c.result;
    if (c.strategy.rfind("Extra", 0) == 0) extra = &c.result;
  }
  ASSERT_NE(jup, nullptr);
  ASSERT_NE(extra, nullptr);
  Money base = baseline_cost(spec, sc.replay_end - sc.replay_start);

  EXPECT_LT(jup->cost, base / 2);  // massive reduction vs on-demand
  EXPECT_GE(jup->availability(), extra->availability());
  EXPECT_GE(jup->availability(), 0.999);
}

TEST(Integration, StorageSweepUsesErasureQuorums) {
  Scenario sc = make_scenario(InstanceKind::kM3Large, 2, 1, 5151);
  ServiceSpec spec = ServiceSpec::storage_service();
  SweepOptions opts;
  opts.intervals = {3 * kHour};
  opts.extras = {};
  auto cells = run_sweep(sc, spec, opts);
  ASSERT_EQ(cells.size(), 1u);
  const ReplayResult& r = cells[0].result;
  Money base = baseline_cost(spec, sc.replay_end - sc.replay_start);
  EXPECT_LT(r.cost, base / 2);
  EXPECT_GE(r.availability(), 0.995);
  EXPECT_GE(r.mean_nodes, 3.0);
}

TEST(Integration, LiveLockServiceOnSpotInstances) {
  // The feasibility experiment in miniature: a Paxos lock service running
  // on simulated spot instances driven by the bidding framework, with real
  // clients acquiring locks across instance churn.
  std::vector<int> zones = {0, 1, 4, 5, 7};
  TraceBook book = TraceBook::synthetic(zones, InstanceKind::kM1Small,
                                        SimTime(0), SimTime(3 * kWeek), 61);
  ServiceSpec spec = ServiceSpec::lock_service();

  Simulator sim;
  CloudProvider provider(sim, book, 62);
  JupiterStrategy strategy(book, spec, SimTime(0), {.horizon_minutes = 60});
  BiddingFramework fw(sim, provider, book, strategy, spec, zones,
                      {.interval = kHour});
  SimTime start(2 * kWeek);
  fw.start(start);
  sim.run_until(start + kHour);

  // The framework holds a quorum of instances; check the service-level
  // availability ledger over 12 hours of churn.
  sim.run_until(start + 12 * kHour);
  EXPECT_GE(fw.availability(), 0.97);
  EXPECT_GT(fw.total_cost().micros(), 0);
  // Cost sanity: far below 12h of 5 on-demand nodes.
  EXPECT_LT(fw.total_cost(), Money::from_dollars(0.044) * 5 * 13);
  fw.stop();
}

TEST(Integration, PaxosLockServiceUnderInstanceChurn) {
  // Lock service on a Paxos group whose nodes crash/restart like spot
  // instances: sessions and safety survive as long as a majority lives.
  Simulator sim;
  paxos::SimNetwork net(sim, 71);
  std::map<paxos::NodeId, lock::LockServiceState*> sms;
  paxos::Group group(
      sim, net, paxos::Replica::Options{},
      [&](paxos::NodeId id) {
        auto sm = std::make_unique<lock::LockServiceState>();
        sms[id] = sm.get();
        return sm;
      },
      72);
  group.bootstrap(5);
  sim.run_until(sim.now() + 200);

  lock::LockClient client(group, sim, "app", 36000);
  client.open_session();
  sim.run_until(sim.now() + 100);

  Rng rng(73);
  int acquired = 0, attempts = 0;
  for (int round = 0; round < 20; ++round) {
    // Churn: crash one random node, restart another.
    auto victim = static_cast<paxos::NodeId>(rng.below(5));
    if (group.replica(victim).alive()) group.crash(victim);
    for (paxos::NodeId id : group.node_ids()) {
      if (!group.replica(id).alive() && id != victim) {
        group.restart(id);
        break;
      }
    }
    sim.run_until(sim.now() + 120);
    ++attempts;
    std::string path = "/churn/" + std::to_string(round);
    bool got = false;
    client.acquire_blocking(path, [&](lock::LockResponse r) {
      got = r.status == lock::LockStatus::kOk;
    });
    sim.run_until(sim.now() + 400);
    if (got) ++acquired;
  }
  // A majority was alive throughout (we never crash below 4/5), so most
  // acquisitions must succeed.
  EXPECT_GE(acquired, attempts * 3 / 4);
}

}  // namespace
}  // namespace jupiter
