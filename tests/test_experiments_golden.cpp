// EXPERIMENTS.md pinned through the Jupiter path: the Figure 5 replay bars,
// both Figure 5 live runs, and the ten Extra(m,p) cells of Figures 6-7, on
// the canonical seed.  Values are exact (micro-dollars, downtime seconds,
// out-of-bid kills, launches), so any change to the shared instance
// lifecycle (replay/replay_engine.hpp) that moves a paper figure fails
// here.  The Jupiter cells of Figures 6-9 stay with perfbench: they cost
// seconds of decide() time, this suite well under one CPU second.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/framework.hpp"
#include "replay/sweep.hpp"

namespace jupiter {
namespace {

struct GoldenCell {
  std::string strategy;
  TimeDelta interval;
  std::int64_t cost_micros;
  TimeDelta downtime;
  int out_of_bid;
  int launches;
};

void expect_cells(const std::vector<SweepCell>& cells,
                  const std::vector<GoldenCell>& want) {
  ASSERT_EQ(cells.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const SweepCell& got = cells[i];
    SCOPED_TRACE(want[i].strategy + " @ " +
                 std::to_string(want[i].interval / kHour) + "h");
    EXPECT_EQ(got.strategy, want[i].strategy);
    EXPECT_EQ(got.interval, want[i].interval);
    EXPECT_EQ(got.result.cost.micros(), want[i].cost_micros);
    EXPECT_EQ(got.result.downtime, want[i].downtime);
    EXPECT_EQ(got.result.out_of_bid_events, want[i].out_of_bid);
    EXPECT_EQ(got.result.instances_launched, want[i].launches);
  }
}

/// Figure 5's replay bars: one week at a 1 h interval, Jupiter and
/// Extra(0,0.1).
std::vector<SweepCell> figure5_cells(const ServiceSpec& spec) {
  Scenario sc = make_scenario(spec.kind, /*train_weeks=*/13,
                              /*replay_weeks=*/1);
  SweepOptions opts;
  opts.intervals = {kHour};
  opts.extras = {{0, 0.1}};
  return run_sweep(sc, spec, opts);
}

TEST(ExperimentsGolden, Figure5ReplayBars) {
  // lock Jupiter $6.7951 and storage Jupiter $30.4360; storage Extra(0,0.1)
  // fails at availability 0.892063 (65280 s down of 604800).
  expect_cells(figure5_cells(ServiceSpec::lock_service()),
               {{"Jupiter", kHour, 6'795'100, 0, 10, 146},
                {"Extra(0,0.1)", kHour, 6'162'300, 0, 64, 249}});
  expect_cells(figure5_cells(ServiceSpec::storage_service()),
               {{"Jupiter", kHour, 30'436'000, 360, 20, 171},
                {"Extra(0,0.1)", kHour, 19'978'500, 65'280, 120, 353}});
}

TEST(ExperimentsGolden, Figure5LiveRuns) {
  struct Live {
    ServiceSpec spec;
    std::int64_t cost_micros;
    TimeDelta downtime;
  };
  // lock $7.5601 at 0.999600, storage $31.9960 at 0.999372; 169 rounds.
  for (const Live& want : {Live{ServiceSpec::lock_service(), 7'560'100, 242},
                           Live{ServiceSpec::storage_service(), 31'996'000,
                                380}}) {
    SCOPED_TRACE(want.spec.name);
    Scenario sc = make_scenario(want.spec.kind, /*train_weeks=*/13,
                                /*replay_weeks=*/1);
    Simulator sim;
    CloudProvider provider(sim, sc.book, kExperimentSeed);
    JupiterStrategy strategy(sc.book, want.spec, sc.history_start,
                             {.horizon_minutes = 60, .max_nodes = 9});
    BiddingFramework fw(sim, provider, sc.book, strategy, want.spec, sc.zones,
                        {.interval = kHour});
    fw.start(sc.replay_start);
    sim.run_until(sc.replay_end);
    EXPECT_EQ(fw.total_cost().micros(), want.cost_micros);
    EXPECT_EQ(fw.downtime_seconds(), want.downtime);
    EXPECT_EQ(fw.elapsed_seconds(), kWeek);
    EXPECT_EQ(fw.rebids(), 169);
    fw.stop();
  }
}

TEST(ExperimentsGolden, Figures6And7ExtraCells) {
  Scenario sc = make_scenario(InstanceKind::kM1Small, /*train_weeks=*/13,
                              /*replay_weeks=*/11);
  SweepOptions opts;
  opts.include_jupiter = false;
  expect_cells(run_sweep(sc, ServiceSpec::lock_service(), opts),
               {{"Extra(0,0.2)", 1 * kHour, 73'622'500, 0, 337, 2744},
                {"Extra(0,0.2)", 3 * kHour, 64'363'700, 8'280, 339, 1676},
                {"Extra(0,0.2)", 6 * kHour, 58'444'000, 79'980, 300, 1130},
                {"Extra(0,0.2)", 9 * kHour, 54'108'200, 209'280, 279, 813},
                {"Extra(0,0.2)", 12 * kHour, 50'355'700, 421'380, 257, 586},
                {"Extra(2,0.2)", 1 * kHour, 106'589'400, 0, 462, 3787},
                {"Extra(2,0.2)", 3 * kHour, 93'460'100, 0, 450, 2322},
                {"Extra(2,0.2)", 6 * kHour, 85'028'100, 27'780, 391, 1561},
                {"Extra(2,0.2)", 9 * kHour, 78'938'500, 94'800, 355, 1115},
                {"Extra(2,0.2)", 12 * kHour, 73'969'400, 212'700, 328, 808}});
}

}  // namespace
}  // namespace jupiter
