// One failure-model book read by several Jupiter strategies, as a fleet
// cluster shares one per instance kind.  Sharing must change no decision —
// FP' and the estimator are per-query arguments, transient values are pure
// functions of (chain, key) — and a second reader at the same epoch must
// find every transient analysis already done.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/failure_model.hpp"
#include "core/market_state.hpp"
#include "core/strategies.hpp"
#include "replay/workloads.hpp"
#include "util/shared_state_audit.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {
namespace {

constexpr InstanceKind kKind = InstanceKind::kM1Small;

struct SharedModelBook : ::testing::Test {
  SharedModelBook() {
    bopts.horizon_minutes = 360;
    fp_low.baseline_fp = 0.005;
    fp_high.baseline_fp = 0.02;
  }

  std::shared_ptr<FailureModelBook> advanced_book(SimTime t) {
    auto book =
        std::make_shared<FailureModelBook>(sc.book, kKind, sc.history_start);
    book->advance_to(sc.zones, t);
    return book;
  }
  MarketSnapshot snapshot(SimTime t) const {
    return snapshot_at(sc.book, kKind, sc.zones, t);
  }
  static void expect_same(const JupiterStrategy& a, const StrategyDecision& da,
                          const JupiterStrategy& b,
                          const StrategyDecision& db) {
    EXPECT_EQ(da.spot_bids, db.spot_bids);
    EXPECT_EQ(da.on_demand_zones, db.on_demand_zones);
    EXPECT_EQ(a.last_decision().estimated_availability,
              b.last_decision().estimated_availability);
    EXPECT_EQ(a.last_decision().bid_sum.micros(),
              b.last_decision().bid_sum.micros());
  }

  Scenario sc = make_scenario(kKind, 1, 1, 321);
  OnlineBidder::Options bopts;
  ServiceSpec fp_low = ServiceSpec::lock_service();
  ServiceSpec fp_high = ServiceSpec::lock_service();
};

TEST_F(SharedModelBook, SecondReaderAddsNoTransientAnalysis) {
  const SimTime now = sc.replay_start;
  const MarketSnapshot snap = snapshot(now);
  auto book = advanced_book(now);
  JupiterStrategy a(book, fp_low, bopts);
  JupiterStrategy b(book, fp_high, bopts);

  StrategyDecision da = a.decide(snap, now, {});
  ASSERT_FALSE(da.spot_bids.empty());
  const std::uint64_t after_a = book->cache_stats().misses;
  EXPECT_GT(after_a, 0u);
  // Another FP' and a held set of its own: still no new transient analysis.
  StrategyDecision db = b.decide(snap, now, da.spot_bids);
  EXPECT_EQ(book->cache_stats().misses, after_a);
  EXPECT_GT(book->cache_stats().hits, 0u);

  // Each decision equals the one a strategy with a private book makes.
  JupiterStrategy pa(sc.book, fp_low, sc.history_start, bopts);
  JupiterStrategy pb(sc.book, fp_high, sc.history_start, bopts);
  expect_same(a, da, pa, pa.decide(snap, now, {}));
  expect_same(b, db, pb, pb.decide(snap, now, da.spot_bids));
  // FP' reached the bidder: the two services priced different budgets.
  EXPECT_NE(a.last_decision().estimated_availability,
            b.last_decision().estimated_availability);

  // Per-service books repeat the analyses: the second one starts cold.
  EXPECT_GT(pa.cache_stats().misses, 0u);
  EXPECT_GT(pb.cache_stats().misses, 0u);
}

TEST_F(SharedModelBook, EpochByEpochDecisionsMatchPrivateBooks) {
  // Both readers decide on a 6 h cadence, feeding back their own held sets,
  // while the owner advances the book every hour (as a fleet cluster does).
  auto book = advanced_book(sc.replay_start);
  JupiterStrategy a(book, fp_low, bopts);
  JupiterStrategy b(book, fp_high, bopts, OobEstimator::kOccupancy);
  JupiterStrategy pa(sc.book, fp_low, sc.history_start, bopts);
  JupiterStrategy pb(sc.book, fp_high, sc.history_start, bopts,
                     OobEstimator::kOccupancy);
  std::vector<ZoneBid> held_a, held_b;
  int decisions = 0;
  for (SimTime t = sc.replay_start; t < sc.replay_end; t += kHour) {
    book->advance_to(sc.zones, t);
    if ((t - sc.replay_start) % (6 * kHour) != 0) continue;
    MarketSnapshot snap = snapshot(t);
    StrategyDecision da = a.decide(snap, t, held_a);
    StrategyDecision db = b.decide(snap, t, held_b);
    expect_same(a, da, pa, pa.decide(snap, t, held_a));
    expect_same(b, db, pb, pb.decide(snap, t, held_b));
    held_a = da.spot_bids;
    held_b = db.spot_bids;
    ++decisions;
  }
  EXPECT_EQ(decisions, 28);  // one replay week
}

TEST_F(SharedModelBook, ConcurrentReadersMatchSerialPrivateBooks) {
  // Eight services of one kind decide at once on a 4-thread pool, as a
  // fleet decide batch does; each must match its private-book twin.
  const SimTime now = sc.replay_start + 6 * kHour;
  const MarketSnapshot snap = snapshot(now);
  auto book = advanced_book(now);
  constexpr double kFp[] = {0.005, 0.01, 0.02};
  std::vector<ServiceSpec> specs;
  for (int i = 0; i < 8; ++i) {
    ServiceSpec s = i % 2 ? ServiceSpec::lock_service()
                          : ServiceSpec::storage_service();
    s.kind = kKind;
    s.baseline_fp = kFp[i % 3];
    specs.push_back(s);
  }
  std::vector<std::unique_ptr<JupiterStrategy>> shared;
  for (const ServiceSpec& s : specs) {
    shared.push_back(std::make_unique<JupiterStrategy>(book, s, bopts));
  }
  std::vector<StrategyDecision> got(specs.size());
  ThreadPool pool(4);
  // par: owned — each index decides with its own strategy into its own slot;
  // the book is only read
  parallel_for(pool, specs.size(), [&](std::size_t i) {
    got[i] = shared[i]->decide(snap, now, {});
  });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JupiterStrategy priv(sc.book, specs[i], sc.history_start, bopts);
    expect_same(*shared[i], got[i], priv, priv.decide(snap, now, {}));
  }
}

TEST_F(SharedModelBook, ReaderRejectsAStaleOrForeignBook) {
  auto book = advanced_book(sc.replay_start);
  JupiterStrategy a(book, fp_low, bopts);
  SimTime later = sc.replay_start + kHour;
  EXPECT_THROW(a.decide(snapshot(later), later, {}), std::logic_error);
  ServiceSpec large = fp_low;
  large.kind = InstanceKind::kM3Large;
  EXPECT_THROW(JupiterStrategy(book, large, bopts), std::invalid_argument);
}

TEST_F(SharedModelBook, WritesArePhased) {
  // The owner (a fleet cluster thread) advances the book; an advance from
  // any other thread while it is owned is the race the auditor reports.
  SharedStateAuditor::drain();
  AuditScope audit(AuditPolicy::kRecord);
  auto book = advanced_book(sc.replay_start);
  std::thread owner([&] { book->audit_acquire(); });
  owner.join();
  book->advance_to(sc.zones, sc.replay_start + kHour);
  book->audit_release();
  book->advance_to(sc.zones, sc.replay_start + 2 * kHour);  // unowned: fine
  auto v = SharedStateAuditor::drain();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, "FailureModelBook");
  EXPECT_EQ(v[0].site, "FailureModelBook::advance_to");
}

}  // namespace
}  // namespace jupiter
