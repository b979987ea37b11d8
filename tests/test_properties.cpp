// Cross-module property tests: randomized invariants that tie the market,
// billing, model and bidder layers together.
#include <gtest/gtest.h>

#include "core/failure_model.hpp"
#include "market/billing.hpp"
#include "market/price_process.hpp"
#include "util/rng.hpp"

namespace jupiter {
namespace {

SpotTrace random_trace(Rng& rng, SimTime end) {
  SpotTrace tr;
  SimTime t(0);
  tr.append(t, PriceTick(static_cast<std::int32_t>(50 + rng.below(100))));
  while (true) {
    t += static_cast<TimeDelta>(60 + rng.below(4 * kHour));
    if (t >= end) break;
    tr.append(t, PriceTick(static_cast<std::int32_t>(50 + rng.below(100))));
  }
  return tr;
}

/// Reference billing: walk hour by hour, charge the last price of each
/// completed hour (and the partial hour iff user-terminated).
Money reference_bill(const SpotTrace& tr, SimTime start, SimTime req_end,
                     PriceTick bid) {
  if (tr.price_at(start) > bid) return Money(0);
  SimTime end = req_end;
  bool oob = false;
  if (auto x = tr.first_exceed(start, bid); x && *x < req_end) {
    end = *x;
    oob = true;
  }
  Money total;
  for (SimTime hs = start; hs < end; hs += kHour) {
    SimTime he = hs + kHour;
    if (he <= end) {
      total += tr.price_at(he - 1).money();
    } else if (!oob) {
      total += tr.price_at(end - 1).money();
    }
  }
  return total;
}

class BillingProperty : public ::testing::TestWithParam<int> {};

TEST_P(BillingProperty, MatchesReferenceOnRandomTraces) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 30; ++trial) {
    SpotTrace tr = random_trace(rng, SimTime(3 * kDay));
    auto start = SimTime(static_cast<std::int64_t>(rng.below(kDay)));
    SimTime end = start + static_cast<TimeDelta>(kHour + rng.below(kDay));
    PriceTick bid(static_cast<std::int32_t>(40 + rng.below(130)));
    SpotBill bill = bill_spot_instance(tr, start, end, bid);
    EXPECT_EQ(bill.charge, reference_bill(tr, start, end, bid))
        << "seed " << GetParam() << " trial " << trial;
    // Charges are never negative and never exceed hours * max price.
    EXPECT_GE(bill.charge.micros(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BillingProperty, ::testing::Range(1, 7));

class BidCurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(BidCurveProperty, MonotoneAndConsistent) {
  // Random ground-truth chains; the model's bid curve must be monotone in
  // the bid and min_bid_for_fp must agree with fp_at.
  auto seed = static_cast<std::uint64_t>(GetParam());
  ZoneProfile zp = draw_zone_profile(seed % 24, PriceTick(440), seed * 31);
  SpotTrace tr = generate_zone_trace(zp, SimTime(0), SimTime(4 * kWeek));
  ZoneFailureModel model =
      ZoneFailureModel::train(tr, PriceTick(440));
  MarketZoneState st;
  st.zone = 0;
  st.price = tr.price_at(SimTime(4 * kWeek - 1));
  st.age_minutes = 17;
  st.on_demand = PriceTick(440);

  for (int horizon : {60, 360}) {
    BidCurve curve = model.bid_curve(st, horizon);
    double prev = 2.0;
    for (int s = 0; s < model.chain().state_count(); ++s) {
      PriceTick b = model.chain().state_price(s);
      if (b < st.price || b >= st.on_demand) continue;
      double fp = curve.fp_at(b);
      EXPECT_LE(fp, prev + 1e-9);
      EXPECT_GE(fp, kOnDemandFailureProbability - 1e-12);  // Eq. 4 floor
      prev = fp;
    }
    for (double target : {0.5, 0.1, 0.02, 0.0103}) {
      auto bid = curve.min_bid_for_fp(target);
      if (bid) {
        EXPECT_LE(curve.fp_at(*bid), target + 1e-9);
        EXPECT_GE(*bid, st.price);
        EXPECT_LT(*bid, st.on_demand);
      } else {
        // Infeasible: even the best allowed bid misses the target.
        EXPECT_GT(curve.best_achievable_fp(), target);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidCurveProperty, ::testing::Range(1, 13));

TEST(HitVsMonteCarlo, AgeConditionedGroundTruth) {
  // Age-conditioned first passage against Monte Carlo on a ground-truth
  // chain whose sojourns are decidedly non-memoryless.
  SemiMarkovChain chain({PriceTick(10), PriceTick(20), PriceTick(30)});
  chain.add_transition(0, 1, 2, 0.45);
  chain.add_transition(0, 1, 40, 0.45);
  chain.add_transition(0, 2, 10, 0.10);
  chain.add_transition(1, 0, 5, 1.0);
  chain.add_transition(2, 0, 5, 1.0);
  chain.normalize_rows();

  const int age = 5;  // past the 2-minute mode: long-sojourn regime likely
  const int horizon = 20;
  double analytic = chain.hit_one(0, age, horizon, 1);

  Rng rng(31337);
  int hits = 0, trials = 0;
  while (trials < 30000) {
    // Rejection-sample the age condition: start fresh, require the first
    // sojourn to exceed `age`, then measure the remaining time.
    auto jump = chain.sample_jump(0, rng);
    ASSERT_TRUE(jump.has_value());
    if (jump->sojourn <= age) continue;
    ++trials;
    bool hit = false;
    int elapsed = jump->sojourn - age;
    int state = jump->next;
    while (elapsed <= horizon) {
      if (state > 1) {
        hit = true;
        break;
      }
      auto j2 = chain.sample_jump(state, rng);
      ASSERT_TRUE(j2.has_value());
      elapsed += j2->sojourn;
      if (elapsed > horizon) break;
      state = j2->next;
    }
    hits += hit ? 1 : 0;
  }
  EXPECT_NEAR(analytic, static_cast<double>(hits) / trials, 0.01);
}

TEST(EstimatedVsTruth, HitProbabilityConvergesWithData) {
  // The estimated chain's first-passage probabilities approach the ground
  // truth's as training data grows — Fig. 4's premise.
  ZoneProfile zp = draw_zone_profile(3, PriceTick(440), 99);
  SemiMarkovChain truth = make_ground_truth_chain(zp);
  Rng rng(zp.seed);
  SpotTrace trace = truth.generate(SimTime(0), SimTime(26 * kWeek), 1, rng);

  int state = truth.nearest_state(trace.price_at(SimTime(26 * kWeek - 1)));
  PriceTick mid = truth.state_price(truth.state_count() / 2);
  double want = truth.hit_probability(state, 0, 60, mid);

  double err_short, err_long;
  {
    SemiMarkovChain est =
        SemiMarkovChain::estimate(trace.slice(SimTime(0), SimTime(2 * kWeek)));
    int s = est.nearest_state(truth.state_price(state));
    err_short = std::abs(est.hit_probability(s, 0, 60, mid) - want);
  }
  {
    SemiMarkovChain est = SemiMarkovChain::estimate(
        trace.slice(SimTime(0), SimTime(26 * kWeek)));
    int s = est.nearest_state(truth.state_price(state));
    err_long = std::abs(est.hit_probability(s, 0, 60, mid) - want);
  }
  EXPECT_LT(err_long, 0.02);
  EXPECT_LE(err_long, err_short + 0.005);
}

}  // namespace
}  // namespace jupiter
