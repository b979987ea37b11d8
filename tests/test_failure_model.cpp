#include "core/failure_model.hpp"

#include <gtest/gtest.h>

namespace jupiter {
namespace {

/// Three-price chain: 100 (base), 120 (elevated), 200 (spike).
SemiMarkovChain make_chain() {
  SemiMarkovChain chain({PriceTick(100), PriceTick(120), PriceTick(200)});
  chain.add_transition(0, 1, 10, 0.9);
  chain.add_transition(0, 2, 30, 0.1);
  chain.add_transition(1, 0, 5, 0.95);
  chain.add_transition(1, 2, 20, 0.05);
  chain.add_transition(2, 0, 5, 1.0);
  chain.normalize_rows();
  return chain;
}

MarketZoneState state_at(PriceTick price, int age = 0) {
  MarketZoneState st;
  st.zone = 0;
  st.price = price;
  st.age_minutes = age;
  st.on_demand = PriceTick(440);
  return st;
}

TEST(FailureModel, RejectsBadFpPrime) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  EXPECT_THROW(model.bid_curve(st, 60, FpQuery{1.0}), std::invalid_argument);
  EXPECT_THROW(model.bid_curve(st, 60, FpQuery{-0.1}), std::invalid_argument);
  EXPECT_THROW(model.estimate_fp(st, 60, PriceTick(120), FpQuery{1.0}),
               std::invalid_argument);
}

TEST(FailureModel, TrainRequiresData) {
  EXPECT_THROW(ZoneFailureModel::train(SpotTrace{}, PriceTick(440)),
               std::invalid_argument);
}

TEST(FailureModel, BidBelowPriceIsCertainFailure) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  EXPECT_DOUBLE_EQ(model.estimate_fp(state_at(PriceTick(100)), 60,
                                     PriceTick(99)),
                   1.0);
}

TEST(FailureModel, BidAtOrAboveOnDemandIsRejected) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  // §4.2: the framework forces bids below the on-demand price.
  EXPECT_DOUBLE_EQ(
      model.estimate_fp(state_at(PriceTick(100)), 60, PriceTick(440)), 1.0);
  EXPECT_DOUBLE_EQ(
      model.estimate_fp(state_at(PriceTick(100)), 60, PriceTick(500)), 1.0);
}

TEST(FailureModel, SafeBidFloorsAtFpPrime) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  // Bidding at/above the top state never goes out of bid: FP == FP' (Eq. 4).
  double fp = model.estimate_fp(state_at(PriceTick(100)), 60, PriceTick(200));
  EXPECT_NEAR(fp, 0.01, 1e-9);
}

TEST(FailureModel, Eq4Composition) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  double oob = model.out_of_bid_probability(st, 60, PriceTick(120));
  double fp = model.estimate_fp(st, 60, PriceTick(120), FpQuery{0.01});
  EXPECT_NEAR(fp, 1.0 - (1.0 - 0.01) * (1.0 - oob), 1e-12);
  EXPECT_GT(oob, 0.0);
  EXPECT_LT(oob, 1.0);
}

TEST(FailureModel, FpMonotoneNonincreasingInBid) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  double prev = 2.0;
  for (int bid : {100, 120, 200, 300}) {
    double fp = model.estimate_fp(st, 60, PriceTick(bid));
    EXPECT_LE(fp, prev + 1e-12);
    prev = fp;
  }
}

TEST(FailureModel, FirstPassageDominatesOccupancy) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  for (int bid : {100, 120}) {
    EXPECT_GE(model.out_of_bid_probability(st, 120, PriceTick(bid),
                                           OobEstimator::kFirstPassage) +
                  1e-12,
              model.out_of_bid_probability(st, 120, PriceTick(bid),
                                           OobEstimator::kOccupancy));
  }
}

TEST(FailureModel, MinBidMeetsTarget) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  for (double target : {0.5, 0.2, 0.05, 0.0101}) {
    auto bid = model.min_bid_for_fp(st, 60, target);
    ASSERT_TRUE(bid.has_value()) << target;
    EXPECT_LE(model.estimate_fp(st, 60, *bid), target + 1e-12);
    // Minimality: the next lower state price misses the target (when the
    // bid is not already the lowest possible).
    if (*bid > st.price) {
      EXPECT_GT(model.estimate_fp(st, 60, *bid - 1), target);
    }
  }
}

TEST(FailureModel, MinBidInfeasibleBelowFpPrime) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  // No bid can beat the SLA floor.
  EXPECT_EQ(model.min_bid_for_fp(state_at(PriceTick(100)), 60, 0.005,
                                 FpQuery{0.01}),
            std::nullopt);
}

TEST(FailureModel, MinBidInfeasibleWhenOnDemandTooLow) {
  // On-demand below the spike: the only safe bid is out of range.
  ZoneFailureModel model(make_chain(), PriceTick(150));
  EXPECT_EQ(model.min_bid_for_fp(state_at(PriceTick(100)), 60, 0.0101,
                                 FpQuery{0.01}),
            std::nullopt);
}

TEST(FailureModel, BidCurveAgreesWithDirectCalls) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100), 3);
  BidCurve curve = model.bid_curve(st, 90);
  for (int bid : {100, 120, 200}) {
    EXPECT_NEAR(curve.fp_at(PriceTick(bid)),
                model.estimate_fp(st, 90, PriceTick(bid)), 1e-12);
  }
  for (double target : {0.3, 0.05, 0.0101}) {
    EXPECT_EQ(curve.min_bid_for_fp(target), model.min_bid_for_fp(st, 90, target));
  }
  EXPECT_NEAR(curve.best_achievable_fp(),
              model.best_achievable_fp(st, 90), 1e-12);
}

TEST(FailureModel, HigherHorizonRaisesRisk) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  MarketZoneState st = state_at(PriceTick(100));
  double short_fp = model.estimate_fp(st, 60, PriceTick(120));
  double long_fp = model.estimate_fp(st, 720, PriceTick(120));
  EXPECT_GT(long_fp, short_fp);
}

TEST(FailureModel, MemorylessVariantDiffers) {
  ZoneFailureModel model(make_chain(), PriceTick(440));
  ZoneFailureModel mem = model.memoryless();
  MarketZoneState st = state_at(PriceTick(100), 9);  // age matters here
  double a = model.estimate_fp(st, 30, PriceTick(120));
  double b = mem.estimate_fp(st, 30, PriceTick(120));
  EXPECT_NE(a, b);
}

TEST(FailureModelBook, SetHasModel) {
  FailureModelBook book;
  EXPECT_FALSE(book.has(3));
  book.set(3, ZoneFailureModel(make_chain(), PriceTick(440)));
  EXPECT_TRUE(book.has(3));
  EXPECT_EQ(book.model(3).on_demand(), PriceTick(440));
  EXPECT_THROW(book.model(4), std::out_of_range);
  // Overwrite.
  book.set(3, ZoneFailureModel(make_chain(), PriceTick(500)));
  EXPECT_EQ(book.model(3).on_demand(), PriceTick(500));
}

TEST(FailureModelBook, TrainFromTraceBook) {
  std::vector<int> zones = {0, 1};
  TraceBook traces = TraceBook::synthetic(zones, InstanceKind::kM1Small,
                                          SimTime(0), SimTime(2 * kWeek), 3);
  FailureModelBook book = FailureModelBook::train(
      traces, InstanceKind::kM1Small, zones, SimTime(0), SimTime(kWeek));
  EXPECT_TRUE(book.has(0));
  EXPECT_TRUE(book.has(1));
  EXPECT_GT(book.model(0).chain().state_count(), 1);
}

}  // namespace
}  // namespace jupiter
