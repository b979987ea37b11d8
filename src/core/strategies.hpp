// Bidding strategies evaluated in §5: the paper's framework ("Jupiter"),
// the Extra(m, p) heuristics, and the on-demand baseline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/failure_model.hpp"
#include "core/market_state.hpp"
#include "core/online_bidder.hpp"
#include "core/service_spec.hpp"

namespace jupiter {

/// What a strategy wants deployed for the coming bidding interval.
struct StrategyDecision {
  std::vector<ZoneBid> spot_bids;
  std::vector<int> on_demand_zones;
  int total_nodes() const {
    return static_cast<int>(spot_bids.size() + on_demand_zones.size());
  }
};

class BiddingStrategy {
 public:
  virtual ~BiddingStrategy() = default;
  virtual std::string name() const = 0;
  /// Called once per bidding interval with the current market and the spot
  /// instances currently held (zone + live bid).  Returning an entry equal
  /// to a held one keeps that instance; any other entry replaces it (EC2
  /// cannot change the bid of a running instance, so "re-bid" always means
  /// terminate-and-relaunch, which costs the old instance's partial hour).
  virtual StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                                  const std::vector<ZoneBid>& held) = 0;
};

/// The paper's availability- and cost-aware framework.  Folds newly observed
/// price data into its failure models before every decision ("with more and
/// more spot prices data collected, the estimation can be improved", §4).
/// The models live in a FailureModelBook kept warm between decisions: the
/// first decision trains from scratch over [history_start, now), every later
/// one extends the chains with just the change points since the previous
/// one — same models, O(new points) instead of O(full history) per interval.
///
/// The book is either private (advanced by decide() itself, the replay
/// case) or shared with other strategies of the same instance kind and
/// advanced by its owner before they decide (a fleet cluster advances one
/// per kind each epoch).  The service's FP' and estimator are per-query
/// arguments, so sharing changes no decision.
class JupiterStrategy : public BiddingStrategy {
 public:
  /// Private book: `book` must outlive the strategy.  Training uses the
  /// window [history_start, decision time).
  JupiterStrategy(const TraceBook& book, ServiceSpec spec,
                  SimTime history_start, OnlineBidder::Options opts,
                  OobEstimator estimator = OobEstimator::kFirstPassage);
  /// Shared book of `spec.kind`, which its owner advances to every decision
  /// time before decide() runs (decide() throws std::logic_error if not).
  JupiterStrategy(std::shared_ptr<const FailureModelBook> models,
                  ServiceSpec spec, OnlineBidder::Options opts,
                  OobEstimator estimator = OobEstimator::kFirstPassage);

  std::string name() const override { return "Jupiter"; }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

  /// The last decision's metadata (estimated availability etc.).
  const BidDecision& last_decision() const { return last_; }

  /// Retargets the failure-probability horizon to a new bidding interval —
  /// used by the adaptive-interval extension (§5.5), where the interval
  /// changes between decisions.
  void set_horizon_minutes(int minutes) {
    bidder_.set_horizon_minutes(minutes);
  }

  /// Benchmarks only: disables warm models, forcing a full retrain (and
  /// cold transient caches) every decision.  Decisions are identical either
  /// way — incremental training is exact — so this isolates the cost of the
  /// naive path.  Applies to a private book only.
  void set_incremental(bool on) { incremental_ = on; }

  /// Decisions where no deployment met the availability target and the
  /// bidder fell back to the most available one (the core.fallbacks count,
  /// kept even when no metrics registry is installed).
  std::int64_t fallbacks() const { return fallbacks_; }

  /// Transient-cache counters of the book (summed over its zone models;
  /// for a shared book, every reader's lookups).
  TransientCache::Stats cache_stats() const { return models_->cache_stats(); }

 private:
  /// Cadence of full re-optimizations; between them the strategy only
  /// re-validates the held deployment against the availability constraint.
  static constexpr int kFullRefreshEvery = 6;

  ServiceSpec spec_;
  OnlineBidder bidder_;
  OobEstimator estimator_;
  BidDecision last_;
  int decisions_ = 0;
  std::int64_t fallbacks_ = 0;
  std::shared_ptr<FailureModelBook> own_;  ///< the private book; null if shared
  std::shared_ptr<const FailureModelBook> models_;  ///< the book decide() reads
  bool incremental_ = true;
};

/// Extra(m, p): take the baseline node count plus m additional nodes in the
/// zones with the lowest current spot prices and bid (1 + p) times the spot
/// price (§5.2).  No failure-probability estimation at all.
class ExtraStrategy : public BiddingStrategy {
 public:
  ExtraStrategy(ServiceSpec spec, int extra_nodes, double extra_portion);

  std::string name() const override;
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

 private:
  ServiceSpec spec_;
  int extra_nodes_;
  double extra_portion_;
};

/// The reference deployment: baseline_nodes on-demand instances in the
/// cheapest zones (one per zone).
class OnDemandStrategy : public BiddingStrategy {
 public:
  explicit OnDemandStrategy(ServiceSpec spec) : spec_(std::move(spec)) {}

  std::string name() const override { return "Baseline"; }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override;

 private:
  ServiceSpec spec_;
};

}  // namespace jupiter
