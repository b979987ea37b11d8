// The spot instance failure model (paper §3.1, §4.2).
//
// For one (availability zone, instance type) pair, the model holds a
// semi-Markov chain estimated from observed spot prices (Eq. 13) and turns
// it into failure probabilities:
//
//   Eq. 3   out-of-bid component:  Pr(p(t) > b)
//   Eq. 4   composition with the 1 % SLA failure rate of the underlying
//           instance:  FP = 1 - (1 - FP') * (1 - Pr(out-of-bid))
//   Eq. 5   averaged over the bidding interval (discretized to minutes)
//   Eq. 14  the per-time-unit form, with the bid forced below on-demand
//
// estimate_fp() is the quantity the online bidding algorithm compares
// against its per-node target; min_bid_for_fp() inverts it in the bid using
// a single transient analysis (the exceedance curve is a step function of
// the bid, so the whole bid search costs one forward pass).
//
// The model is the market half of the query only: the chain and its
// transient cache.  FP' and the out-of-bid semantics belong to the service
// and arrive with each query (FpQuery), so services with different SLAs
// read one model and share its transient analyses.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cloud/trace_book.hpp"
#include "core/market_state.hpp"
#include "core/transient_cache.hpp"
#include "market/semi_markov.hpp"
#include "market/spot_trace.hpp"
#include "util/money.hpp"
#include "util/shared_state_audit.hpp"

namespace jupiter {

/// Failure probability of an on-demand instance per the EC2 SLA (§3.1).
inline constexpr double kOnDemandFailureProbability = 0.01;

/// How the out-of-bid component is computed from the price model.
///
/// kFirstPassage — Pr(price exceeds the bid at any point in the interval):
/// the probability the instance is terminated during the interval.  This is
/// the operative semantics (a terminated instance stays gone until the next
/// bidding decision) and the library's default.
///
/// kOccupancy — the paper's literal Eq. 5: the expected fraction of the
/// interval the price spends above the bid.  It understates risk whenever
/// prices cross the bid and come back; kept for the model ablation bench.
enum class OobEstimator { kFirstPassage, kOccupancy };

/// The service's half of a failure-probability query: FP' for the Eq. 4
/// composition and the out-of-bid semantics.  Neither depends on the price
/// chain, so one model (and one transient cache) answers services with
/// different values.
struct FpQuery {
  double fp_prime = kOnDemandFailureProbability;  ///< in [0, 1)
  OobEstimator estimator = OobEstimator::kFirstPassage;
};

/// One zone's bid-to-failure-probability curve at a fixed market state and
/// horizon.  The out-of-bid probability is a step function of the bid with
/// steps at the model's state prices; each step value comes from a transient
/// analysis that is independent of the availability target, so one curve
/// answers every "min bid for FP target" query of a bidding decision.
/// First-passage values are computed lazily per threshold and memoized —
/// the bid search usually touches only a handful of thresholds, and on a
/// single-core replay of 11 weeks that laziness is the difference between
/// minutes and an hour.
///
/// The curve borrows the model's chain; it must not outlive the
/// ZoneFailureModel that produced it.  Throws std::invalid_argument unless
/// 0 <= fp_prime < 1.
class BidCurve {
 public:
  BidCurve(const SemiMarkovChain* chain, int state, int age, int horizon,
           PriceTick current_price, PriceTick on_demand, double fp_prime,
           OobEstimator estimator,
           std::shared_ptr<TransientCache> cache = nullptr,
           std::shared_ptr<TransientCache::Entry> memo = nullptr);

  PriceTick current_price() const { return current_price_; }
  PriceTick on_demand() const { return on_demand_; }

  /// Out-of-bid probability when bidding exactly prices()[i].
  double oob_at_index(int i) const;
  const std::vector<PriceTick>& prices() const { return chain_->prices(); }

  /// Precomputes every first-passage threshold with one batched transient
  /// analysis (SemiMarkovChain::hit_curve).  Callers that will probe most
  /// thresholds — the exhaustive bidder enumerates every candidate price —
  /// amortize one DP over the whole curve instead of one per threshold.
  /// No-op for the occupancy estimator (already whole-curve).
  void prime_all() const;

  /// FP (Eq. 4 composed) at an arbitrary bid.
  double fp_at(PriceTick bid) const;
  /// Smallest feasible bid with FP <= fp_target (current <= bid < on-demand).
  [[nodiscard]] std::optional<PriceTick> min_bid_for_fp(double fp_target) const;
  /// FP at the highest allowed bid (one tick under on-demand).
  double best_achievable_fp() const;

 private:
  double occupancy_oob(int i) const;

  const SemiMarkovChain* chain_;
  int state_;
  int age_;
  int horizon_;
  PriceTick current_price_;
  PriceTick on_demand_;
  double fp_prime_;
  OobEstimator estimator_;
  // Shared memo (per model-zone, keyed by state/age/horizon); when null the
  // curve falls back to instance-local storage below.
  std::shared_ptr<TransientCache> stats_;
  std::shared_ptr<TransientCache::Entry> memo_;
  mutable std::vector<double> cache_;
  mutable std::vector<char> known_;
};

class ZoneFailureModel {
 public:
  /// Trains on a price history (typically ~3 months; the framework retrains
  /// as new data arrives).  `on_demand` caps every bid this model will
  /// recommend (§4.2: prefer an on-demand instance over bidding above its
  /// price).
  static ZoneFailureModel train(const SpotTrace& history, PriceTick on_demand);

  /// Builds directly from a chain (tests, ablations).
  ZoneFailureModel(SemiMarkovChain chain, PriceTick on_demand);

  // Copies get a fresh (empty) transient cache so two instances never serve
  // each other stale results after one of them is retrained; moves keep the
  // warm cache.
  ZoneFailureModel(const ZoneFailureModel& o);
  ZoneFailureModel& operator=(const ZoneFailureModel& o);
  ZoneFailureModel(ZoneFailureModel&&) = default;
  ZoneFailureModel& operator=(ZoneFailureModel&&) = default;

  /// Incremental training: folds the change points of `history` with time
  /// in [from, to) into the model's chain (SemiMarkovChain::extend) and
  /// invalidates the transient cache iff anything changed.  Returns whether
  /// new observations were folded.
  bool extend(const SpotTrace& history, SimTime from, SimTime to);

  /// Expected failure probability (Eq. 4+5) of an instance bid at `bid`
  /// over the next `horizon_minutes`, given the market state.  A bid at or
  /// below the current price fails immediately: FP = 1 (Eq. 14, first case
  /// — the request would not even launch).
  double estimate_fp(const MarketZoneState& st, int horizon_minutes,
                     PriceTick bid, FpQuery q = {}) const;

  /// Out-of-bid component alone (mean of Eq. 3 over the horizon).
  double out_of_bid_probability(
      const MarketZoneState& st, int horizon_minutes, PriceTick bid,
      OobEstimator est = OobEstimator::kFirstPassage) const;

  /// Smallest bid b (current price <= b < on_demand) with
  /// estimate_fp(b) <= fp_target, or nullopt if even the highest allowed
  /// bid misses the target.  Mirrors lines 6-13 of Fig. 3 but runs in one
  /// transient pass instead of tick-by-tick re-estimation.
  [[nodiscard]] std::optional<PriceTick> min_bid_for_fp(
      const MarketZoneState& st, int horizon_minutes, double fp_target,
      FpQuery q = {}) const;

  /// The exceedance the highest allowed bid (one tick below on-demand)
  /// achieves — the best this zone can do.  Used by the bidder's fallback
  /// ranking when no zone meets the target.
  double best_achievable_fp(const MarketZoneState& st, int horizon_minutes,
                            FpQuery q = {}) const;

  /// Runs the transient analysis once and returns the full bid curve.  The
  /// curve's memo entry is keyed by (state, clamped age, horizon) only, so
  /// queries with any FP' or estimator share it.
  BidCurve bid_curve(const MarketZoneState& st, int horizon_minutes,
                     FpQuery q = {}) const;

  PriceTick on_demand() const { return on_demand_; }
  const SemiMarkovChain& chain() const { return chain_; }

  /// Cumulative hit/miss counters of the transient-analysis cache.
  TransientCache::Stats cache_stats() const { return cache_->stats(); }

  /// Replaces the sojourn law with its memoryless approximation (model
  /// ablation).
  ZoneFailureModel memoryless() const {
    return ZoneFailureModel(chain_.to_memoryless(), on_demand_);
  }

 private:
  SemiMarkovChain chain_;
  PriceTick on_demand_;
  // Memoized transient analyses for this chain; replaced wholesale when the
  // chain is retrained.  Never null.
  std::shared_ptr<TransientCache> cache_;
};

/// Failure models for every zone of one instance type.
///
/// A book built on a TraceBook learns from it: advance_to(zones, now)
/// trains a zone it has not seen over [history_start, now) and folds only
/// the change points since the previous call into the zones it has.
/// Incremental training is exact, so the models at `now` are bit-identical
/// to a full retrain over [history_start, now), whatever the call history.
///
/// One book serves every reader that trains on the same trace for the same
/// kind: a replay strategy owns a private one and advances it before each
/// decision; a fleet cluster shares one per instance kind among its Jupiter
/// services and advances it once per epoch, in its serial phase.  Reads
/// (bid curves) may run on many threads at once; writes are phased — one
/// owning thread between audit_acquire() and audit_release().
class FailureModelBook {
 public:
  FailureModelBook() = default;
  /// A book that learns from `traces` (which must outlive every
  /// advance_to() call).
  FailureModelBook(const TraceBook& traces, InstanceKind kind,
                   SimTime history_start);

  void set(int zone, ZoneFailureModel model);
  bool has(int zone) const;
  const ZoneFailureModel& model(int zone) const;

  /// Trains a model per zone from the trace book over [from, to).
  static FailureModelBook train(const TraceBook& book, InstanceKind kind,
                                const std::vector<int>& zones, SimTime from,
                                SimTime to);

  /// Brings the model of every zone in `zones` up to `now` (see above).
  /// Keeping models warm between bidding decisions replaces the O(full
  /// history) retrain per interval with an O(new points) update.
  void advance_to(const std::vector<int>& zones, SimTime now);
  /// The `now` of the last advance_to().
  SimTime trained_to() const { return trained_to_; }
  InstanceKind kind() const { return kind_; }
  SimTime history_start() const { return history_start_; }
  /// Drops every model; the next advance_to() retrains from scratch.
  void clear();

  /// Transient-cache counters summed across all zone models.
  TransientCache::Stats cache_stats() const;

  /// Phased write ownership (see SharedStateAuditor).
  void audit_acquire() { audit_.acquire("FailureModelBook::audit_acquire"); }
  void audit_release() { audit_.release(); }

 private:
  const TraceBook* traces_ = nullptr;
  InstanceKind kind_ = InstanceKind::kM1Small;
  SimTime history_start_;
  SimTime trained_to_;
  std::vector<std::pair<int, ZoneFailureModel>> models_;  // sorted by zone
  AuditToken audit_{"FailureModelBook", AuditMode::kPhased};
};

}  // namespace jupiter
