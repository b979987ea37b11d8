#include "core/failure_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace jupiter {

namespace {

void check_fp_prime(double fp_prime) {
  if (fp_prime < 0 || fp_prime >= 1) throw std::invalid_argument("bad FP'");
}

/// Eq. 4: an instance fails if the underlying host fails (FP') or the
/// price goes out of bid.
double compose(double fp_prime, double out_of_bid) {
  return 1.0 - (1.0 - fp_prime) * (1.0 - out_of_bid);
}

/// The (zone, model) entry for `zone` in a zone-sorted book, or where it
/// would go.
template <typename Models>
auto find_zone(Models& models, int zone) {
  return std::lower_bound(
      models.begin(), models.end(), zone,
      [](const auto& kv, int z) { return kv.first < z; });
}

}  // namespace

ZoneFailureModel::ZoneFailureModel(SemiMarkovChain chain, PriceTick on_demand)
    : chain_(std::move(chain)),
      on_demand_(on_demand),
      cache_(std::make_shared<TransientCache>()) {}

ZoneFailureModel::ZoneFailureModel(const ZoneFailureModel& o)
    : chain_(o.chain_),
      on_demand_(o.on_demand_),
      cache_(std::make_shared<TransientCache>()) {}

ZoneFailureModel& ZoneFailureModel::operator=(const ZoneFailureModel& o) {
  if (this == &o) return *this;
  chain_ = o.chain_;
  on_demand_ = o.on_demand_;
  cache_ = std::make_shared<TransientCache>();
  return *this;
}

bool ZoneFailureModel::extend(const SpotTrace& history, SimTime from,
                              SimTime to) {
  int folded = chain_.extend(history, from, to);
  if (folded > 0) cache_->invalidate();  // keys/values reference the old chain
  return folded > 0;
}

ZoneFailureModel ZoneFailureModel::train(const SpotTrace& history,
                                         PriceTick on_demand) {
  if (history.empty()) throw std::invalid_argument("empty training trace");
  return ZoneFailureModel(SemiMarkovChain::estimate(history), on_demand);
}

double ZoneFailureModel::out_of_bid_probability(const MarketZoneState& st,
                                                int horizon_minutes,
                                                PriceTick bid,
                                                OobEstimator est) const {
  if (bid < st.price) return 1.0;  // would not even launch
  int state = chain_.nearest_state(st.price);
  if (est == OobEstimator::kFirstPassage) {
    return chain_.hit_probability(state, st.age_minutes, horizon_minutes, bid);
  }
  return chain_.exceed_probability(state, st.age_minutes, horizon_minutes,
                                   bid);
}

double ZoneFailureModel::estimate_fp(const MarketZoneState& st,
                                     int horizon_minutes, PriceTick bid,
                                     FpQuery q) const {
  check_fp_prime(q.fp_prime);
  // Eq. 14: FP = 1 for b <= p (the paper's strict inequality corresponds to
  // its "price exceeds bid" launch rule; ours launches at equality, so only
  // bids strictly below the price are hopeless a priori — but an equal bid
  // dies at the first move, which the exceedance term captures).
  if (bid < st.price) return 1.0;
  // Forced below on-demand (§4.2); honor the stricter of the model's cap
  // and the snapshot's.
  if (bid >= std::min(on_demand_, st.on_demand)) return 1.0;
  return compose(q.fp_prime, out_of_bid_probability(st, horizon_minutes, bid,
                                                    q.estimator));
}

std::optional<PriceTick> ZoneFailureModel::min_bid_for_fp(
    const MarketZoneState& st, int horizon_minutes, double fp_target,
    FpQuery q) const {
  return bid_curve(st, horizon_minutes, q).min_bid_for_fp(fp_target);
}

double ZoneFailureModel::best_achievable_fp(const MarketZoneState& st,
                                            int horizon_minutes,
                                            FpQuery q) const {
  PriceTick cap = st.on_demand - 1;
  if (cap < st.price) return 1.0;
  return estimate_fp(st, horizon_minutes, cap, q);
}

BidCurve::BidCurve(const SemiMarkovChain* chain, int state, int age,
                   int horizon, PriceTick current_price, PriceTick on_demand,
                   double fp_prime, OobEstimator estimator,
                   std::shared_ptr<TransientCache> cache,
                   std::shared_ptr<TransientCache::Entry> memo)
    : chain_(chain),
      state_(state),
      age_(age),
      horizon_(horizon),
      current_price_(current_price),
      on_demand_(on_demand),
      fp_prime_(fp_prime),
      estimator_(estimator),
      stats_(std::move(cache)),
      memo_(std::move(memo)) {
  check_fp_prime(fp_prime_);
  if (!memo_) {
    cache_.assign(static_cast<std::size_t>(chain->state_count()), 0.0);
    known_.assign(static_cast<std::size_t>(chain->state_count()), 0);
    if (estimator_ == OobEstimator::kOccupancy) {
      // Occupancy exceedance comes from a single forward pass; fill eagerly.
      cache_ = chain_->exceed_curve(state_, age_, horizon_);
      std::fill(known_.begin(), known_.end(), 1);
    }
  }
}

double BidCurve::occupancy_oob(int i) const {
  auto idx = static_cast<std::size_t>(i);
  if (!memo_) return cache_[idx];  // filled eagerly in the constructor
  std::lock_guard<std::mutex> lk(memo_->mu);
  if (!memo_->exceed_filled) {
    memo_->exceed = chain_->exceed_curve(state_, age_, horizon_);
    memo_->exceed_filled = true;
    if (stats_) stats_->count_miss();
  } else if (stats_) {
    stats_->count_hit();
  }
  return memo_->exceed[idx];
}

double BidCurve::oob_at_index(int i) const {
  if (estimator_ == OobEstimator::kOccupancy) return occupancy_oob(i);
  auto idx = static_cast<std::size_t>(i);
  if (memo_) {
    std::lock_guard<std::mutex> lk(memo_->mu);
    if (!memo_->hit_known[idx]) {
      memo_->hit[idx] = chain_->hit_one(state_, age_, horizon_, i);
      memo_->hit_known[idx] = 1;
      if (stats_) stats_->count_miss();
    } else if (stats_) {
      stats_->count_hit();
    }
    return memo_->hit[idx];
  }
  if (!known_[idx]) {
    cache_[idx] = chain_->hit_one(state_, age_, horizon_, i);
    known_[idx] = 1;
  }
  return cache_[idx];
}

void BidCurve::prime_all() const {
  if (estimator_ == OobEstimator::kOccupancy) {
    occupancy_oob(0);  // one forward pass fills the whole curve
    return;
  }
  if (memo_) {
    std::lock_guard<std::mutex> lk(memo_->mu);
    bool all = true;
    for (char k : memo_->hit_known) {
      if (!k) {
        all = false;
        break;
      }
    }
    if (all) {
      if (stats_) stats_->count_hit();
      return;
    }
    std::vector<double> curve = chain_->hit_curve(state_, age_, horizon_);
    for (std::size_t i = 0; i < curve.size(); ++i) {
      if (!memo_->hit_known[i]) {
        memo_->hit[i] = curve[i];
        memo_->hit_known[i] = 1;
      }
    }
    if (stats_) stats_->count_miss();
    return;
  }
  std::vector<double> curve = chain_->hit_curve(state_, age_, horizon_);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (!known_[i]) {
      cache_[i] = curve[i];
      known_[i] = 1;
    }
  }
}

double BidCurve::fp_at(PriceTick bid) const {
  if (bid < current_price_ || bid >= on_demand_) return 1.0;
  // Out-of-bid probability at `bid` equals the value at the largest state
  // price <= bid (the curve is a right-continuous step function of the bid).
  const auto& ps = prices();
  auto it = std::upper_bound(ps.begin(), ps.end(), bid);
  int idx = static_cast<int>(it - ps.begin()) - 1;
  // Bid below every known state: everything the chain can visit exceeds it.
  double oob = idx < 0 ? 1.0 : oob_at_index(idx);
  return compose(fp_prime_, oob);
}

std::optional<PriceTick> BidCurve::min_bid_for_fp(double fp_target) const {
  if (fp_target >= 1.0) fp_target = 1.0;
  double max_oob = 1.0 - (1.0 - fp_target) / (1.0 - fp_prime_);
  if (max_oob < 0) return std::nullopt;
  // Candidate bids are the state prices in [current, on-demand); the vector
  // is sorted, so the bounds come from two binary searches.
  const auto& ps = prices();
  int lo = static_cast<int>(
      std::lower_bound(ps.begin(), ps.end(), current_price_) - ps.begin());
  int hi = static_cast<int>(
      std::lower_bound(ps.begin(), ps.end(), on_demand_) - ps.begin()) - 1;
  if (lo > hi || lo >= static_cast<int>(ps.size())) return std::nullopt;
  // The out-of-bid probability is nonincreasing in the threshold index, so
  // binary search finds the cheapest feasible bid with O(log) transient
  // analyses instead of one per candidate.
  if (oob_at_index(hi) > max_oob) return std::nullopt;
  while (lo < hi) {
    int mid = lo + (hi - lo) / 2;
    if (oob_at_index(mid) <= max_oob) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return ps[static_cast<std::size_t>(lo)];
}

double BidCurve::best_achievable_fp() const {
  PriceTick cap = on_demand_ - 1;
  return fp_at(cap);
}

BidCurve ZoneFailureModel::bid_curve(const MarketZoneState& st,
                                     int horizon_minutes, FpQuery q) const {
  int state = chain_.nearest_state(st.price);
  int age = chain_.clamped_age(state, st.age_minutes);
  auto memo = cache_->entry(state, age, horizon_minutes, chain_.state_count());
  return BidCurve(&chain_, state, st.age_minutes, horizon_minutes, st.price,
                  std::min(on_demand_, st.on_demand), q.fp_prime, q.estimator,
                  cache_, std::move(memo));
}

FailureModelBook::FailureModelBook(const TraceBook& traces, InstanceKind kind,
                                   SimTime history_start)
    : traces_(&traces), kind_(kind), history_start_(history_start) {}

void FailureModelBook::set(int zone, ZoneFailureModel model) {
  audit_.write("FailureModelBook::set");
  auto it = find_zone(models_, zone);
  if (it != models_.end() && it->first == zone) {
    it->second = std::move(model);
  } else {
    models_.emplace(it, zone, std::move(model));
  }
}

bool FailureModelBook::has(int zone) const {
  auto it = find_zone(models_, zone);
  return it != models_.end() && it->first == zone;
}

const ZoneFailureModel& FailureModelBook::model(int zone) const {
  auto it = find_zone(models_, zone);
  if (it == models_.end() || it->first != zone) {
    throw std::out_of_range("no model for zone");
  }
  return it->second;
}

FailureModelBook FailureModelBook::train(const TraceBook& book,
                                         InstanceKind kind,
                                         const std::vector<int>& zones,
                                         SimTime from, SimTime to) {
  FailureModelBook out(book, kind, from);
  out.advance_to(zones, to);
  return out;
}

void FailureModelBook::advance_to(const std::vector<int>& zones,
                                  SimTime now) {
  if (traces_ == nullptr) {
    throw std::logic_error("advance_to() needs a book built on a TraceBook");
  }
  audit_.write("FailureModelBook::advance_to");
  for (int zone : zones) {
    const SpotTrace& trace = traces_->trace(zone, kind_);
    auto it = find_zone(models_, zone);
    if (it != models_.end() && it->first == zone) {
      // The raw trace works here: extend() skips everything at or before the
      // chain's trained tail, and slice() would only perturb the first point's
      // timestamp anyway.
      it->second.extend(trace, trained_to_, now);
    } else {
      PriceTick od = PriceTick::from_money(on_demand_price_zone(zone, kind_));
      models_.emplace(it, zone, ZoneFailureModel::train(
                                    trace.slice(history_start_, now), od));
    }
  }
  trained_to_ = now;
}

void FailureModelBook::clear() {
  audit_.write("FailureModelBook::clear");
  models_.clear();
}

TransientCache::Stats FailureModelBook::cache_stats() const {
  TransientCache::Stats total;
  for (const auto& [zone, model] : models_) total += model.cache_stats();
  return total;
}

}  // namespace jupiter
