// Trace-replay engine (paper §5.2, §5.5) and the instance lifecycle that
// every driver shares.
//
// Replays a bidding strategy against recorded spot price traces exactly the
// way the paper does: "as cost and availability of a spot instance are
// certained with the given spot prices data, the result is the same as real
// running the bidding framework on Amazon EC2."
//
// Mechanics per bidding interval [T, T+I):
//   * the strategy sees the market snapshot kMaxStartupLead before T (at T
//     for the first interval) and names its deployment;
//   * holdings are reconciled by the keep rule (plan_keeps): an instance is
//     kept iff the same zone is selected with the same bid (EC2 cannot
//     re-bid a live instance); retired instances are user-terminated at T
//     (bill_retired charges their partial hour), new ones are requested at
//     the decision instant and spend a region-dependent 200-700 s starting
//     up (§4: the startup time shortens the effective interval);
//   * an instance dies the moment the spot price exceeds its bid and stays
//     dead until the next boundary (no mid-interval rebidding, matching the
//     framework's cadence);
//   * billing follows the spot rules in market/billing.hpp, hour-anchored
//     at each instance's launch across interval boundaries;
//   * the service is counted available at each instant iff at least a
//     quorum of the interval's intended members is up (window_downtime).
//     Replay counts out-of-bid downtime only (the paper's replays do not
//     re-inject SLA crashes; those enter through the failure model's FP').
//
// The lifecycle pieces at the bottom of this header (Holding, plan_keeps,
// bill_retired, window_downtime, timeline_inconsistency) are the one copy
// of those rules.  The fleet driver (src/fleet) and the live
// BiddingFramework (replay/framework.hpp) use them too; the drivers differ
// only in how instances launch (replay resolves the out-of-bid instant up
// front, the fleet waits for the market to clear, the framework asks the
// CloudProvider) and in how deaths are found.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cloud/region.hpp"
#include "cloud/trace_book.hpp"
#include "core/service_spec.hpp"
#include "core/strategies.hpp"
#include "util/money.hpp"

namespace jupiter {

struct ReplayConfig {
  ServiceSpec spec;
  TimeDelta interval = kHour;
  SimTime replay_start;
  SimTime replay_end;
  std::vector<int> zones;
  std::uint64_t seed = 0x5EED;  ///< startup-jitter stream

  /// Optional variable-interval policy (the paper's §5.5 extension:
  /// "detect the frequency of spot prices fluctuating and change the
  /// bidding interval correspondingly").  When set, it is queried at each
  /// boundary with the boundary time and returns the length of the
  /// interval that starts there; `interval` is ignored.
  std::function<TimeDelta(SimTime)> interval_policy;
};

/// One bidding interval of a replay, for timelines and plots.
struct IntervalRecord {
  SimTime start;
  TimeDelta length = 0;
  int nodes = 0;            ///< intended deployment size
  int launches = 0;         ///< new instances requested for this interval
  int out_of_bid = 0;       ///< terminations inside this interval
  TimeDelta downtime = 0;   ///< seconds below quorum
};

struct ReplayResult {
  Money cost;
  TimeDelta downtime = 0;
  TimeDelta elapsed = 0;
  int decisions = 0;
  int out_of_bid_events = 0;
  int instances_launched = 0;
  double mean_nodes = 0.0;  ///< average deployment size across intervals
  std::vector<IntervalRecord> timeline;  ///< one record per interval

  double availability() const {
    if (elapsed <= 0) return 1.0;
    return 1.0 - static_cast<double>(downtime) / static_cast<double>(elapsed);
  }

  /// Availability-accounting conservation check: the headline totals must
  /// equal what the per-interval timeline attributes (downtime == observed
  /// quorum-loss seconds, summed; launches, out-of-bid events and interval
  /// lengths likewise), and every interval's downtime must fit inside the
  /// interval.  Returns false and explains in `why` (if non-null) when the
  /// accounting leaks — the chaos harness runs this as an invariant after
  /// every replay.
  bool internally_consistent(std::string* why = nullptr) const;
};

/// Replays `strategy` over the window in `cfg`.  The strategy is driven
/// from scratch (no state leaks between calls as long as the strategy
/// itself is fresh).
ReplayResult replay_strategy(const TraceBook& book, BiddingStrategy& strategy,
                             const ReplayConfig& cfg);

// ---- shared driver pieces --------------------------------------------------
// The instance lifecycle behind replay_strategy above, the fleet driver
// (src/fleet) and the live BiddingFramework.  Startup draws and the lead
// time live next to the region data (cloud/region.hpp).

/// One held instance: where it runs, at what bid, and when it was up.
struct Holding {
  int zone = -1;
  PriceTick bid;                 ///< spot only
  bool spot = true;
  bool never_ran = false;        ///< price above the bid at request time
  SimTime launch;                ///< request instant; billing anchors here
  SimTime ready;                 ///< end of startup
  std::optional<SimTime> death;  ///< out-of-bid kill, once known

  bool alive(SimTime t) const { return !never_ran && (!death || *death > t); }
};

/// The keep rule applied to one decision.
struct KeepPlan {
  std::vector<char> keep;               ///< per holding, in input order
  std::vector<ZoneBid> spot_launches;   ///< unmatched spot slots
  std::vector<int> on_demand_launches;  ///< unmatched on-demand zones
};

/// Reconciles `holdings` with `decision`: a holding alive at `t` is kept iff
/// a still-unmatched slot of the decision names its zone and, for spot, its
/// bid (EC2 cannot re-bid a live instance).  Each slot keeps at most one
/// holding; the slots left unmatched need a launch, in decision order.
KeepPlan plan_keeps(const std::vector<const Holding*>& holdings,
                    const StrategyDecision& decision, SimTime t);

/// The bill for a holding the user terminates at `term`: hourly spot billing
/// against the zone's trace in `book` (free if it never ran; an earlier
/// out-of-bid kill ends the bill there), or on-demand hours.
Money bill_retired(const Holding& h, const TraceBook& book, InstanceKind kind,
                   SimTime term);

/// Seconds of [t0, t1) below quorum for a deployment of `intended` nodes.
/// Each member that ran is up over [max(t0, ready), min(t1, death)); an
/// empty deployment is down for the whole window.
TimeDelta window_downtime(const std::vector<const Holding*>& members,
                          SimTime t0, SimTime t1, int intended,
                          const ServiceSpec& spec);

/// Timeline conservation check shared by ReplayResult and the fleet's
/// per-service results: the headline totals must equal what the timeline
/// attributes, intervals must tile the window, and every interval's
/// downtime must fit inside it.  Returns the first violation, or "" when
/// the accounting holds.
std::string timeline_inconsistency(const std::vector<IntervalRecord>& timeline,
                                   int decisions, TimeDelta downtime,
                                   TimeDelta elapsed, int out_of_bid,
                                   int launches, Money cost);

}  // namespace jupiter
