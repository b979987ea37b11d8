#include "replay/replay_engine.hpp"

#include <algorithm>
#include <string>

#include "core/market_state.hpp"
#include "market/billing.hpp"
#include "obs/obs.hpp"

namespace jupiter {

namespace {

/// Seconds of [t0, t1) during which fewer than `quorum` of the members'
/// up-intervals [up_from, up_to) overlap.
TimeDelta quorum_downtime(const std::vector<std::pair<SimTime, SimTime>>& ups,
                          SimTime t0, SimTime t1, int quorum) {
  std::vector<SimTime> edges{t0, t1};
  for (const auto& [a, b] : ups) {
    if (a > t0 && a < t1) edges.push_back(a);
    if (b > t0 && b < t1) edges.push_back(b);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  TimeDelta down = 0;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    SimTime a = edges[i], b = edges[i + 1];
    int up = 0;
    for (const auto& [ua, ub] : ups) {
      if (ua <= a && ub >= b) ++up;
    }
    if (up < quorum) down += b - a;
  }
  return down;
}

std::vector<const Holding*> views(const std::vector<Holding>& holdings) {
  std::vector<const Holding*> out;
  out.reserve(holdings.size());
  for (const Holding& h : holdings) out.push_back(&h);
  return out;
}

}  // namespace

KeepPlan plan_keeps(const std::vector<const Holding*>& holdings,
                    const StrategyDecision& decision, SimTime t) {
  const auto& bids = decision.spot_bids;
  const auto& od_zones = decision.on_demand_zones;
  KeepPlan plan;
  plan.keep.assign(holdings.size(), 0);
  std::vector<char> spot_used(bids.size(), 0);
  std::vector<char> od_used(od_zones.size(), 0);
  for (std::size_t k = 0; k < holdings.size(); ++k) {
    const Holding& h = *holdings[k];
    if (!h.alive(t)) continue;
    if (h.spot) {
      for (std::size_t i = 0; i < bids.size(); ++i) {
        if (!spot_used[i] && bids[i].zone == h.zone && bids[i].bid == h.bid) {
          spot_used[i] = plan.keep[k] = 1;
          break;
        }
      }
    } else {
      for (std::size_t i = 0; i < od_zones.size(); ++i) {
        if (!od_used[i] && od_zones[i] == h.zone) {
          od_used[i] = plan.keep[k] = 1;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < bids.size(); ++i) {
    if (!spot_used[i]) plan.spot_launches.push_back(bids[i]);
  }
  for (std::size_t i = 0; i < od_zones.size(); ++i) {
    if (!od_used[i]) plan.on_demand_launches.push_back(od_zones[i]);
  }
  return plan;
}

Money bill_retired(const Holding& h, const TraceBook& book, InstanceKind kind,
                   SimTime term) {
  if (!h.spot) {
    return bill_on_demand(on_demand_price_zone(h.zone, kind), h.launch, term);
  }
  if (h.never_ran) return Money();
  return bill_spot_instance(book.trace(h.zone, kind), h.launch, term, h.bid)
      .charge;
}

TimeDelta window_downtime(const std::vector<const Holding*>& members,
                          SimTime t0, SimTime t1, int intended,
                          const ServiceSpec& spec) {
  if (intended <= 0) return t1 - t0;
  std::vector<std::pair<SimTime, SimTime>> ups;
  for (const Holding* h : members) {
    if (h->never_ran) continue;
    SimTime from = std::max(t0, h->ready);
    SimTime to = h->death ? std::min(t1, *h->death) : t1;
    if (from < to) ups.emplace_back(from, to);
  }
  return quorum_downtime(ups, t0, t1, spec.quorum(intended));
}

std::string timeline_inconsistency(const std::vector<IntervalRecord>& timeline,
                                   int decisions, TimeDelta downtime,
                                   TimeDelta elapsed, int out_of_bid,
                                   int launches, Money cost) {
  if (decisions != static_cast<int>(timeline.size())) {
    return "decisions != timeline size";
  }
  TimeDelta down_sum = 0, len_sum = 0;
  int oob_sum = 0, launch_sum = 0;
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const IntervalRecord& rec = timeline[i];
    if (rec.downtime < 0 || rec.downtime > rec.length) {
      return "interval " + std::to_string(i) + " downtime outside [0, length]";
    }
    if (i + 1 < timeline.size() &&
        rec.start + rec.length != timeline[i + 1].start) {
      return "interval " + std::to_string(i) + " does not tile";
    }
    down_sum += rec.downtime;
    len_sum += rec.length;
    oob_sum += rec.out_of_bid;
    launch_sum += rec.launches;
  }
  if (down_sum != downtime) {
    return "downtime total != sum of attributed quorum-loss seconds";
  }
  if (!timeline.empty() && len_sum != elapsed) {
    return "interval lengths do not cover the window";
  }
  if (oob_sum != out_of_bid) return "out-of-bid total != timeline sum";
  if (launch_sum != launches) return "launch total != timeline sum";
  if (cost.micros() < 0) return "negative total cost";
  return {};
}

bool ReplayResult::internally_consistent(std::string* why) const {
  std::string err =
      timeline_inconsistency(timeline, decisions, downtime, elapsed,
                             out_of_bid_events, instances_launched, cost);
  if (why && !err.empty()) *why = err;
  return err.empty();
}

ReplayResult replay_strategy(const TraceBook& book, BiddingStrategy& strategy,
                             const ReplayConfig& cfg) {
  ReplayResult result;
  Rng rng(cfg.seed);
  std::vector<Holding> holdings;
  double node_sum = 0;

  const InstanceKind kind = cfg.spec.kind;
  result.elapsed = cfg.replay_end - cfg.replay_start;

  for (SimTime t = cfg.replay_start; t < cfg.replay_end;) {
    TimeDelta interval =
        cfg.interval_policy ? cfg.interval_policy(t) : cfg.interval;
    if (interval < kHour) interval = kHour;  // EC2 bills hourly (§3.2)
    SimTime t_end = std::min(t + interval, cfg.replay_end);
    ++result.decisions;
    bool first_interval = (t == cfg.replay_start);

    // Replacements are decided and launched a lead time before the
    // boundary (paper §4: "the new spot instances are launched before the
    // next bidding interval starts"), so a worst-case startup still
    // finishes by the boundary and replacement causes no quorum dip.
    SimTime decide_at = first_interval ? t : t - kMaxStartupLead;
    MarketSnapshot snapshot = snapshot_at(book, kind, cfg.zones, decide_at);
    std::vector<ZoneBid> held;
    for (const Holding& h : holdings) {
      if (h.spot && h.alive(decide_at)) held.push_back(ZoneBid{h.zone, h.bid});
    }
    StrategyDecision decision = strategy.decide(snapshot, decide_at, held);
    node_sum += decision.total_nodes();

    // ---- reconcile holdings against the decision; retire at the boundary ----
    KeepPlan plan = plan_keeps(views(holdings), decision, decide_at);
    std::vector<Holding> next;
    for (std::size_t k = 0; k < holdings.size(); ++k) {
      if (plan.keep[k]) {
        next.push_back(holdings[k]);
      } else {
        result.cost += bill_retired(holdings[k], book, kind, t);
      }
    }
    holdings = std::move(next);

    // ---- launch new instances (at decide_at, i.e. pre-boundary) ----
    // The very first interval is assumed already bootstrapped (the
    // framework had been running before the measured window opens).
    auto startup_for = [&](int zone) {
      return first_interval ? TimeDelta{0} : draw_startup(rng, zone);
    };
    for (const ZoneBid& b : plan.spot_launches) {
      const SpotTrace& trace = book.trace(b.zone, kind);
      Holding h;
      h.zone = b.zone;
      h.bid = b.bid;
      h.launch = decide_at;
      TimeDelta startup = startup_for(b.zone);
      h.ready = decide_at + startup;
      if (obs::Registry* reg = obs::metrics()) {
        // Bidding-decision sim-latency: seconds from the decision to the
        // instance serving, integer-exact for deterministic shard merges.
        reg->det_histogram("replay.bid_ready_lag_s")
            .observe(static_cast<std::uint64_t>(startup));
      }
      if (trace.price_at(decide_at) > b.bid) {
        h.never_ran = true;
      } else {
        h.death = trace.first_exceed(decide_at, b.bid);
      }
      holdings.push_back(h);
    }
    for (int zone : plan.on_demand_launches) {
      Holding h;
      h.zone = zone;
      h.spot = false;
      h.launch = decide_at;
      h.ready = decide_at + startup_for(zone);
      holdings.push_back(h);
    }

    // ---- availability accounting over [t, t_end) ----
    IntervalRecord rec;
    rec.start = t;
    rec.length = t_end - t;
    rec.nodes = decision.total_nodes();
    rec.launches = static_cast<int>(plan.spot_launches.size() +
                                    plan.on_demand_launches.size());
    for (const Holding& h : holdings) {
      if (h.death && *h.death >= t && *h.death < t_end) ++rec.out_of_bid;
    }
    rec.downtime = window_downtime(views(holdings), t, t_end, rec.nodes,
                                   cfg.spec);
    result.instances_launched += rec.launches;
    result.out_of_bid_events += rec.out_of_bid;
    result.downtime += rec.downtime;
    result.timeline.push_back(rec);

    if (obs::Registry* reg = obs::metrics()) {
      reg->counter("replay.intervals").inc();
      reg->counter("replay.launches").inc(static_cast<std::uint64_t>(rec.launches));
      reg->counter("replay.out_of_bid").inc(static_cast<std::uint64_t>(rec.out_of_bid));
      reg->counter("replay.downtime_seconds")
          .inc(static_cast<std::uint64_t>(rec.downtime));
      std::size_t transitions = 0;
      for (int zone : cfg.zones) {
        transitions += book.trace(zone, kind).transitions_in(t, t_end);
      }
      reg->counter("market.price_transitions")
          .inc(static_cast<std::uint64_t>(transitions));
    }
    if (obs::TraceSink* tr = obs::trace()) {
      tr->span(rec.start, rec.length, obs::TraceTrack::kReplay, "interval",
               "replay",
               {{"nodes", rec.nodes},
                {"launches", rec.launches},
                {"out_of_bid", rec.out_of_bid},
                {"downtime_s", rec.downtime}});
      // Availability sample stream, rendered as a Perfetto counter track:
      // parts-per-million of the interval the quorum was up.
      std::int64_t ppm =
          rec.length > 0
              ? ((rec.length - rec.downtime) * 1'000'000) / rec.length
              : 1'000'000;
      tr->counter(rec.start, obs::TraceTrack::kReplay, "availability_ppm",
                  {{"ppm", ppm}});
      if (rec.downtime > 0) {
        tr->instant(rec.start, obs::TraceTrack::kReplay, "quorum_loss",
                    "replay",
                    {{"seconds", std::to_string(rec.downtime)}});
      }
    }
    if (rec.downtime > 0) {
      obs::note(rec.start, "replay",
                "quorum lost for " + std::to_string(rec.downtime) +
                    "s in interval starting " + rec.start.str());
    }

    t = t_end;
  }

  // ---- final settlement at replay end (user termination) ----
  for (const Holding& h : holdings) {
    result.cost += bill_retired(h, book, kind, cfg.replay_end);
  }

  result.mean_nodes =
      result.decisions ? node_sum / result.decisions : 0.0;
  return result;
}

}  // namespace jupiter
