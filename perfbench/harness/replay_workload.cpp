// replay_11wk: the paper's Fig. 6-9 sweep for the lock and the storage
// service (13 training weeks, 11 replay weeks, {Jupiter, Extra(0,0.2),
// Extra(2,0.2)} x {1,3,6,9,12} h), called through run_sweep.
//
// Why: Jupiter's decide() is nearly all of the cell time, and the interval
// sweep moves the transient-DP horizon by 12x.  It never touches the sim,
// paxos or ec layers, so it is the no-change check for them.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "replay_cell.hpp"
#include "util/thread_pool.hpp"

namespace jbench {
namespace {

using namespace jupiter;

// EXPERIMENTS.md Figs 6-9 on kExperimentSeed, in cents, by interval hours.
struct Golden {
  int hours;
  std::int64_t jupiter, extra0, extra2;
};
constexpr Golden kLockGolden[] = {{1, 7948, 7362, 10659},
                                  {3, 7853, 6436, 9346},
                                  {6, 8395, 5844, 8503},
                                  {9, 8950, 5411, 7894},
                                  {12, 9344, 5036, 7397}};
constexpr Golden kStorageGolden[] = {{1, 33404, 24733, 36121},
                                     {3, 33315, 20009, 29465},
                                     {6, 24516, 17225, 25451},
                                     {9, 22846, 15514, 23019},
                                     {12, 22830, 14139, 21176}};

struct Service {
  const char* name;
  ServiceSpec spec;
  InstanceKind kind;
  const Golden* golden;
  std::uint64_t seed;
  Scenario sc;
};

/// Delegates to a strategy and times every decide() call.
class TimedStrategy : public BiddingStrategy {
 public:
  TimedStrategy(BiddingStrategy& inner, Tracer& tr, std::uint64_t parent)
      : inner_(inner), tr_(tr), parent_(parent) {}
  std::string name() const override { return inner_.name(); }
  StrategyDecision decide(const MarketSnapshot& snapshot, SimTime now,
                          const std::vector<ZoneBid>& held) override {
    double t0 = wall_now();
    StrategyDecision d = inner_.decide(snapshot, now, held);
    double t1 = wall_now();
    tr_.record("decide", parent_, t0, t1);
    durations.push_back(t1 - t0);
    return d;
  }
  std::vector<double> durations;

 private:
  BiddingStrategy& inner_;
  Tracer& tr_;
  std::uint64_t parent_;
};

std::vector<Cell> cells_of(const SweepOptions& opts, int services) {
  std::vector<Cell> cells;
  for (int s = 0; s < services; ++s) {
    // run_sweep's order: Jupiter first, then each Extra, interval ascending.
    for (TimeDelta iv : opts.intervals) cells.push_back({s, true, 0, iv});
    for (const auto& [m, p] : opts.extras) {
      for (TimeDelta iv : opts.intervals) cells.push_back({s, false, m, iv});
    }
  }
  return cells;
}

bool same(const ReplayResult& a, const ReplayResult& b) {
  return a.cost == b.cost && a.downtime == b.downtime &&
         a.elapsed == b.elapsed && a.decisions == b.decisions &&
         a.out_of_bid_events == b.out_of_bid_events &&
         a.instances_launched == b.instances_launched;
}

std::int64_t cents(Money m) {
  return static_cast<std::int64_t>(std::llround(static_cast<double>(m.micros()) / 1e4));
}

}  // namespace

CellRun run_cell(const Scenario& sc, const ServiceSpec& spec, const Cell& c,
                 Tracer* tr, std::uint64_t parent) {
  CellRun out;
  ReplayConfig cfg = make_replay_config(sc, spec, c.interval);
  std::unique_ptr<BiddingStrategy> strat;
  JupiterStrategy* jup = nullptr;
  if (c.jupiter) {
    OnlineBidder::Options bopts;
    bopts.horizon_minutes = static_cast<int>(c.interval / kMinute);
    bopts.max_nodes = SweepOptions{}.bidder_max_nodes;
    auto j = std::make_unique<JupiterStrategy>(sc.book, spec, sc.history_start, bopts);
    jup = j.get();
    strat = std::move(j);
  } else {
    strat = std::make_unique<ExtraStrategy>(spec, c.extra_nodes, 0.2);
  }
  double t0 = wall_now();
  if (tr) {
    std::uint64_t id = tr->next_id();
    TimedStrategy timed(*strat, *tr, id);
    out.result = replay_strategy(sc.book, timed, cfg);
    out.decide_s = std::move(timed.durations);
    out.wall = wall_now() - t0;
    tr->record("cell", parent, t0, t0 + out.wall, 0, id);
  } else {
    out.result = replay_strategy(sc.book, *strat, cfg);
    out.wall = wall_now() - t0;
  }
  if (jup) out.cache = jup->cache_stats();
  return out;
}

void run_replay(const Options& o, Tracer& tr, Result& r) {
  const int train_weeks = 13;
  const int replay_weeks = 11;
  SweepOptions sweep;
  // Quick mode keeps only the 12 h row: the cheapest cells that still carry
  // a golden dollar figure for every strategy of both services.
  if (o.quick) sweep.intervals = {12 * kHour};

  // One market draw costs the throughput as much as run-to-run noise does,
  // so a run averages over several: the seed's own scenario plus further
  // draws from seeds derived from it, about one per 4 s of --seconds.
  const int draws = o.trace || o.quick ? 1 : std::max(1, static_cast<int>(o.seconds / 4));
  std::vector<Service> svcs;
  for (int k = 0; k < draws; ++k) {
    std::uint64_t seed = k == 0 ? o.seed : derive_seed(o.seed, static_cast<std::uint64_t>(k));
    svcs.push_back({"lock", ServiceSpec::lock_service(), InstanceKind::kM1Small, kLockGolden, seed, {}});
    svcs.push_back({"storage", ServiceSpec::storage_service(), InstanceKind::kM3Large, kStorageGolden, seed, {}});
  }

  // Set-up: every scenario (trace synthesis).  One build of all of them
  // takes about 70 ms, and the host's speed drifts over seconds, so the
  // set-up is built 3 times before each market's sweeps (the same inputs
  // each time) and the median over the run is reported.
  std::vector<double> setup;
  std::vector<std::vector<SweepCell>> ref;
  std::vector<double> sweep_wall;
  CpuTimes cpu_a;
  for (int d = 0; d < draws; ++d) {
    for (int rep = 0; rep < 3; ++rep) {
      Scope span(tr, "scenario_build");
      double t0 = wall_now();
      for (Service& s : svcs) s.sc = make_scenario(s.kind, train_weeks, replay_weeks, s.seed);
      setup.push_back(wall_now() - t0);
    }
    for (std::size_t s = 2 * static_cast<std::size_t>(d); s < 2 * static_cast<std::size_t>(d) + 2; ++s) {
      CpuTimes c0 = cpu_now();
      double t0 = wall_now();
      ref.push_back(run_sweep(svcs[s].sc, svcs[s].spec, sweep));
      sweep_wall.push_back(wall_now() - t0);
      CpuTimes c1 = cpu_now();
      cpu_a.user += c1.user - c0.user;
      cpu_a.sys += c1.sys - c0.sys;
    }
  }
  double measured = 0;
  for (double w : sweep_wall) measured += w;
  const double window_weeks = replay_weeks;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    bool ok = true;
    for (const SweepCell& c : ref[s]) {
      std::string why;
      if (!c.result.internally_consistent(&why)) {
        r.check(false, std::string(svcs[s].name) + " " + c.strategy + ": " + why);
        ok = false;
      }
    }
    r.attempted += static_cast<std::int64_t>(ref[s].size());
    if (!ok) r.failed += static_cast<std::int64_t>(ref[s].size());
  }
  // Output checks: dollars to the cent on the canonical seed.
  std::int64_t decisions = 0;
  std::int64_t jup_down = 0, jup_elapsed = 0;
  Money jup_cost;
  double jup_base = 0;
  std::vector<std::int64_t> outages;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    const Service& svc = svcs[s];
    Money base = baseline_cost(svc.spec, svc.sc.replay_end - svc.sc.replay_start);
    for (const SweepCell& c : ref[s]) {
      decisions += c.result.decisions;
      for (const IntervalRecord& rec : c.result.timeline) {
        if (rec.downtime > 0) outages.push_back(rec.downtime);
      }
      if (c.strategy == "Jupiter") {
        jup_cost += c.result.cost;
        jup_base += base.dollars();
        jup_down += c.result.downtime;
        jup_elapsed += c.result.elapsed;
      }
      if (svc.seed != kExperimentSeed) continue;
      int hours = static_cast<int>(c.interval / kHour);
      for (int g = 0; g < 5; ++g) {
        const Golden& gold = svc.golden[g];
        if (gold.hours != hours) continue;
        std::int64_t want = c.strategy == "Jupiter"        ? gold.jupiter
                            : c.strategy == "Extra(0,0.2)" ? gold.extra0
                                                           : gold.extra2;
        if (o.inject_fault && &c == &ref[0][0]) want += 1;
        std::int64_t got = cents(c.result.cost);
        if (got != want) {
          char buf[160];
          std::snprintf(buf, sizeof buf, "%s %s @%dh: $%lld.%02lld, EXPERIMENTS.md says $%lld.%02lld",
                        svc.name, c.strategy.c_str(), hours,
                        static_cast<long long>(got / 100), static_cast<long long>(got % 100),
                        static_cast<long long>(want / 100), static_cast<long long>(want % 100));
          r.check(false, buf);
        }
      }
    }
  }
  std::size_t cells = 0;
  for (const auto& v : ref) cells += v.size();
  const double service_weeks = static_cast<double>(cells) * window_weeks;
  const double sim_service_s = service_weeks * static_cast<double>(kWeek);
  std::printf("replay_11wk: %d market draw(s), %zu cells x %d weeks, %lld decisions; "
              "%zu outage intervals (latency samples); sweeps:",
              draws, cells, replay_weeks, static_cast<long long>(decisions), outages.size());
  for (double w : sweep_wall) std::printf(" %.3f", w);
  std::printf(" s; set-up min/median/max %.4f/%.4f/%.4f s\n", quantile(setup, 0),
              quantile(setup, 0.5), quantile(setup, 1));

  if (!o.trace) {
    r.set("setup_s", median(setup), "s");
    // Per market draw (its lock and storage sweeps); the median over draws
    // shrugs off a host slowdown that hits one or two.
    std::vector<double> draw_sw, draw_ops;
    for (std::size_t d = 0; d + 1 < ref.size(); d += 2) {
      double wall = sweep_wall[d] + sweep_wall[d + 1];
      std::int64_t n = 0;
      for (std::size_t s = d; s < d + 2; ++s) {
        for (const SweepCell& c : ref[s]) n += c.result.decisions;
      }
      draw_sw.push_back(static_cast<double>(ref[d].size() + ref[d + 1].size()) * window_weeks / wall);
      draw_ops.push_back(static_cast<double>(n) / wall);
    }
    r.set("service_weeks_per_s", median(draw_sw), "svc_wk/s");
    r.set("ops_per_s", median(draw_ops), "1/s");
    r.set("ops_per_sim_s", static_cast<double>(decisions) / sim_service_s, "1/sim_s");
    r.set("latency_p50_sim_s", grouped_quantile(outages, 0.5), "sim_s");
    r.set("latency_p99_sim_s", grouped_quantile(outages, 0.99), "sim_s");
    r.set("ok_ratio", r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0, "ratio");
    r.set("jupiter_cost_ratio", jup_cost.dollars() / jup_base, "ratio");
    r.set("jupiter_availability",
          jup_elapsed > 0 ? 1.0 - static_cast<double>(jup_down) / static_cast<double>(jup_elapsed) : 0.0,
          "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run ----------------------------------------------------------
  // Pass A (above): run_sweep untraced — pool utilisation and the reference.
  const double wall_a = measured;
  const double threads = static_cast<double>(global_pool().size());

  // Pass B: the same cells fanned out on the same pool, every decide traced.
  // Like run_sweep, one fan-out per service.
  std::vector<Cell> cell_list = cells_of(sweep, static_cast<int>(svcs.size()));
  std::vector<CellRun> traced(cell_list.size());
  const std::size_t per_service = cell_list.size() / svcs.size();
  double tb0 = wall_now();
  for (std::size_t s = 0; s < svcs.size(); ++s) {
    Scope pass(tr, "sweep_traced");
    std::uint64_t pid = pass.id();
    parallel_for(global_pool(), per_service, [&](std::size_t i) {
      std::size_t at = s * per_service + i;
      traced[at] = run_cell(svcs[s].sc, svcs[s].spec, cell_list[at], &tr, pid);
    });
  }
  const double wall_b = wall_now() - tb0;

  // Pass C: cells one at a time, untraced — the sweep's serial reference.
  std::vector<double> serial_wall;
  for (const Cell& c : cell_list) {
    const Service& svc = svcs[static_cast<std::size_t>(c.service)];
    serial_wall.push_back(run_cell(svc.sc, svc.spec, c, nullptr, 0).wall);
  }
  double serial_total = 0, serial_max = 0;
  for (double w : serial_wall) {
    serial_total += w;
    serial_max = std::max(serial_max, w);
  }

  // The traced cells must reproduce run_sweep exactly.
  std::size_t k = 0;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    for (const SweepCell& c : ref[s]) {
      r.check(same(c.result, traced[k].result),
              std::string(svcs[s].name) + " " + c.strategy + ": traced cell differs from run_sweep");
      ++k;
    }
  }

  std::vector<double> jup_us;
  double decide_all = 0, cell_all = 0, h1_sum = 0, h12_sum = 0;
  std::size_t h1_n = 0, h12_n = 0;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < cell_list.size(); ++i) {
    const CellRun& cr = traced[i];
    cell_all += cr.wall;
    for (double d : cr.decide_s) {
      decide_all += d;
      if (!cell_list[i].jupiter) continue;
      jup_us.push_back(d * 1e6);
      if (cell_list[i].interval == kHour) {
        h1_sum += d * 1e6;
        ++h1_n;
      } else if (cell_list[i].interval == 12 * kHour) {
        h12_sum += d * 1e6;
        ++h12_n;
      }
    }
    hits += cr.cache.hits;
    misses += cr.cache.misses;
  }
  r.set("core.decide.calls", static_cast<double>(jup_us.size()), "count");
  r.set("core.decide.p50_us", quantile(jup_us, 0.5), "us");
  r.set("core.decide.p99_us", quantile(jup_us, 0.99), "us");
  r.set("core.decide.mean_us.h1", h1_n ? h1_sum / static_cast<double>(h1_n) : 0, "us");
  r.set("core.decide.mean_us.h12", h12_n ? h12_sum / static_cast<double>(h12_n) : 0, "us");
  r.set("core.decide.share", cell_all > 0 ? decide_all / cell_all : 0, "ratio");
  r.set("core.cache_hit_rate",
        hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0, "ratio");
  r.set("replay.self_s", tr.self_seconds("cell"), "s");
  r.set("replay.cell_imbalance",
        serial_total > 0 ? serial_max / (serial_total / static_cast<double>(serial_wall.size())) : 0,
        "ratio");
  r.set("util.pool.cpu_util", cpu_a.total() / (wall_a * threads), "ratio");
  r.set("util.pool.cpu_s_per_service_week", cpu_a.total() / service_weeks, "s");
  r.set("util.pool.speedup", serial_total / wall_a, "ratio");
  r.set("proc.sys_cpu_share", cpu_a.total() > 0 ? cpu_a.sys / cpu_a.total() : 0, "ratio");
  r.set("latency.samples", static_cast<double>(outages.size()), "count");
  r.set("trace.overhead", wall_b / wall_a - 1.0, "ratio");
  r.not_measured({"fleet", "sim", "paxos", "ec", "storage", "lock"});
  std::printf("replay_11wk trace: run_sweep %.3f s, traced cells %.3f s, serial cells %.3f s "
              "on %.0f threads\n", wall_a, wall_b, serial_total, threads);
}

}  // namespace jbench
