// fleet_1000: run_fleet with 1000 services x 1 week (2 weeks of history),
// the default strategy mix, records off.
//
// Why: the same decide() runs under endogenous prices that keep invalidating
// the model caches, across 4 cluster partitions with a nested parallel_for.
// It is the scale layer; it also emits thousands of fallback WARN lines,
// which are counted here rather than silenced.
#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "replay/workloads.hpp"

namespace jbench {
namespace {

using namespace jupiter;

// Default-seed fingerprints of the fleets this workload runs.
constexpr std::uint64_t kFingerprint1000 = 0x7EABF04D0C35C953ULL;
constexpr std::uint64_t kFingerprintQuick = 0x46B5DD7A3C1EFF82ULL;  // 100 services

struct FleetRun {
  fleet::FleetReport report;
  double wall = 0;
  CpuTimes cpu;
  std::int64_t log_lines = 0;
};

FleetRun run_once(const fleet::FleetOptions& opts,
                  const std::vector<fleet::ServiceConfig>& configs,
                  const Options& o, ThreadPool* pool) {
  FleetRun out;
  std::int64_t l0 = log_lines(o);
  CpuTimes c0 = cpu_now();
  double t0 = wall_now();
  out.report = fleet::run_fleet(opts, configs, pool);
  out.wall = wall_now() - t0;
  CpuTimes c1 = cpu_now();
  out.cpu = {c1.user - c0.user, c1.sys - c0.sys};
  out.log_lines = log_lines(o) - l0;
  return out;
}

/// ns per market clearing, timed alone: one SpotMarket over a synthetic
/// baseline cleared epoch by epoch with a 40-bid ladder (about the
/// per-market demand of the 1000-service fleet).
double clearing_ns() {
  std::vector<int> zones{0};
  TraceBook baseline = TraceBook::synthetic(zones, InstanceKind::kM1Small, SimTime::zero(),
                                            SimTime::zero() + 20 * kWeek, 99);
  TraceBook shared;
  shared.set(0, InstanceKind::kM1Small,
             baseline.trace(0, InstanceKind::kM1Small)
                 .slice(SimTime::zero(), SimTime::zero() + kDay));
  fleet::SpotMarket market(0, InstanceKind::kM1Small, &baseline.trace(0, InstanceKind::kM1Small),
                           shared.mutable_trace(0, InstanceKind::kM1Small),
                           fleet::SupplyCurve::standard(52, PriceTick(120)));
  std::vector<PriceTick> ladder;
  for (int i = 0; i < 40; ++i) ladder.push_back(PriceTick(20 + i * 3));
  int epochs = 0;
  double t0 = wall_now();
  for (SimTime t = SimTime::zero() + kDay; t < SimTime::zero() + 19 * kWeek; t += kHour) {
    market.advance_to(t);
    market.clear(t, ladder, false);
    ++epochs;
  }
  return epochs > 0 ? (wall_now() - t0) * 1e9 / epochs : 0;
}

}  // namespace

void run_fleet_workload(const Options& o, Tracer& tr, Result& r) {
  // One market draw moves the throughput by more than run-to-run noise
  // does, so a run averages over several fleets: the seed's own plus
  // fleets from seeds derived from it, one per 4 s of --seconds (a fleet
  // takes 3.5-5 s on a 4-core host).
  const int draws = o.trace || o.quick ? 1 : std::max(1, static_cast<int>(o.seconds / 4));
  std::vector<fleet::FleetOptions> fleets;
  for (int k = 0; k < draws; ++k) {
    fleet::FleetOptions opts;
    opts.services = o.quick ? 100 : 1000;
    opts.horizon = kWeek;
    opts.history = 2 * kWeek;
    opts.seed = k == 0 ? o.seed : derive_seed(o.seed, static_cast<std::uint64_t>(k));
    opts.keep_instance_records = false;
    opts.keep_clearing_records = false;
    fleets.push_back(opts);
  }
  const double weeks_per_fleet =
      fleets[0].services * static_cast<double>(fleets[0].horizon) / kWeek;
  const double service_weeks = weeks_per_fleet * draws;

  // Set-up: expanding the options into per-service configs.  It takes
  // under a millisecond, and the host's speed drifts over seconds, so it is
  // repeated 10 times before each fleet (the same inputs each time) and the
  // median over the run is reported.
  std::vector<double> setup;
  std::vector<std::vector<fleet::ServiceConfig>> configs(fleets.size());
  std::vector<FleetRun> runs;
  for (std::size_t k = 0; k < fleets.size(); ++k) {
    for (int rep = 0; rep < 10; ++rep) {
      Scope span(tr, "fleet_configs");
      double t0 = wall_now();
      for (std::size_t j = 0; j < fleets.size(); ++j) configs[j] = fleet::make_fleet_services(fleets[j]);
      setup.push_back(wall_now() - t0);
    }
    Scope span(tr, "run_fleet");
    runs.push_back(run_once(fleets[k], configs[k], o, nullptr));
  }
  double measured = 0;
  for (const FleetRun& fr : runs) measured += fr.wall;

  // Output checks on every fleet.
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const fleet::FleetReport& rep = runs[k].report;
    std::string why;
    bool ok = rep.internally_consistent(&why);
    r.check(ok, "fleet report inconsistent: " + why);
    std::uint64_t want = 0;
    if (fleets[k].seed == kExperimentSeed) want = o.quick ? kFingerprintQuick : kFingerprint1000;
    if (o.inject_fault && k == 0) want ^= 1;
    std::uint64_t fp = rep.fingerprint();
    if (want != 0 && fp != want) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "fleet fingerprint 0x%016llX, expected 0x%016llX",
                    static_cast<unsigned long long>(fp), static_cast<unsigned long long>(want));
      r.check(false, buf);
      ok = false;
    }
    r.attempted += static_cast<std::int64_t>(rep.services.size());
    if (!ok) r.failed += static_cast<std::int64_t>(rep.services.size());
  }
  const fleet::FleetReport& ref = runs.front().report;
  std::printf("fleet_1000: %d fleet(s) of %d services, first fingerprint 0x%016llX; runs:", draws,
              fleets[0].services, static_cast<unsigned long long>(ref.fingerprint()));
  for (const FleetRun& fr : runs) std::printf(" %.3f", fr.wall);
  std::printf(" s; set-up min/median/max %.6f/%.6f/%.6f s\n", quantile(setup, 0),
              quantile(setup, 0.5), quantile(setup, 1));

  std::int64_t decisions = 0, launches = 0, oob = 0, never_ran = 0;
  std::int64_t jup_down = 0, jup_elapsed = 0;
  double jup_cost = 0, jup_base = 0;
  std::uint64_t clearings = 0;
  std::vector<std::int64_t> outages;
  for (const FleetRun& fr : runs) {
    const fleet::FleetReport& rep = fr.report;
    for (std::size_t i = 0; i < rep.services.size(); ++i) {
      const fleet::ServiceResult& s = rep.services[i];
      decisions += s.decisions;
      launches += s.launches;
      oob += s.out_of_bid;
      never_ran += s.never_ran;
      for (const IntervalRecord& rec : s.timeline) {
        if (rec.downtime > 0) outages.push_back(rec.downtime);
      }
      const StrategyParams& p = rep.configs[i].strategy;
      if (p.kind == StrategyKind::kJupiter) {
        jup_cost += s.cost.dollars();
        jup_base += baseline_cost(p.spec, s.elapsed).dollars();
        jup_down += s.downtime;
        jup_elapsed += s.elapsed;
      }
    }
    for (const fleet::MarketAudit& m : rep.markets) clearings += m.total_clearings;
  }
  std::printf("fleet_1000: %lld decisions, %lld launches (%lld never ran), %zu outage "
              "intervals (latency samples)\n",
              static_cast<long long>(decisions), static_cast<long long>(launches),
              static_cast<long long>(never_ran), outages.size());

  if (!o.trace) {
    r.set("setup_s", median(setup), "s");
    // Totals over all fleets: the markets differ by about 15% in work, and
    // the mean averages that more efficiently than a median would.
    r.set("service_weeks_per_s", service_weeks / measured, "svc_wk/s");
    r.set("ops_per_s", static_cast<double>(decisions) / measured, "1/s");
    r.set("ops_per_sim_s",
          static_cast<double>(decisions) / (service_weeks * static_cast<double>(kWeek)), "1/sim_s");
    r.set("latency_p50_sim_s", grouped_quantile(outages, 0.5), "sim_s");
    r.set("latency_p99_sim_s", grouped_quantile(outages, 0.99), "sim_s");
    // A launch the market rationed away never ran: a refused op.
    r.set("ok_ratio",
          launches > 0 ? 1.0 - static_cast<double>(never_ran) / static_cast<double>(launches) : 0.0,
          "ratio");
    r.set("jupiter_cost_ratio", jup_base > 0 ? jup_cost / jup_base : 0, "ratio");
    r.set("jupiter_availability",
          jup_elapsed > 0 ? 1.0 - static_cast<double>(jup_down) / static_cast<double>(jup_elapsed) : 0,
          "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run ----------------------------------------------------------
  // The traced pass above is one span around run_fleet; repeat it untraced on
  // the same pool for the overhead, then on a 1-thread pool for the speedup.
  const FleetRun& a = runs.front();
  FleetRun plain = run_once(fleets[0], configs[0], o, nullptr);
  ThreadPool one(1);
  FleetRun serial = run_once(fleets[0], configs[0], o, &one);
  r.check(plain.report.fingerprint() == ref.fingerprint() &&
              serial.report.fingerprint() == ref.fingerprint(),
          "fleet fingerprint depends on the run or the pool size");
  const double threads = static_cast<double>(global_pool().size());
  double per_clear = clearing_ns();

  r.set("util.pool.cpu_util", plain.cpu.total() / (plain.wall * threads), "ratio");
  r.set("util.pool.cpu_s_per_service_week", plain.cpu.total() / service_weeks, "s");
  r.set("util.pool.speedup", serial.wall / plain.wall, "ratio");
  r.set("fleet.decisions", static_cast<double>(decisions), "count");
  r.set("fleet.clearings", static_cast<double>(clearings), "count");
  r.set("fleet.launches", static_cast<double>(launches), "count");
  r.set("fleet.out_of_bid", static_cast<double>(oob), "count");
  r.set("fleet.clear_share_computed", static_cast<double>(clearings) * per_clear * 1e-9 / plain.wall,
        "ratio");
  r.set("fleet.log_lines", static_cast<double>(a.log_lines), "count");
  r.set("sim.events", static_cast<double>(ref.events_dispatched), "count");
  r.set("sim.events_per_op",
        decisions > 0 ? static_cast<double>(ref.events_dispatched) / static_cast<double>(decisions) : 0,
        "ratio");
  // FleetReport sums the dispatched events of the cluster simulators but
  // keeps no queue depth.
  r.set("sim.peak_pending", 0, "count");
  r.set("proc.sys_cpu_share", plain.cpu.total() > 0 ? plain.cpu.sys / plain.cpu.total() : 0, "ratio");
  r.set("latency.samples", static_cast<double>(outages.size()), "count");
  r.set("trace.overhead", a.wall / plain.wall - 1.0, "ratio");
  // The fleet runs decide(), but the core metrics are taken on replay_11wk.
  r.not_measured({"core", "replay", "paxos", "ec", "storage", "lock"});
  std::printf("fleet_1000 trace: traced %.3f s, untraced %.3f s, 1-thread pool %.3f s, "
              "clear %.0f ns x %llu, %lld log lines\n",
              a.wall, plain.wall, serial.wall, per_clear, static_cast<unsigned long long>(clearings),
              static_cast<long long>(a.log_lines));
}

}  // namespace jbench
