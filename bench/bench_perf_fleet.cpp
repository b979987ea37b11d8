// Fleet-scale throughput guardrail (ISSUE 7): how many service-weeks of
// endogenous-market fleet simulation one wall-second buys, at fleet sizes
// 10 / 100 / 1000, plus the market-clearing overhead in isolation.
//
// Workload: run_fleet with the default heterogeneous mix (60/40
// lock/storage, 15% Jupiter + 10% adaptive + 5% on-demand + 70% Extra) over
// a 1-week window with 2 weeks of training history, records off — the
// configuration the acceptance criterion names (>= 1000 services x 1 week
// under 120 s wall).
//
// Transient DP runs: the failure-model analyses the run performed (the
// transient-cache misses of the clusters' shared books), reported per fleet
// size under "volatile" — the count moves with pool scheduling, the
// fingerprint does not.
//
// Clearing overhead: the uniform-price clear of one epoch is measured in
// isolation on a representative bid ladder, and its cost is extrapolated
// over every clearing the largest fleet run performed — reported as a
// percentage of that run's wall time.
//
// Guardrail (enforced by exit code, sim-core bench pattern): the largest
// run's service-weeks/wall-second must stay within 20% of the recorded
// baseline below.  Regenerate the baseline only for an intentional
// performance trade, never to paper over a regression.
//
// Run from the build directory:
//   ./bench/bench_perf_fleet [--smoke] [out.json]
#include <chrono>  // detlint: allow(banned-time) — wall-clock benchmark timing
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

using namespace jupiter;

namespace {

// Recorded on the reference single-core CI container (GCC 12, -O2).
// Full mode measures the 1000-service run, smoke the 100-service run.
constexpr double kBaselineServiceWeeksPerSec = 65.0;
constexpr double kRegressionFloor = 0.8;  // fail below baseline * floor

struct RunStats {
  int services = 0;
  double weeks = 0;
  double wall_s = 0;
  double rate = 0;  ///< service-weeks per wall-second
  std::uint64_t clearings = 0;
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  /// Transient DP runs over the shared failure models.  Volatile (the pool
  /// decides whether a lazy threshold or a whole-curve prime fills a memo
  /// entry first), so it stays out of the fingerprint and the guardrail.
  std::uint64_t transient_dp_runs = 0;
};

double now_s() {
  // detlint: allow(banned-time) — wall-clock benchmark timing, not sim time
  auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

RunStats run_one(int services, TimeDelta horizon) {
  fleet::FleetOptions opts;
  opts.services = services;
  opts.horizon = horizon;
  opts.history = 2 * kWeek;
  opts.keep_instance_records = false;
  opts.keep_clearing_records = false;
  double t0 = now_s();
  fleet::FleetReport report = fleet::run_fleet(opts);
  double wall = now_s() - t0;
  RunStats st;
  st.services = services;
  st.weeks = static_cast<double>(horizon) / static_cast<double>(kWeek);
  st.wall_s = wall;
  st.rate = wall > 0 ? services * st.weeks / wall : 0;
  for (const fleet::MarketAudit& m : report.markets) {
    st.clearings += m.total_clearings;
  }
  st.events = report.events_dispatched;
  st.fingerprint = report.fingerprint();
  st.transient_dp_runs = report.transient_dp_runs;
  return st;
}

/// ns per market clearing, measured in isolation: one SpotMarket over a
/// synthetic baseline, cleared epoch by epoch with a 40-bid ladder (about
/// the per-market demand of the 1000-service fleet).
double clearing_ns() {
  std::vector<int> zones{0};
  TraceBook baseline = TraceBook::synthetic(
      zones, InstanceKind::kM1Small, SimTime::zero(),
      SimTime::zero() + 20 * kWeek, 99);
  TraceBook shared;
  shared.set(0, InstanceKind::kM1Small,
             baseline.trace(0, InstanceKind::kM1Small)
                 .slice(SimTime::zero(), SimTime::zero() + kDay));
  fleet::SpotMarket market(
      0, InstanceKind::kM1Small, &baseline.trace(0, InstanceKind::kM1Small),
      shared.mutable_trace(0, InstanceKind::kM1Small),
      fleet::SupplyCurve::standard(52, PriceTick(120)));
  std::vector<PriceTick> ladder;
  for (int i = 0; i < 40; ++i) ladder.push_back(PriceTick(20 + i * 3));
  int epochs = 0;
  double t0 = now_s();
  for (SimTime t = SimTime::zero() + kDay;
       t < SimTime::zero() + 19 * kWeek; t += kHour) {
    market.advance_to(t);
    market.clear(t, ladder, false);
    ++epochs;
  }
  double wall = now_s() - t0;
  return epochs > 0 ? wall * 1e9 / epochs : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  std::vector<int> sizes = smoke ? std::vector<int>{10, 100}
                                 : std::vector<int>{10, 100, 1000};

  std::printf("fleet bench: sizes");
  for (int s : sizes) std::printf(" %d", s);
  std::printf(", 1-week window, 2-week history%s\n",
              smoke ? " (smoke)" : "");

  std::vector<RunStats> runs;
  for (int s : sizes) {
    RunStats st = run_one(s, kWeek);
    std::printf(
        "  %5d services: %6.2f s wall, %8.1f service-weeks/s, "
        "%llu clearings, %llu transient DP runs, fingerprint 0x%016llX\n",
        st.services, st.wall_s, st.rate,
        static_cast<unsigned long long>(st.clearings),
        static_cast<unsigned long long>(st.transient_dp_runs),
        static_cast<unsigned long long>(st.fingerprint));
    runs.push_back(st);
  }
  const RunStats& largest = runs.back();

  double per_clear_ns = clearing_ns();
  double overhead_pct =
      largest.wall_s > 0
          ? 100.0 * (static_cast<double>(largest.clearings) * per_clear_ns /
                     1e9) /
                largest.wall_s
          : 0;
  std::printf(
      "  clearing: %.0f ns/epoch-market in isolation; %.2f%% of the largest "
      "run's wall time\n",
      per_clear_ns, overhead_pct);

  double floor = kBaselineServiceWeeksPerSec * kRegressionFloor;
  bool rate_ok = largest.rate >= floor;
  bool budget_ok = smoke || largest.wall_s < 120.0;
  std::printf(
      "  guardrail: %.1f service-weeks/s vs floor %.1f (baseline %.1f "
      "-20%%) — %s; 1000x1wk budget %s\n",
      largest.rate, floor, kBaselineServiceWeeksPerSec,
      rate_ok ? "PASS" : "FAIL",
      smoke ? "n/a (smoke)" : (budget_ok ? "PASS" : "FAIL"));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunStats& st = runs[i];
    std::fprintf(
        f,
        "    {\"services\": %d, \"weeks\": %.2f, \"wall_s\": %.3f, "
        "\"service_weeks_per_s\": %.2f, \"clearings\": %llu, "
        "\"events\": %llu, \"fingerprint\": \"0x%016llX\", "
        "\"volatile\": {\"transient_dp_runs\": %llu}}%s\n",
        st.services, st.weeks, st.wall_s, st.rate,
        static_cast<unsigned long long>(st.clearings),
        static_cast<unsigned long long>(st.events),
        static_cast<unsigned long long>(st.fingerprint),
        static_cast<unsigned long long>(st.transient_dp_runs),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n"
      "  \"clearing\": {\"per_clearing_ns\": %.1f, "
      "\"overhead_pct_of_largest_run\": %.3f},\n"
      "  \"guardrail\": {\"baseline_service_weeks_per_s\": %.1f, "
      "\"floor\": %.1f, \"measured\": %.2f, \"pass\": %s},\n"
      "  \"smoke\": %s\n"
      "}\n",
      per_clear_ns, overhead_pct, kBaselineServiceWeeksPerSec, floor,
      largest.rate, rate_ok && budget_ok ? "true" : "false",
      smoke ? "true" : "false");
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());
  return rate_ok && budget_ok ? 0 : 1;
}
