#include "core/exhaustive_bidder.hpp"

#include <algorithm>

#include "quorum/availability.hpp"
#include "util/thread_pool.hpp"

namespace jupiter {

namespace {

struct ZoneCandidates {
  int zone;
  std::vector<std::pair<PriceTick, double>> bids;  // (bid, FP), FP ascending
};

/// Recursively assigns a bid to each selected zone, pruning on the partial
/// bid sum against the incumbent.
void search_bids(const std::vector<const ZoneCandidates*>& picked,
                 std::size_t idx, Money partial_sum,
                 std::vector<std::pair<PriceTick, double>>& chosen,
                 int tolerate, double target, Money& best_sum,
                 std::vector<BidDecision::Entry>& best_entries,
                 double& best_avail, std::uint64_t& budget) {
  if (budget == 0) return;
  if (!best_entries.empty() && partial_sum >= best_sum) return;  // prune
  if (idx == picked.size()) {
    --budget;
    std::vector<double> fps;
    fps.reserve(chosen.size());
    for (const auto& [bid, fp] : chosen) fps.push_back(fp);
    double avail = availability_tolerate(fps, tolerate);
    if (avail < target) return;
    if (best_entries.empty() || partial_sum < best_sum) {
      best_sum = partial_sum;
      best_avail = avail;
      best_entries.clear();
      for (std::size_t i = 0; i < picked.size(); ++i) {
        best_entries.push_back(BidDecision::Entry{
            picked[i]->zone, chosen[i].first, chosen[i].second});
      }
    }
    return;
  }
  for (const auto& cand : picked[idx]->bids) {
    chosen[idx] = cand;
    search_bids(picked, idx + 1, partial_sum + cand.first.money(), chosen,
                tolerate, target, best_sum, best_entries, best_avail, budget);
    if (budget == 0) return;
  }
}

void search_subsets(const std::vector<ZoneCandidates>& zones,
                    std::size_t start,
                    std::vector<const ZoneCandidates*>& picked, int n,
                    int tolerate, double target, Money& best_sum,
                    std::vector<BidDecision::Entry>& best_entries,
                    double& best_avail, std::uint64_t& budget) {
  if (budget == 0) return;
  if (static_cast<int>(picked.size()) == n) {
    std::vector<std::pair<PriceTick, double>> chosen(picked.size());
    search_bids(picked, 0, Money(0), chosen, tolerate, target, best_sum,
                best_entries, best_avail, budget);
    return;
  }
  if (start >= zones.size()) return;
  if (static_cast<int>(zones.size() - start + picked.size()) < n) {
    return;  // not enough zones left to reach n
  }
  picked.push_back(&zones[start]);
  search_subsets(zones, start + 1, picked, n, tolerate, target, best_sum,
                 best_entries, best_avail, budget);
  picked.pop_back();
  search_subsets(zones, start + 1, picked, n, tolerate, target, best_sum,
                 best_entries, best_avail, budget);
}

}  // namespace

std::optional<BidDecision> exhaustive_decide(const FailureModelBook& models,
                                             const MarketSnapshot& snapshot,
                                             const ServiceSpec& spec,
                                             const ExhaustiveOptions& opts) {
  // Candidate bids per zone: every state price in [current, on-demand) —
  // the FP step function is constant between them, so the optimum lies on
  // one of these (or nowhere).
  std::vector<ZoneCandidates> zones;
  for (const auto& st : snapshot) {
    if (!models.has(st.zone)) continue;
    const ZoneFailureModel& model = models.model(st.zone);
    BidCurve curve =
        model.bid_curve(st, opts.horizon_minutes, FpQuery{spec.baseline_fp});
    // The loop below probes every candidate threshold; fill the whole
    // first-passage curve with one batched transient analysis up front.
    curve.prime_all();
    ZoneCandidates zc;
    zc.zone = st.zone;
    for (std::size_t i = 0; i < curve.prices().size(); ++i) {
      PriceTick bid = curve.prices()[i];
      if (bid < st.price) continue;
      if (bid >= std::min(model.on_demand(), st.on_demand)) break;
      zc.bids.emplace_back(bid, curve.fp_at(bid));
    }
    if (!zc.bids.empty()) zones.push_back(std::move(zc));
  }
  if (zones.empty()) return std::nullopt;

  double target = spec.target_availability() - spec.epsilon;

  // Partition the enumeration into independent tasks — one per (subset size
  // n, smallest selected zone index) pair — and run them on the process
  // pool.  Each task owns its incumbent and combination budget, so workers
  // never synchronize; the merge below scans tasks in their sequential
  // enumeration order and replaces the incumbent only on a strictly smaller
  // bid sum, which reproduces the single-threaded winner exactly regardless
  // of scheduling.
  struct Task {
    int n;
    std::size_t first;
    int tolerate;
  };
  struct TaskResult {
    Money best_sum = Money(INT64_MAX);
    std::vector<BidDecision::Entry> entries;
    double avail = 0;
  };
  std::vector<Task> tasks;
  int max_n = std::min<int>(opts.max_nodes, static_cast<int>(zones.size()));
  for (int n = spec.min_nodes(); n <= max_n; ++n) {
    int tol = spec.tolerate(n);
    if (tol < 0) continue;
    for (std::size_t first = 0;
         first + static_cast<std::size_t>(n) <= zones.size(); ++first) {
      tasks.push_back(Task{n, first, tol});
    }
  }
  if (tasks.empty()) return std::nullopt;

  std::vector<TaskResult> results(tasks.size());
  // par: owned — each task writes only its own results[t] slot
  parallel_for(global_pool(), tasks.size(), [&](std::size_t t) {
    const Task& task = tasks[t];
    TaskResult& r = results[t];
    std::uint64_t budget = opts.max_combinations;
    std::vector<const ZoneCandidates*> picked;
    picked.push_back(&zones[task.first]);
    search_subsets(zones, task.first + 1, picked, task.n, task.tolerate,
                   target, r.best_sum, r.entries, r.avail, budget);
  });

  Money best_sum = Money(INT64_MAX);
  std::vector<BidDecision::Entry> best_entries;
  double best_avail = 0;
  for (auto& r : results) {
    if (r.entries.empty()) continue;
    if (best_entries.empty() || r.best_sum < best_sum) {
      best_sum = r.best_sum;
      best_entries = std::move(r.entries);
      best_avail = r.avail;
    }
  }
  if (best_entries.empty()) return std::nullopt;

  BidDecision d;
  d.bids = std::move(best_entries);
  std::sort(d.bids.begin(), d.bids.end(),
            [](const BidDecision::Entry& a, const BidDecision::Entry& b) {
              return a.bid < b.bid;
            });
  for (const auto& e : d.bids) d.bid_sum += e.bid.money();
  d.estimated_availability = best_avail;
  d.satisfies_constraint = true;
  return d;
}

}  // namespace jupiter
