#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>


namespace jbench {

double wall_now() {
  // detlint: allow(banned-time) — benchmark wall-clock timing
  auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return CpuTimes{sec(ru.ru_utime), sec(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double grouped_quantile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  std::size_t below = 0;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double count = static_cast<double>(j - i);
    if (static_cast<double>(j) >= target || j == v.size()) {
      double lo = std::max(0.0, static_cast<double>(v[i]) - 0.5);
      double hi = static_cast<double>(v[i]) + 0.5;
      double frac = (target - static_cast<double>(below)) / count;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    below = j;
    i = j;
  }
  return static_cast<double>(v.back());
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

namespace {

struct LayerMetric {
  const char* layer;
  const char* name;
  const char* unit;
};

// The per-layer metrics of BENCHMARK.json that belong to a src/ layer.
// proc.*, latency.* and trace.* are set by every traced run.
constexpr LayerMetric kLayerMetrics[] = {
    {"core", "core.decide.calls", "count"},
    {"core", "core.decide.p50_us", "us"},
    {"core", "core.decide.p99_us", "us"},
    {"core", "core.decide.mean_us.h1", "us"},
    {"core", "core.decide.mean_us.h12", "us"},
    {"core", "core.decide.share", "ratio"},
    {"core", "core.cache_hit_rate", "ratio"},
    {"replay", "replay.self_s", "s"},
    {"replay", "replay.cell_imbalance", "ratio"},
    {"util", "util.pool.cpu_util", "ratio"},
    {"util", "util.pool.cpu_s_per_service_week", "s"},
    {"util", "util.pool.speedup", "ratio"},
    {"fleet", "fleet.decisions", "count"},
    {"fleet", "fleet.clearings", "count"},
    {"fleet", "fleet.launches", "count"},
    {"fleet", "fleet.out_of_bid", "count"},
    {"fleet", "fleet.clear_share_computed", "ratio"},
    {"fleet", "fleet.log_lines", "count"},
    {"sim", "sim.events", "count"},
    {"sim", "sim.events_per_op", "ratio"},
    {"sim", "sim.peak_pending", "count"},
    {"paxos", "paxos.msgs_per_op", "ratio"},
    {"paxos", "paxos.value_bytes_per_op", "B"},
    {"paxos", "paxos.ops_per_batch", "ratio"},
    {"paxos", "paxos.elections", "count"},
    {"paxos", "paxos.catchup_slots", "count"},
    {"paxos", "paxos.lease_read_ratio", "ratio"},
    {"paxos", "paxos.leader_availability", "ratio"},
    {"paxos", "paxos.self_s", "s"},
    {"ec", "ec.encodes_per_slot", "ratio"},
    {"ec", "ec.encode_bytes_per_op", "B"},
    {"ec", "ec.encode_s_computed", "s"},
    {"storage", "storage.apply_us", "us"},
    {"lock", "lock.apply_us", "us"},
};

}  // namespace

void Result::not_measured(std::initializer_list<const char*> layers) {
  for (const char* layer : layers) {
    bool known = false;
    for (const LayerMetric& lm : kLayerMetrics) {
      if (std::string(lm.layer) != layer) continue;
      known = true;
      for (const Metric& m : metrics_) {
        check(m.name != lm.name, m.name + " was set on a layer marked not measured");
      }
      set(lm.name, 0, lm.unit);
    }
    check(known, std::string("unknown layer ") + layer);
  }
}

std::string Result::metrics_json() const {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::int64_t log_lines(const Options& o) {
  std::fflush(stderr);
  if (o.log_fd < 0) return 0;
  std::int64_t lines = 0;
  char buf[1 << 16];
  off_t off = 0;
  for (;;) {
    ssize_t n = pread(o.log_fd, buf, sizeof buf, off);
    if (n <= 0) break;
    lines += std::count(buf, buf + n, '\n');
    off += n;
  }
  return lines;
}

// ---- tracing ---------------------------------------------------------------

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent, double t0,
                             double t1, std::uint64_t op, std::uint64_t id) {
  if (!on_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_++;
  spans_.push_back(Span{id, parent, op, name, t0, t1});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::self_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].push_back({s.t0, s.t1});
  }
  double total = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    double covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      // Children may overlap (parallel cells), so cover their union.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur0 = 0, cur1 = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (a > cur1) {
          if (cur1 > cur0) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
        } else {
          cur1 = std::max(cur1, b);
        }
      }
      if (cur1 > cur0) covered += cur1 - cur0;
    }
    total += (s.t1 - s.t0) - covered;
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "id,parent,op,name,t0_s,t1_s\n");
  double base = spans_.empty() ? 0 : spans_.front().t0;
  for (const Span& s : spans_) base = std::min(base, s.t0);
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%.9f,%.9f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name, s.t0 - base,
                 s.t1 - base);
  }
  return std::fclose(f) == 0;
}

Scope::Scope(Tracer& tr, const char* name, std::uint64_t parent,
             std::uint64_t op)
    : tr_(tr), name_(name), parent_(parent), op_(op),
      id_(tr.on() ? tr.next_id() : 0), t0_(tr.on() ? wall_now() : 0) {}

Scope::~Scope() {
  if (tr_.on()) tr_.record(name_, parent_, t0_, wall_now(), op_, id_);
}

}  // namespace jbench
