// Shared pieces of jbench, the benchmark program: wall/CPU clocks, order statistics,
// the result record every workload fills, and the in-memory span tracer.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace jbench {

/// Seconds on the steady clock (wall time; never simulation time).
double wall_now();

struct CpuTimes {
  double user = 0;
  double sys = 0;
  double total() const { return user + sys; }
};
/// Process CPU time so far (all threads).
CpuTimes cpu_now();
/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// An independent seed derived from `seed` (splitmix64 of seed + salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Quantile of whole-second samples (sim-time latencies), read as grouped
/// data: each value v stands for the bucket [v - 0.5, v + 0.5) (clamped at
/// 0) and the quantile is interpolated inside its bucket.  A plain order
/// statistic would jump a whole second when a quantile sits near a bucket
/// edge; this one moves with the share of samples in each bucket.
double grouped_quantile(std::vector<std::int64_t> v, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Small inputs that still run every metric and every output check.
  bool quick = false;
  /// Corrupts one expected output so the self-check can prove the output
  /// checks are able to fail.
  bool inject_fault = false;
  /// Paxos workloads: closed-loop clients (0: the workload's default).  For
  /// sizing sweeps; the benchmark itself always runs the default.
  int clients = 0;
  std::string out_dir = ".";
  int log_fd = -1;  ///< the file stderr was redirected to (-1: none)
};

/// What one workload run reports.
class Result {
 public:
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  /// Sets every per-layer metric of `layers` (the name up to its first '.')
  /// to 0.  Each workload names the layers it does not measure, so a metric
  /// it forgets to set is missing from the output instead of reading 0.
  /// Call it last; a metric of such a layer that was set fails a check.
  void not_measured(std::initializer_list<const char*> layers);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::string metrics_json() const;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Lines written so far to the redirected stderr (the program's log).
std::int64_t log_lines(const Options& o);

// ---- tracing ---------------------------------------------------------------

/// One timed interval recorded by the benchmark around a call into a layer.
/// `op` ties together the spans of one client operation (0: none).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  const char* name = "";
  double t0 = 0;  ///< wall seconds
  double t1 = 0;
};

/// Spans kept in memory and written out when the run ends.  Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  std::uint64_t next_id();
  /// Records a finished span; returns its id (0 when tracing is off).
  std::uint64_t record(const char* name, std::uint64_t parent, double t0,
                       double t1, std::uint64_t op = 0,
                       std::uint64_t id = 0);

  std::size_t size() const;
  /// Sum over spans named `name` of duration minus the part covered by
  /// their children.
  double self_seconds(const std::string& name) const;
  /// Writes every span as CSV (id,parent,op,name,t0,t1); false on I/O error.
  bool write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
};

/// RAII span: records [construction, destruction) when tracing is on.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, std::uint64_t parent = 0,
        std::uint64_t op = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tr_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t op_;
  std::uint64_t id_;
  double t0_;
};

// ---- workloads ---------------------------------------------------------------

void run_replay(const Options& o, Tracer& tr, Result& r);
void run_fleet_workload(const Options& o, Tracer& tr, Result& r);
void run_kv_paxos(const Options& o, Tracer& tr, Result& r);
void run_lock_paxos(const Options& o, Tracer& tr, Result& r);

}  // namespace jbench
