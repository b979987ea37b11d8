// jbench, the Jupiter benchmark program: runs one named workload, checks its outputs,
// and prints a host/build descriptor line followed by one JSON result line.
//
//   jbench --workload <replay_11wk|fleet_1000|kv_rs_paxos|lock_paxos>
//          [--seed N] [--seconds S] [--trace 0|1] [--quick] [--inject-fault]
//          [--log-file PATH] [--out-dir DIR] [--clients N]
//
// --log-file sends the program's stderr (its log) to PATH, so log volume is
// counted instead of mixed into the output.  --out-dir receives the span
// file of a traced run.  --clients overrides the Paxos workloads' closed-loop
// client count, for the sizing sweep in perfbench/README.md.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "ec/cpu_dispatch.hpp"
#include "replay/workloads.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Held-out seed for checks on inputs the canonical figures never used.
constexpr std::uint64_t kHeldOutSeed = 20151019;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_json() {
  std::string build = JBENCH_BUILD_TYPE;
  std::string sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  sanitizer = "thread";
#endif
#endif
  std::string flags = JBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) sanitizer = "flags";
  // The EC tier and the build type move kv_rs_paxos by about 10x, so a
  // Debug or sanitizer build is never compared against an optimised one.
  bool comparable = sanitizer == "none" && build != "Debug" && !build.empty();
  const char* env_tier = std::getenv("JUPITER_EC_TIER");
  std::string out = "{\"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_threads\": " + std::to_string(jupiter::global_pool().size());
  out += ", \"ec_tier\": \"" + std::string(jupiter::gf_tier_name(jupiter::gf_active_tier())) + "\"";
  out += ", \"ec_tier_override\": " +
         (env_tier ? "\"" + json_escape(env_tier) + "\"" : std::string("null"));
  out += ", \"build_type\": \"" + json_escape(build) + "\"";
  out += ", \"compiler\": \"" + json_escape(JBENCH_COMPILER) + "\"";
  out += ", \"cxx_flags\": \"" + json_escape(flags) + "\"";
  out += ", \"sanitizer\": \"" + sanitizer + "\"";
  out += std::string(", \"comparable\": ") + (comparable ? "true" : "false") + "}";
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr, "jbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  jbench::Options o;
  o.seed = jupiter::kExperimentSeed;
  std::string log_file;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "jbench: %s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value("--workload");
    } else if (a == "--seed") {
      std::string s = value("--seed");
      o.seed = s == "default" ? jupiter::kExperimentSeed
               : s == "held-out" ? kHeldOutSeed
                                 : std::strtoull(s.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(value("--seconds"));
    } else if (a == "--trace") {
      o.trace = std::atoi(value("--trace")) != 0;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--inject-fault") {
      o.inject_fault = true;
    } else if (a == "--log-file") {
      log_file = value("--log-file");
    } else if (a == "--out-dir") {
      o.out_dir = value("--out-dir");
    } else if (a == "--clients") {
      o.clients = std::atoi(value("--clients"));
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  void (*run)(const jbench::Options&, jbench::Tracer&, jbench::Result&) = nullptr;
  if (o.workload == "replay_11wk") {
    run = jbench::run_replay;
  } else if (o.workload == "fleet_1000") {
    run = jbench::run_fleet_workload;
  } else if (o.workload == "kv_rs_paxos") {
    run = jbench::run_kv_paxos;
  } else if (o.workload == "lock_paxos") {
    run = jbench::run_lock_paxos;
  } else {
    return usage("--workload must be replay_11wk, fleet_1000, kv_rs_paxos or lock_paxos");
  }
  if (!log_file.empty()) {
    int fd = open(log_file.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
    if (fd < 0 || dup2(fd, 2) < 0) return usage("cannot open --log-file");
    o.log_fd = fd;
  }

  std::printf("host %s\n", host_json().c_str());
  std::printf("workload %s seed %llu%s%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? " traced" : "",
              o.quick ? " quick" : "");
  std::fflush(stdout);

  jbench::Tracer tracer(o.trace);
  jbench::Result result;
  double t0 = jbench::wall_now();
  run(o, tracer, result);
  if (o.trace) {
    result.set("trace.spans", static_cast<double>(tracer.size()), "count");
    std::string path = o.out_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".csv";
    if (!tracer.write(path)) result.check(false, "cannot write " + path);
    std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
  }
  std::printf("elapsed %.3f s\n", jbench::wall_now() - t0);
  for (const std::string& f : result.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.correct() ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), result.metrics_json().c_str());
  return 0;
}
