// One replay cell (a strategy at a bidding interval over one scenario),
// built as run_sweep builds it.  replay_11wk runs its cells through it, and
// the Paxos workloads replay their service's Jupiter deployment with it.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "replay/sweep.hpp"

namespace jbench {

struct Cell {
  int service = 0;  ///< index into the caller's services
  bool jupiter = false;
  int extra_nodes = 0;  ///< Extra(m, 0.2) when not Jupiter
  jupiter::TimeDelta interval = jupiter::kHour;
};

struct CellRun {
  jupiter::ReplayResult result;
  double wall = 0;
  std::vector<double> decide_s;  ///< every decide() call, traced runs only
  jupiter::TransientCache::Stats cache;
};

/// Replays cell `c` over `sc`.  With a tracer, a delegating strategy times
/// every decide() inside a "cell" span under `parent`.
CellRun run_cell(const jupiter::Scenario& sc, const jupiter::ServiceSpec& spec, const Cell& c,
                 Tracer* tr, std::uint64_t parent);

}  // namespace jbench
