// Uniform construction of the bidding strategies the experiments evaluate.
//
// The replay sweeps construct strategies inline; the fleet driver needs to
// build thousands of them from declarative per-service configs without
// caring which concrete class is behind each.  This factory is that seam:
// existing bidders — Jupiter's online algorithm, the Extra(m, p) heuristics
// and the on-demand baseline — plug into the fleet unchanged.
#pragma once

#include <memory>
#include <string>

#include "core/strategies.hpp"

namespace jupiter {

enum class StrategyKind : std::uint8_t {
  kJupiter,   ///< the paper's online bidding framework (JupiterStrategy)
  kExtra,     ///< Extra(m, p): m extra nodes, bid (1+p) x spot (§5.2)
  kOnDemand,  ///< the on-demand reference deployment
};

const char* strategy_kind_name(StrategyKind kind);

struct StrategyParams {
  StrategyKind kind = StrategyKind::kExtra;
  ServiceSpec spec;
  /// kExtra only.
  int extra_nodes = 0;
  double extra_portion = 0.2;
  /// kJupiter only: training-window start and bidder options.
  SimTime history_start;
  OnlineBidder::Options bidder;
  OobEstimator estimator = OobEstimator::kFirstPassage;
};

/// Builds a fresh strategy.  `book` must outlive the result (Jupiter trains
/// on it incrementally).  A Jupiter strategy given `models` reads that
/// shared book instead of training a private one; its owner advances it
/// (a fleet cluster's book follows the live endogenous trace, so the models
/// fold the fleet's own price impact back into the next decision).
std::unique_ptr<BiddingStrategy> make_strategy(
    const TraceBook& book, const StrategyParams& params,
    std::shared_ptr<const FailureModelBook> models = nullptr);

}  // namespace jupiter
