// Umbrella header: the public surface of the Jupiter library.
//
// The paper's pipeline, end to end:
//   market  — spot price traces, the semi-Markov price model, billing rules
//   cloud   — EC2-shaped regions/types/prices and the instance lifecycle
//   quorum  — acceptance sets and availability theory (Eq. 1, Eq. 11)
//   core    — the contribution: failure model, online bidder, strategies
//   ec      — GF(256) Reed-Solomon coding
//   paxos   — multi-Paxos SMR and RS-Paxos
//   lock    — the Chubby-style lock service
//   storage — the erasure-coded KV store
//   replay  — scenarios, the instance lifecycle shared by the trace-replay
//             engine and the live bidding framework, sweeps and reports
#pragma once

#include "cloud/instance_type.hpp"
#include "cloud/provider.hpp"
#include "cloud/region.hpp"
#include "cloud/trace_book.hpp"
#include "core/failure_model.hpp"
#include "core/market_state.hpp"
#include "core/online_bidder.hpp"
#include "core/service_spec.hpp"
#include "core/strategies.hpp"
#include "ec/gf256.hpp"
#include "ec/gf_matrix.hpp"
#include "ec/reed_solomon.hpp"
#include "lock/lock_service.hpp"
#include "market/billing.hpp"
#include "market/price_process.hpp"
#include "market/semi_markov.hpp"
#include "market/spot_trace.hpp"
#include "paxos/group.hpp"
#include "paxos/network.hpp"
#include "paxos/replica.hpp"
#include "paxos/types.hpp"
#include "quorum/acceptance_set.hpp"
#include "quorum/availability.hpp"
#include "replay/adaptive.hpp"
#include "replay/framework.hpp"
#include "replay/replay_engine.hpp"
#include "replay/report.hpp"
#include "replay/sla.hpp"
#include "replay/sweep.hpp"
#include "replay/workloads.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "storage/kv_store.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/money.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"
