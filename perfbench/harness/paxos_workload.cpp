// The two Paxos workloads: closed loops of clients driving a 5-replica
// ClusterHarness with the full data plane on (pipelining, batching, leader
// leases, fast catch-up), in simulated time.
//
// kv_rs_paxos: RS-Paxos theta(3,5) KV store; 256 clients issue 4 KiB puts
//   (80%) and gets (20%) over 1024 shared keys.  No faults.  Why: erasure
//   coding does the heavy work, and the lease-read path runs beside the
//   writes, so a write-path gain that costs reads shows up.
// lock_paxos: the lock service on classic Multi-Paxos; 256 sessions acquire
//   and release 64 contended paths (and read owners 20% of the time) while
//   replicas, leader included, are crashed and restarted on a seeded
//   out-of-bid schedule.  Why: sim dispatch and Paxos handlers do the work
//   and ec does none; the kills exercise election and catch-up.
//
// Each round builds a fresh cluster from the seed, so every round does the
// same work; the round is timed from the first client op to the end of the
// simulated horizon.  A client op that sees no reply within kRetryAfter
// sim-seconds (its leader crashed) is resubmitted; an op still unanswered
// after kGiveUp counts as failed.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "common.hpp"
#include "ec/reed_solomon.hpp"
#include "lock/lock_service.hpp"
#include "obs/obs.hpp"
#include "paxos/harness.hpp"
#include "replay_cell.hpp"
#include "storage/kv_store.hpp"
#include "util/rng.hpp"

namespace jbench {
namespace {

using namespace jupiter;
using namespace jupiter::paxos;

// Sizing (measured; table in perfbench/README.md): at 256 clients the kv
// batches reach 52.6 of the ~62 ops the 256 KiB batch cap allows, and wall
// throughput is at its peak; lock batches sit at their 64-op cap from 64
// clients on.  The mix, keys and paths are stated assumptions, not the
// paper's: write-heavy so the ec write path dominates, with enough reads
// for the lease path to run, and 4 sessions per lock path so acquires
// contend.
constexpr int kClients = 256;
constexpr int kKeys = 1024;
constexpr int kPaths = 64;
constexpr std::size_t kPutBytes = 4096;
constexpr TimeDelta kRetryAfter = 10;
constexpr TimeDelta kGiveUp = 120;
constexpr TimeDelta kDrain = 300;

/// Delegates to the service's state machine and times apply() calls.
class TimedSm : public StateMachine {
 public:
  using OpOf = std::function<std::uint64_t(const std::vector<std::uint8_t>&)>;
  TimedSm(std::unique_ptr<StateMachine> inner, Tracer& tr, std::uint64_t& parent,
          const char* name, OpOf op_of, double& apply_s, std::int64_t& applies)
      : inner_(std::move(inner)), tr_(tr), parent_(parent), name_(name),
        op_of_(std::move(op_of)), apply_s_(apply_s), applies_(applies) {}

  std::vector<std::uint8_t> apply(const std::vector<std::uint8_t>& command) override {
    double t0 = wall_now();
    auto out = inner_->apply(command);
    double t1 = wall_now();
    apply_s_ += t1 - t0;
    ++applies_;
    tr_.record(name_, parent_, t0, t1, op_of_(command));
    return out;
  }
  void apply_chunk(const Value& value) override {
    double t0 = wall_now();
    inner_->apply_chunk(value);
    double t1 = wall_now();
    tr_.record("apply_chunk", parent_, t0, t1);
  }
  std::optional<std::vector<std::uint8_t>> read(const std::vector<std::uint8_t>& q) override {
    return inner_->read(q);
  }

 private:
  std::unique_ptr<StateMachine> inner_;
  Tracer& tr_;
  std::uint64_t& parent_;
  const char* name_;
  OpOf op_of_;
  double& apply_s_;
  std::int64_t& applies_;
};

/// One closed-loop client's current logical operation.
struct ClientOp {
  std::uint64_t id = 0;  ///< benchmark-wide op id (0: idle)
  int attempt = 0;       ///< bumps on resubmission; stale replies are ignored
  bool retried = false;
  SimTime first_submit;
  SimTime last_submit;
  double wall_submit = 0;
};

struct RoundStats {
  double setup_s = 0;
  double wall = 0;
  CpuTimes cpu;
  std::int64_t attempted = 0;
  std::int64_t committed = 0;  ///< acked within the horizon
  std::int64_t completed = 0;  ///< acked at any time, drain included
  std::int64_t first_try = 0;  ///< completed without a resubmission
  std::int64_t failed = 0;
  std::int64_t gets = 0;
  std::int64_t lease_reads = 0;
  std::vector<std::int64_t> latency;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::uint64_t msgs = 0;
  std::uint64_t value_bytes = 0;
  std::int64_t batches = 0;
  std::int64_t batched_ops = 0;
  std::int64_t elections = 0;
  std::int64_t catchup = 0;
  std::int64_t slots = 0;
  std::int64_t up_samples = 0;
  std::int64_t samples = 0;
  std::uint64_t encodes = 0;
  std::uint64_t encode_bytes = 0;
  double apply_s = 0;
  std::int64_t applies = 0;
  std::uint64_t digest = 0;  ///< determinism fingerprint of the round
};

/// What differs between the two Paxos workloads.
struct Workload {
  const char* name;
  bool rs = false;
  bool kills = false;
  TimeDelta horizon = 60;
};

class PaxosRound {
 public:
  PaxosRound(const Workload& w, const Options& o, std::uint64_t seed, Tracer& tr, Result& r,
             bool traced)
      : w_(w), o_(o), seed_(seed), tr_(tr), r_(r), traced_(traced),
        clients_(o.clients > 0 ? o.clients : kClients), rng_(derive_seed(seed, 7)) {}

  RoundStats run();

 private:
  ClusterHarness::Options cluster_options() const;
  Group::SmFactory factory();
  void issue(int c);
  void submit(int c);
  void complete(int c, std::uint64_t id, int attempt, bool ok, bool held_by_other);
  void late_lock_reply(int c, int kind, int key, lock::LockStatus status);
  void tick();
  void schedule_kills();
  void final_checks();
  std::uint64_t op_of_command(NodeId node, const std::vector<std::uint8_t>& cmd) const;

  const Workload& w_;
  const Options& o_;
  std::uint64_t seed_;  ///< this round's cluster, client and kill streams
  Tracer& tr_;
  Result& r_;
  bool traced_;
  int clients_;
  Rng rng_;
  std::unique_ptr<ClusterHarness> cl_;
  std::unique_ptr<storage::KvClient> kv_;
  std::vector<std::unique_ptr<lock::LockClient>> locks_;
  std::vector<ClientOp> ops_;
  std::vector<int> client_key_;  ///< the key/path the client's op targets
  std::vector<int> client_kind_; ///< 0 put/acquire, 1 get/get_owner, 2 release
  std::vector<int> holding_;     ///< lock: path the client holds (-1 none)
  std::vector<bool> releasing_;  ///< lock: a release of holding_ is in flight
  std::vector<int> holder_;      ///< lock: client-view owner of each path
  std::vector<std::uint64_t> last_acked_;  ///< kv: last acked put tag per key
  std::uint64_t next_op_ = 1;
  std::uint64_t phase_span_ = 0;
  SimTime start_, end_;
  bool stopping_ = false;
  int outstanding_ = 0;
  bool in_issue_ = false;
  std::vector<int> ready_;
  RoundStats st_;
};

ClusterHarness::Options PaxosRound::cluster_options() const {
  ClusterHarness::Options co;
  if (w_.rs) {
    co.replica.policy.kind = QuorumPolicy::Kind::kRsPaxos;
    co.replica.policy.rs_m = 3;
  }
  DataPlaneOptions plane;
  plane.pipeline = true;
  plane.batching = true;
  plane.leases = true;
  plane.fast_catchup = true;
  co.replica.plane = plane;
  co.net_seed = derive_seed(seed_, 1);
  co.group_seed = derive_seed(seed_, 2);
  co.settle = 30;
  return co;
}

// The op a command belongs to, for span attribution.  A put carries its op
// id in the value.  A lock command names only its session, whose current op
// it is only when the leader applies it (followers apply after the ack,
// when the session may have moved on), so follower applies get no op.
std::uint64_t PaxosRound::op_of_command(NodeId node, const std::vector<std::uint8_t>& cmd) const {
  if (w_.rs) {
    storage::KvCommand c = storage::KvCommand::decode(cmd);
    std::uint64_t tag = 0;
    if (c.value.size() >= 16) std::memcpy(&tag, c.value.data() + 8, 8);
    return tag;
  }
  if (node != cl_->group.leader_id()) return 0;
  lock::LockCommand c = lock::LockCommand::decode(cmd);
  if (c.session.size() > 1) {
    int idx = std::atoi(c.session.c_str() + 1);
    if (idx >= 0 && idx < clients_) return ops_[static_cast<std::size_t>(idx)].id;
  }
  return 0;
}

Group::SmFactory PaxosRound::factory() {
  bool rs = w_.rs;
  if (!traced_) {
    return [rs](NodeId) -> std::unique_ptr<StateMachine> {
      if (rs) return std::make_unique<storage::KvStoreState>();
      return std::make_unique<lock::LockServiceState>();
    };
  }
  return [this, rs](NodeId node) -> std::unique_ptr<StateMachine> {
    std::unique_ptr<StateMachine> inner;
    if (rs) {
      inner = std::make_unique<storage::KvStoreState>();
    } else {
      inner = std::make_unique<lock::LockServiceState>();
    }
    return std::make_unique<TimedSm>(
        std::move(inner), tr_, phase_span_, rs ? "storage_apply" : "lock_apply",
        [this, node](const std::vector<std::uint8_t>& c) { return op_of_command(node, c); },
        st_.apply_s,
        st_.applies);
  };
}

// Starts the client's next logical op.  Lease reads answer synchronously, so
// completions queue the client in ready_ and this loop drains it instead of
// recursing.
void PaxosRound::issue(int c) {
  ready_.push_back(c);
  if (in_issue_) return;
  in_issue_ = true;
  while (!ready_.empty()) {
    int k = ready_.back();
    ready_.pop_back();
    if (stopping_ || cl_->sim.now() >= end_) continue;
    ClientOp& op = ops_[static_cast<std::size_t>(k)];
    op.id = next_op_++;
    op.attempt = 0;
    op.retried = false;
    op.first_submit = cl_->sim.now();
    op.wall_submit = wall_now();
    ++st_.attempted;
    ++outstanding_;
    auto ki = static_cast<std::size_t>(k);
    std::uint64_t draw = rng_() % 100;
    if (w_.rs) {
      client_key_[ki] = static_cast<int>(rng_() % kKeys);
      client_kind_[ki] = draw < 80 ? 0 : 1;
    } else if (holding_[ki] >= 0) {
      client_key_[ki] = holding_[ki];
      client_kind_[ki] = 2;
    } else {
      client_key_[ki] = static_cast<int>(rng_() % kPaths);
      client_kind_[ki] = draw < 80 ? 0 : 1;
    }
    if (client_kind_[ki] == 1) ++st_.gets;
    submit(k);
  }
  in_issue_ = false;
}

void PaxosRound::submit(int c) {
  auto ci = static_cast<std::size_t>(c);
  ClientOp& op = ops_[ci];
  op.last_submit = cl_->sim.now();
  int attempt = ++op.attempt;
  std::uint64_t id = op.id;
  int key = client_key_[ci];
  if (w_.rs) {
    std::string k = "key" + std::to_string(key);
    if (client_kind_[ci] == 0) {
      std::vector<std::uint8_t> v(kPutBytes, static_cast<std::uint8_t>(op.id));
      std::uint64_t k64 = static_cast<std::uint64_t>(key);
      std::memcpy(v.data(), &k64, 8);
      std::memcpy(v.data() + 8, &op.id, 8);
      kv_->put(k, std::move(v), [this, c, id, attempt](storage::KvResponse resp) {
        complete(c, id, attempt, resp.status == storage::KvStatus::kOk, false);
      });
    } else {
      kv_->get(k, [this, c, id, attempt, key](storage::KvResponse resp) {
        bool ok = resp.status == storage::KvStatus::kOk || resp.status == storage::KvStatus::kNotFound;
        if (resp.status == storage::KvStatus::kOk) {
          std::uint64_t k64 = ~0ULL;
          if (resp.value.size() >= 16) std::memcpy(&k64, resp.value.data(), 8);
          r_.check(k64 == static_cast<std::uint64_t>(key), "kv get returned another key's value");
        }
        complete(c, id, attempt, ok, false);
      });
    }
    return;
  }
  lock::LockClient& lc = *locks_[ci];
  std::string path = "/ls/jupiter/lock-" + std::to_string(key);
  auto cb = [this, c, id, attempt, kind = client_kind_[ci], key](lock::LockResponse resp) {
    const ClientOp& now = ops_[static_cast<std::size_t>(c)];
    if (now.id != id || now.attempt != attempt) {
      late_lock_reply(c, kind, key, resp.status);
      return;
    }
    complete(c, id, attempt, resp.status != lock::LockStatus::kExpired,
             resp.status == lock::LockStatus::kHeldByOther);
  };
  switch (client_kind_[ci]) {
    case 0: lc.acquire(path, cb); break;
    case 1: lc.get_owner(path, cb); break;
    default:
      releasing_[ci] = true;
      lc.release(path, cb);
      break;
  }
}

void PaxosRound::complete(int c, std::uint64_t id, int attempt, bool ok, bool held_by_other) {
  auto ci = static_cast<std::size_t>(c);
  ClientOp& op = ops_[ci];
  if (op.id == 0 || op.id != id || attempt != op.attempt) return;  // stale reply
  if (!ok) return;  // the retry timer resubmits
  SimTime now = cl_->sim.now();
  int key = client_key_[ci];
  if (!w_.rs) {
    if (client_kind_[ci] == 0 && !held_by_other) {
      // Mutual exclusion as clients see it: a grant while another session
      // holds the path (and has no release in flight) is a violation.
      int other = holder_[static_cast<std::size_t>(key)];
      if (other >= 0 && other != c && !releasing_[static_cast<std::size_t>(other)]) {
        r_.check(false, "two sessions hold /ls/jupiter/lock-" + std::to_string(key));
      }
      holder_[static_cast<std::size_t>(key)] = c;
      holding_[ci] = key;
    } else if (client_kind_[ci] == 2) {
      if (holder_[static_cast<std::size_t>(key)] == c) holder_[static_cast<std::size_t>(key)] = -1;
      holding_[ci] = -1;
      releasing_[ci] = false;
    }
  } else if (client_kind_[ci] == 0) {
    last_acked_[static_cast<std::size_t>(key)] = op.id;
  }
  if (traced_) tr_.record("client_op", 0, op.wall_submit, wall_now(), op.id);
  ++st_.completed;
  if (!op.retried) ++st_.first_try;
  if (now <= end_) {
    ++st_.committed;
    st_.latency.push_back(now - op.first_submit);
  }
  op.id = 0;
  --outstanding_;
  issue(c);
}

// A reply to an attempt the client has moved on from.  Group::submit keeps
// an attempt alive while no leader is elected, so an attempt the client
// resubmitted after kRetryAfter can still commit after the client got its
// answer from a later attempt.  The session is told either way, so the
// client view follows every reply that changed the lock table: after a late
// grant the session holds the path (until it next acquires and releases
// it), and a late release frees it.
void PaxosRound::late_lock_reply(int c, int kind, int key, lock::LockStatus status) {
  if (status != lock::LockStatus::kOk) return;  // the command changed nothing
  auto ci = static_cast<std::size_t>(c);
  auto ki = static_cast<std::size_t>(key);
  if (kind == 0 && holder_[ki] != c) {
    int other = holder_[ki];
    if (other >= 0 && !releasing_[static_cast<std::size_t>(other)]) {
      r_.check(false, "two sessions hold /ls/jupiter/lock-" + std::to_string(key));
    }
    holder_[ki] = c;
  } else if (kind == 2) {
    if (holder_[ki] == c) holder_[ki] = -1;
    if (holding_[ci] == key) holding_[ci] = -1;
  }
}

void PaxosRound::tick() {
  SimTime now = cl_->sim.now();
  if (now <= end_ && now > start_) {
    ++st_.samples;
    if (cl_->group.leader_id() >= 0) ++st_.up_samples;
  }
  for (int c = 0; c < clients_; ++c) {
    ClientOp& op = ops_[static_cast<std::size_t>(c)];
    if (op.id == 0) continue;
    if (now - op.first_submit >= kGiveUp) {
      // Unanswered for the whole budget: failed.  The client moves on.
      ++st_.failed;
      op.id = 0;
      --outstanding_;
      releasing_[static_cast<std::size_t>(c)] = false;
      issue(c);
    } else if (now - op.last_submit >= kRetryAfter) {
      op.retried = true;
      submit(c);
    }
  }
  if (!stopping_ || outstanding_ > 0) cl_->sim.schedule_after(1, [this] { tick(); });
}

void PaxosRound::schedule_kills() {
  // Out-of-bid schedule: every 80 sim-s one replica loses its instance for
  // 10-30 sim-s, at a seeded offset; the second kill of each round takes
  // the leader.  Every client op in flight at a crashed leader is lost and
  // resubmitted, so one leader kill per 240 sim-s keeps resubmissions near
  // 0.5% of ops: under the 1% that would move latency_p99 into the
  // election regime on some seeds but not others.
  Rng krng(derive_seed(seed_, 3));
  int k = 0;
  for (SimTime slot = start_; slot + 80 <= end_; slot += 80, ++k) {
    SimTime at = slot + static_cast<TimeDelta>(20 + krng() % 30);
    TimeDelta down = static_cast<TimeDelta>(10 + krng() % 21);
    int pick = static_cast<int>(krng() % 5);
    bool leader = k % 3 == 1;
    cl_->sim.schedule_at(at, [this, leader, pick, down] {
      NodeId lead = cl_->group.leader_id();
      NodeId victim = leader && lead >= 0 ? lead : pick;
      if (!leader && victim == lead) victim = (pick + 1) % 5;
      cl_->group.crash(victim);
      cl_->sim.schedule_after(down, [this, victim] { cl_->group.restart(victim); });
    });
  }
}

void PaxosRound::final_checks() {
  Group& g = cl_->group;
  // Every replica agrees on every slot all of them have chosen.
  Slot common = -1;
  for (NodeId id : g.node_ids()) {
    Slot ci = g.replica(id).commit_index();
    common = common < 0 ? ci : std::min(common, ci);
  }
  NodeId ref = g.node_ids().front();
  bool agree = true;
  for (Slot s = 0; s < common && agree; ++s) {
    const Value* a = g.replica(ref).chosen_value(s);
    for (NodeId id : g.node_ids()) {
      const Value* b = g.replica(id).chosen_value(s);
      if (!a || !b) continue;
      bool same = a->kind == b->kind && a->value_id == b->value_id;
      if (!a->coded && !b->coded) same = same && a->payload == b->payload;
      if (!same) agree = false;
    }
  }
  r_.check(agree, std::string(w_.name) + ": replicas disagree on a chosen slot");
  r_.check(common > 0, std::string(w_.name) + ": nothing was committed");

  // A final read returns the last acknowledged write.
  std::uint64_t fold = 0xCBF29CE484222325ULL;
  auto fold_in = [&fold](std::uint64_t v) { fold = (fold ^ v) * 0x100000001B3ULL; };
  fold_in(static_cast<std::uint64_t>(st_.committed));
  for (int k = 0; k < (w_.rs ? kKeys : kPaths); ++k) {
    bool done = false;
    if (w_.rs) {
      std::uint64_t want = last_acked_[static_cast<std::size_t>(k)];
      if (o_.inject_fault && k == 0) want ^= 1;
      kv_->get("key" + std::to_string(k), [&](storage::KvResponse resp) {
        done = true;
        std::uint64_t got = 0;
        if (resp.status == storage::KvStatus::kOk && resp.value.size() >= 16) {
          std::memcpy(&got, resp.value.data() + 8, 8);
        }
        r_.check(got == want, "kv final get of key" + std::to_string(k) +
                                  " does not return the last acked put");
        fold_in(got);
      });
    } else {
      int want = holder_[static_cast<std::size_t>(k)];
      if (o_.inject_fault && k == 0) want = want >= 0 ? -1 : 0;
      locks_[0]->get_owner("/ls/jupiter/lock-" + std::to_string(k), [&](lock::LockResponse resp) {
        done = true;
        int got = -1;
        if (resp.status == lock::LockStatus::kOk) got = std::atoi(resp.owner.c_str() + 1);
        r_.check(got == want, "lock owner of /ls/jupiter/lock-" + std::to_string(k) +
                                  " differs from what clients were told");
        fold_in(static_cast<std::uint64_t>(got + 1));
      });
    }
    while (!done && cl_->sim.step()) {
    }
    if (!done) r_.check(false, std::string(w_.name) + ": final read never completed");
  }
  st_.digest = fold;
}

RoundStats PaxosRound::run() {
  ops_.assign(clients_, ClientOp{});
  client_key_.assign(clients_, 0);
  client_kind_.assign(clients_, 0);
  holding_.assign(clients_, -1);
  releasing_.assign(clients_, false);
  holder_.assign(kPaths, -1);
  last_acked_.assign(kKeys, 0);

  // Set-up: cluster bootstrap, first election, client sessions.
  double s0 = wall_now();
  cl_ = std::make_unique<ClusterHarness>(cluster_options(), factory());
  bool leader = cl_->wait_for_leader() >= 0;
  r_.check(leader, std::string(w_.name) + ": no leader elected");
  if (w_.rs) {
    // The keyspace exists before the load starts: one put per key.
    kv_ = std::make_unique<storage::KvClient>(cl_->group);
    int stored = 0;
    for (int k = 0; k < kKeys; ++k) {
      std::uint64_t tag = next_op_++;
      std::vector<std::uint8_t> v(kPutBytes, static_cast<std::uint8_t>(tag));
      std::uint64_t k64 = static_cast<std::uint64_t>(k);
      std::memcpy(v.data(), &k64, 8);
      std::memcpy(v.data() + 8, &tag, 8);
      kv_->put("key" + std::to_string(k), std::move(v), [this, &stored, k, tag](storage::KvResponse resp) {
        if (resp.status == storage::KvStatus::kOk) last_acked_[static_cast<std::size_t>(k)] = tag;
        ++stored;
      });
    }
    while (stored < kKeys && cl_->sim.step()) {
    }
    r_.check(stored == kKeys, "kv keyspace prefill did not complete");
  } else {
    int opened = 0;
    for (int c = 0; c < clients_; ++c) {
      locks_.push_back(std::make_unique<lock::LockClient>(cl_->group, cl_->sim,
                                                          "s" + std::to_string(c), 1 << 30));
      locks_.back()->open_session([&opened](lock::LockResponse) { ++opened; });
    }
    while (opened < clients_ && cl_->sim.step()) {
    }
    r_.check(opened == clients_, "lock sessions did not open");
  }
  st_.setup_s = wall_now() - s0;

  Group& g = cl_->group;
  auto sum = [&g](auto f) {
    std::int64_t total = 0;
    for (NodeId id : g.node_ids()) total += f(g.replica(id));
    return total;
  };
  NodeId lead0 = g.leader_id();
  Slot slots0 = lead0 >= 0 ? g.replica(lead0).commit_index() : 0;
  std::int64_t b0 = sum([](Replica& x) { return x.batches_proposed(); });
  std::int64_t bo0 = sum([](Replica& x) { return x.batched_ops(); });
  std::int64_t e0 = sum([](Replica& x) { return static_cast<std::int64_t>(x.elections_started()); });
  std::int64_t cu0 = sum([](Replica& x) { return x.catchup_slots_served(); });
  std::int64_t lr0 = sum([](Replica& x) { return x.lease_reads_served(); });
  std::uint64_t ev0 = cl_->sim.dispatched_events();
  std::uint64_t m0 = cl_->net.messages_sent();
  std::uint64_t vb0 = cl_->net.value_bytes_sent();

  obs::Registry reg;
  obs::ObsContext ctx{&reg, nullptr, nullptr};
  std::unique_ptr<obs::ContextScope> scope;
  if (traced_) scope = std::make_unique<obs::ContextScope>(&ctx);

  start_ = cl_->sim.now();
  end_ = start_ + w_.horizon;
  if (w_.kills) schedule_kills();
  cl_->sim.schedule_after(1, [this] { tick(); });
  phase_span_ = traced_ ? tr_.next_id() : 0;
  CpuTimes c0 = cpu_now();
  double t0 = wall_now();
  for (int c = 0; c < clients_; ++c) issue(c);
  cl_->sim.run_until(end_);
  double t1 = wall_now();
  CpuTimes c1 = cpu_now();
  if (traced_) tr_.record("phase", 0, t0, t1, 0, phase_span_);
  st_.wall = t1 - t0;
  st_.cpu = {c1.user - c0.user, c1.sys - c0.sys};
  st_.events = cl_->sim.dispatched_events() - ev0;
  st_.msgs = cl_->net.messages_sent() - m0;
  st_.value_bytes = cl_->net.value_bytes_sent() - vb0;
  st_.batches = sum([](Replica& x) { return x.batches_proposed(); }) - b0;
  st_.batched_ops = sum([](Replica& x) { return x.batched_ops(); }) - bo0;
  st_.elections = sum([](Replica& x) { return static_cast<std::int64_t>(x.elections_started()); }) - e0;
  st_.catchup = sum([](Replica& x) { return x.catchup_slots_served(); }) - cu0;
  st_.lease_reads = sum([](Replica& x) { return x.lease_reads_served(); }) - lr0;
  NodeId lead1 = g.leader_id();
  st_.slots = (lead1 >= 0 ? g.replica(lead1).commit_index() : slots0) - slots0;
  st_.peak_pending = cl_->sim.core_stats().peak_pending;
  const obs::DetHistogram& enc = reg.det_histogram("ec.encode_bytes");
  st_.encodes = enc.count();
  st_.encode_bytes = enc.sum();
  scope.reset();

  // Drain: no new ops; let every outstanding op finish, heal, catch up.
  stopping_ = true;
  SimTime drain_end = end_ + kDrain;
  while (outstanding_ > 0 && cl_->sim.now() < drain_end && cl_->sim.step()) {
  }
  r_.check(outstanding_ == 0, std::string(w_.name) + ": client ops still outstanding after drain");
  for (NodeId id : g.node_ids()) {
    if (!g.replica(id).alive()) g.restart(id);
  }
  cl_->sim.run_until(cl_->sim.now() + 60);
  final_checks();
  return st_;
}

Workload workload_of(const Options& o, bool rs) {
  Workload w;
  w.name = rs ? "kv_rs_paxos" : "lock_paxos";
  w.rs = rs;
  w.kills = !rs;
  if (rs) {
    w.horizon = o.quick ? 10 : 60;
  } else {
    w.horizon = o.quick ? 160 : 240;
  }
  return w;
}

/// The Jupiter deployment a Paxos workload runs on: Jupiter bidding for the
/// lock (m1.small) or storage (m3.large) service at a 6 h interval,
/// replayed over `draws` markets drawn from the seed for `weeks` weeks each.
/// It is a fixed replay that nothing in the Paxos round moves; it gives the
/// workload its jupiter_cost_ratio and jupiter_availability.
struct Deployment {
  double cost_ratio = 0;    ///< Jupiter dollars / on-demand baseline
  double availability = 0;  ///< quorum-up time / elapsed
  bool consistent = true;
};

Deployment jupiter_deployment(bool lock, std::uint64_t seed, int draws, int weeks) {
  ServiceSpec spec = lock ? ServiceSpec::lock_service() : ServiceSpec::storage_service();
  InstanceKind kind = lock ? InstanceKind::kM1Small : InstanceKind::kM3Large;
  Deployment d;
  double cost = 0, base = 0;
  std::int64_t down = 0, elapsed = 0;
  for (int k = 0; k < draws; ++k) {
    Scenario sc = make_scenario(kind, 4, weeks, k == 0 ? seed : derive_seed(seed, 100 + k));
    ReplayResult res = run_cell(sc, spec, Cell{0, true, 0, 6 * kHour}, nullptr, 0).result;
    cost += res.cost.dollars();
    base += baseline_cost(spec, sc.replay_end - sc.replay_start).dollars();
    down += res.downtime;
    elapsed += res.elapsed;
    d.consistent = d.consistent && res.internally_consistent();
  }
  d.cost_ratio = base > 0 ? cost / base : 0;
  d.availability = elapsed > 0 ? 1.0 - static_cast<double>(down) / static_cast<double>(elapsed) : 0;
  return d;
}

/// Encode rate of ReedSolomon::shared(3,5) at `bytes` per call, in bytes/s.
double encode_rate(std::size_t bytes) {
  if (bytes == 0) return 0;
  const ReedSolomon& rs = ReedSolomon::shared(3, 5);
  std::vector<std::uint8_t> data(bytes, 0x5A);
  std::size_t calls = 0;
  double t0 = wall_now(), t1 = t0;
  while (t1 - t0 < 0.2) {
    for (int i = 0; i < 64; ++i) {
      auto chunks = rs.encode(data);
      if (chunks.empty()) return 0;
      ++calls;
    }
    t1 = wall_now();
  }
  return static_cast<double>(calls * bytes) / (t1 - t0);
}

void run_paxos(const Options& o, Tracer& tr, Result& r, bool rs) {
  Workload w = workload_of(o, rs);
  // Jupiter's deployment for the service: 16 market draws x 2 weeks.  Its
  // figures are deterministic per seed but differ between markets; 16
  // draws keep their spread over seeds under a third of the bound.
  const int dep_draws = o.quick ? 1 : 16;
  double d0 = wall_now();
  Deployment dep = jupiter_deployment(!rs, o.seed, dep_draws, o.quick ? 1 : 2);
  r.check(dep.consistent, "Jupiter deployment replay is inconsistent");
  const double dep_s = wall_now() - d0;

  // Rounds cycle through `draws` cluster seeds (the run seed first), so
  // latency and protocol figures pool 8 network and kill streams.
  // Rounds repeat until --seconds pass, always ending on a whole cycle.
  // A traced run runs draw 0 only: three untraced rounds (the first warms
  // the allocator, the mean of the other two is the reference for the
  // tracing overhead) and then one traced round.
  const std::size_t draws = o.quick || o.trace ? 1 : 8;
  auto seed_of = [&o](std::size_t k) {
    return k == 0 ? o.seed : derive_seed(o.seed, 200 + static_cast<std::uint64_t>(k));
  };
  std::vector<RoundStats> rounds;
  double measure_t0 = wall_now();
  for (;;) {
    PaxosRound round(w, o, seed_of(rounds.size() % draws), tr, r, false);
    rounds.push_back(round.run());
    if (o.trace) {
      if (rounds.size() == 3) break;
    } else if (rounds.size() % draws == 0 && wall_now() - measure_t0 >= o.seconds) {
      break;
    }
  }
  RoundStats traced;
  if (o.trace) {
    PaxosRound round(w, o, o.seed, tr, r, true);
    traced = round.run();
    rounds.push_back(traced);
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundStats& a = rounds[i];
    const RoundStats& b = rounds[i % draws];
    r.check(a.digest == b.digest && a.committed == b.committed,
            std::string(w.name) + ": rounds with the same seed diverged");
    r.attempted += a.attempted;
    r.failed += a.failed;
  }

  // One cycle's deterministic figures.
  RoundStats cyc;
  for (std::size_t k = 0; k < draws; ++k) {
    const RoundStats& x = rounds[k];
    cyc.committed += x.committed;
    cyc.completed += x.completed;
    cyc.first_try += x.first_try;
    cyc.failed += x.failed;
    cyc.latency.insert(cyc.latency.end(), x.latency.begin(), x.latency.end());
  }
  // Throughput is the median over rounds: robust to a host slowdown that
  // hits a few rounds, and the cluster seeds differ little in work.
  std::vector<double> walls, setup, round_ops, round_sw;
  for (const RoundStats& x : rounds) {
    walls.push_back(x.wall);
    setup.push_back(x.setup_s);
    round_ops.push_back(static_cast<double>(x.committed) / x.wall);
    round_sw.push_back(static_cast<double>(w.horizon) / static_cast<double>(kWeek) / x.wall);
  }
  std::printf("%s: %d clients, %lld sim-s horizon, %zu cluster seed(s), %lld committed ops "
              "per cycle, %zu latency samples, %zu round(s), round wall min/median/max "
              "%.3f/%.3f/%.3f s; deployment replay %.3f s\n",
              w.name, o.clients > 0 ? o.clients : kClients, static_cast<long long>(w.horizon), draws,
              static_cast<long long>(cyc.committed), cyc.latency.size(), rounds.size(),
              quantile(walls, 0), quantile(walls, 0.5), quantile(walls, 1), dep_s);

  if (!o.trace) {
    const double sim_s = static_cast<double>(draws) * static_cast<double>(w.horizon);
    r.set("setup_s", median(setup), "s");
    r.set("service_weeks_per_s", median(round_sw), "svc_wk/s");
    r.set("ops_per_s", median(round_ops), "1/s");
    r.set("ops_per_sim_s", static_cast<double>(cyc.committed) / sim_s, "1/sim_s");
    r.set("latency_p50_sim_s", grouped_quantile(cyc.latency, 0.5), "sim_s");
    r.set("latency_p99_sim_s", grouped_quantile(cyc.latency, 0.99), "sim_s");
    // A resubmitted op counts against ok_ratio even when the retry lands.
    r.set("ok_ratio",
          cyc.completed + cyc.failed > 0
              ? static_cast<double>(cyc.first_try) / static_cast<double>(cyc.completed + cyc.failed)
              : 0,
          "ratio");
    r.set("jupiter_cost_ratio", dep.cost_ratio, "ratio");
    r.set("jupiter_availability", dep.availability, "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const RoundStats& plain = rounds[1];
  const RoundStats& t = traced;
  auto per_op = [&t](double v) { return t.committed > 0 ? v / static_cast<double>(t.committed) : 0; };
  double mean_payload = t.encodes ? static_cast<double>(t.encode_bytes) / static_cast<double>(t.encodes) : 0;
  double rate = encode_rate(static_cast<std::size_t>(mean_payload));
  double ec_s = rate > 0 ? static_cast<double>(t.encode_bytes) / rate : 0;
  r.set("sim.events", static_cast<double>(t.events), "count");
  r.set("sim.events_per_op", per_op(static_cast<double>(t.events)), "ratio");
  r.set("sim.peak_pending", static_cast<double>(t.peak_pending), "count");
  r.set("paxos.msgs_per_op", per_op(static_cast<double>(t.msgs)), "ratio");
  r.set("paxos.value_bytes_per_op", per_op(static_cast<double>(t.value_bytes)), "B");
  r.set("paxos.ops_per_batch",
        t.batches > 0 ? static_cast<double>(t.batched_ops) / static_cast<double>(t.batches) : 0, "ratio");
  r.set("paxos.elections", static_cast<double>(t.elections), "count");
  r.set("paxos.catchup_slots", static_cast<double>(t.catchup), "count");
  r.set("paxos.lease_read_ratio",
        t.gets > 0 ? static_cast<double>(t.lease_reads) / static_cast<double>(t.gets) : 0, "ratio");
  r.set("paxos.leader_availability",
        t.samples > 0 ? static_cast<double>(t.up_samples) / static_cast<double>(t.samples) : 0, "ratio");
  r.set("paxos.self_s", tr.self_seconds("phase") - ec_s, "s");
  r.set("ec.encodes_per_slot",
        t.slots > 0 ? static_cast<double>(t.encodes) / static_cast<double>(t.slots) : 0, "ratio");
  r.set("ec.encode_bytes_per_op", per_op(static_cast<double>(t.encode_bytes)), "B");
  r.set("ec.encode_s_computed", ec_s, "s");
  double apply_us = t.applies > 0 ? t.apply_s * 1e6 / static_cast<double>(t.applies) : 0;
  r.set(rs ? "storage.apply_us" : "lock.apply_us", apply_us, "us");
  r.set("proc.sys_cpu_share", plain.cpu.total() > 0 ? plain.cpu.sys / plain.cpu.total() : 0, "ratio");
  r.set("latency.samples", static_cast<double>(t.latency.size()), "count");
  r.set("trace.overhead", 2 * t.wall / (rounds[1].wall + rounds[2].wall) - 1.0, "ratio");
  r.not_measured({"core", "replay", "util", "fleet", rs ? "lock" : "storage"});
  std::printf("%s trace: untraced phase %.3f s, traced %.3f s, apply %.3f s over %lld calls, "
              "ec computed %.3f s at %.0f MB/s (mean payload %.0f B)\n",
              w.name, plain.wall, t.wall, t.apply_s, static_cast<long long>(t.applies), ec_s,
              rate / 1e6, mean_payload);
}

}  // namespace

void run_kv_paxos(const Options& o, Tracer& tr, Result& r) { run_paxos(o, tr, r, true); }
void run_lock_paxos(const Options& o, Tracer& tr, Result& r) { run_paxos(o, tr, r, false); }

}  // namespace jbench
