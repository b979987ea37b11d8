#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "ec/reed_solomon.hpp"
#include "obs/obs.hpp"
#include "paxos/group.hpp"
#include "paxos/harness.hpp"
#include "storage/kv_store.hpp"
#include "util/rng.hpp"

namespace jupiter::paxos {
namespace {

using storage::KvClient;
using storage::KvCommand;
using storage::KvOp;
using storage::KvResponse;
using storage::KvStatus;
using storage::KvStoreState;

Replica::Options rs_options() {
  Replica::Options opts;
  opts.policy.kind = QuorumPolicy::Kind::kRsPaxos;
  opts.policy.rs_m = 3;
  return opts;
}

/// RS-Paxos with the batched, pipelined data plane (the storage service's
/// configuration in the throughput bench and perfbench).
Replica::Options rs_data_plane_options() {
  Replica::Options opts = rs_options();
  opts.plane.pipeline = true;
  opts.plane.batching = true;
  return opts;
}

struct RsPaxosFixture : ::testing::Test {
  explicit RsPaxosFixture(Replica::Options opts = rs_options())
      : net(sim, 31),
        group(sim, net, opts,
              [this](NodeId id) {
                auto sm = std::make_unique<KvStoreState>();
                sms[id] = sm.get();
                return sm;
              },
              777) {}

  void bootstrap(int n = 5) {
    group.bootstrap(n);
    sim.run_until(sim.now() + 120);
  }

  NodeId wait_for_leader(TimeDelta budget = 600) {
    SimTime deadline = sim.now() + budget;
    while (sim.now() < deadline) {
      if (NodeId lead = group.leader_id(); lead >= 0) return lead;
      sim.run_until(sim.now() + 5);
    }
    return group.leader_id();
  }

  bool put(const std::string& key, const std::string& value) {
    KvClient client(group);
    bool done = false, ok = false;
    std::vector<std::uint8_t> bytes(value.begin(), value.end());
    client.put(key, bytes, [&](KvResponse r) {
      done = true;
      ok = r.status == KvStatus::kOk;
    });
    sim.run_until(sim.now() + 200);
    return done && ok;
  }

  Simulator sim;
  SimNetwork net;
  std::map<NodeId, KvStoreState*> sms;
  Group group;
};

TEST_F(RsPaxosFixture, QuorumIsFourOfFive) {
  QuorumPolicy policy = rs_options().policy;
  EXPECT_EQ(policy.quorum(5), 4);  // ceil((5+3)/2) — §5.1.2
  EXPECT_EQ(policy.quorum(7), 5);
  EXPECT_TRUE(policy.coded());
}

TEST_F(RsPaxosFixture, PutCommitsAndLeaderServesReads) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("k", "hello-rs-paxos"));
  auto v = sms[lead]->get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "hello-rs-paxos");
}

TEST_F(RsPaxosFixture, FollowersStoreChunksNotFullValues) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  std::string big(3000, 'z');
  ASSERT_TRUE(put("big", big));
  for (NodeId id : group.node_ids()) {
    if (id == lead) continue;
    // Followers hold chunk logs; each chunk is ~1/3 of the command.
    ASSERT_GE(sms[id]->chunk_count(), 1u) << "follower " << id;
    EXPECT_LT(sms[id]->chunk_bytes(), big.size()) << "follower " << id;
    EXPECT_GT(sms[id]->chunk_bytes(), big.size() / 5) << "follower " << id;
    // And no materialized key-value state.
    EXPECT_EQ(sms[id]->keys(), 0u);
  }
}

TEST_F(RsPaxosFixture, NetworkCarriesLessThanFullReplication) {
  bootstrap();
  ASSERT_GE(wait_for_leader(), 0);
  std::string big(6000, 'q');
  std::uint64_t before = net.value_bytes_sent();
  ASSERT_TRUE(put("big", big));
  std::uint64_t sent = net.value_bytes_sent() - before;
  // Full replication would ship ~n * size twice (accept + chosen):
  // ~60 KB.  RS-Paxos ships chunks of size/3: ~20 KB.
  EXPECT_LT(sent, 36000u);
  EXPECT_GT(sent, 6000u);
}

TEST_F(RsPaxosFixture, AnyThreeChunkLogsReconstructTheStore) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("a", "alpha"));
  ASSERT_TRUE(put("b", "bravo"));
  ASSERT_TRUE(put("c", "charlie"));
  sim.run_until(sim.now() + 300);

  std::vector<const KvStoreState*> followers;
  for (NodeId id : group.node_ids()) {
    if (id != lead && followers.size() < 3) followers.push_back(sms[id]);
  }
  ASSERT_EQ(followers.size(), 3u);
  KvStoreState recovered;
  std::size_t n = KvStoreState::reconstruct_into(followers, 3, recovered);
  EXPECT_EQ(n, 3u);
  auto v = recovered.get("b");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "bravo");
}

TEST_F(RsPaxosFixture, ToleratesExactlyOneFailure) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  // One non-leader crash: quorum of 4 still reachable.
  for (NodeId id : group.node_ids()) {
    if (id != lead) {
      group.crash(id);
      break;
    }
  }
  EXPECT_TRUE(put("k1", "survives-one"));
  // A second crash drops below the 4-node quorum: no progress.
  for (NodeId id : group.node_ids()) {
    if (id != lead && group.replica(id).alive()) {
      group.crash(id);
      break;
    }
  }
  EXPECT_FALSE(put("k2", "needs-four"));
}

TEST_F(RsPaxosFixture, LeaderFailoverRecoversCodedValue) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  ASSERT_TRUE(put("k", "precious"));
  sim.run_until(sim.now() + 120);
  group.crash(lead);
  NodeId new_lead = -1;
  SimTime deadline = sim.now() + 900;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + 10);
    new_lead = group.leader_id();
    if (new_lead >= 0 && new_lead != lead) break;
  }
  ASSERT_GE(new_lead, 0);
  ASSERT_NE(new_lead, lead);
  // Recovery reconstructed the chosen command from >= m chunks, so the new
  // leader's materialized store has the key.
  sim.run_until(sim.now() + 300);
  auto v = sms[new_lead]->get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::string(v->begin(), v->end()), "precious");
  // And the store keeps accepting writes.
  EXPECT_TRUE(put("k2", "after-failover"));
}

// ---- encode once per proposal ---------------------------------------------
//
// The leader encodes each coded proposal once and keeps the n chunks in the
// slot until it decides; accepts, retry resends and the chosen fan-out all
// read that set.  Encodes are counted through the ec.encode_bytes histogram
// of an installed metrics registry.

struct RsPaxosEncodeOnce : RsPaxosFixture {
  RsPaxosEncodeOnce()
      : RsPaxosFixture(rs_data_plane_options()), scope(&ctx) {}

  std::uint64_t encodes() {
    return registry.det_histogram("ec.encode_bytes").count();
  }
  /// Every data-plane flush proposes one coded value (kCommand or kBatch).
  std::int64_t coded_proposals() {
    std::int64_t n = 0;
    for (NodeId id : group.node_ids()) {
      n += group.replica(id).batches_proposed();
    }
    return n;
  }
  /// Submits `count` puts at one instant so the leader coalesces them;
  /// returns the commands in submission order.
  std::vector<std::vector<std::uint8_t>> put_wave(int wave, int count,
                                                  int* acked) {
    KvClient client(group);
    std::vector<std::vector<std::uint8_t>> cmds;
    for (int i = 0; i < count; ++i) {
      KvCommand c;
      c.op = KvOp::kPut;
      c.key = "w" + std::to_string(wave) + "-" + std::to_string(i);
      c.value.assign(1500 + 7 * static_cast<std::size_t>(i),
                     static_cast<std::uint8_t>(i));
      cmds.push_back(c.encode());
      client.put(c.key, c.value, [acked](KvResponse r) {
        if (r.status == KvStatus::kOk) ++*acked;
      });
    }
    sim.run_until(sim.now() + 200);
    return cmds;
  }
  /// No replica keeps a chunk set for a slot it has already applied.
  void expect_no_chunk_set_below_commit() {
    for (NodeId id : group.node_ids()) {
      const Replica& r = group.replica(id);
      for (Slot s = 0; s < r.commit_index(); ++s) {
        EXPECT_FALSE(r.holds_chunk_set(s)) << "node " << id << " slot " << s;
      }
    }
  }

  obs::Registry registry;
  obs::ObsContext ctx{&registry};
  obs::ContextScope scope;
};

TEST_F(RsPaxosEncodeOnce, EncodesEqualCodedProposals) {
  bootstrap();
  ASSERT_GE(wait_for_leader(), 0);
  ASSERT_EQ(encodes(), 0u);  // the election proposes nothing coded
  int acked = 0;
  for (int wave = 0; wave < 3; ++wave) put_wave(wave, 8, &acked);
  EXPECT_EQ(acked, 24);
  std::int64_t ops = 0;
  for (NodeId id : group.node_ids()) ops += group.replica(id).batched_ops();
  ASSERT_GT(coded_proposals(), 0);
  EXPECT_LT(coded_proposals(), ops);  // waves really were batched
  EXPECT_EQ(encodes(), static_cast<std::uint64_t>(coded_proposals()));
  expect_no_chunk_set_below_commit();
}

TEST_F(RsPaxosEncodeOnce, RetryResendsWithoutEncoding) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  // Drop the first coded accept to two followers: the leader's own accept
  // and the other two make three, below the quorum of four, so the slot
  // decides only after arm_retry resends the accepts.
  int coded_accepts = 0;
  int dropped = 0;
  net.set_fault_hook([&](NodeId, NodeId to, const Message& m) {
    SimNetwork::FaultAction act;
    if (m.type == MsgType::kAccept && m.value.coded) {
      ++coded_accepts;
      if (to != lead && dropped < 2) {
        ++dropped;
        act.drop = true;
      }
    }
    return act;
  });
  ASSERT_TRUE(put("k", std::string(5000, 'r')));
  EXPECT_EQ(dropped, 2);
  EXPECT_GE(coded_accepts, 10);  // the first round and at least one resend
  EXPECT_EQ(coded_proposals(), 1);
  EXPECT_EQ(encodes(), 1u);
  expect_no_chunk_set_below_commit();
}

TEST_F(RsPaxosEncodeOnce, ChosenChunksMatchOneEncodeOfTheBatch) {
  bootstrap();
  NodeId lead = wait_for_leader();
  ASSERT_GE(lead, 0);
  int acked = 0;
  auto cmds = put_wave(0, 6, &acked);
  ASSERT_EQ(acked, 6);
  ASSERT_EQ(coded_proposals(), 1);  // one instant, one batch
  const std::vector<std::uint8_t> full = encode_batch(cmds);
  const std::vector<Chunk> expected = ReedSolomon::shared(3, 5).encode(full);
  const Replica& leader = group.replica(lead);
  Slot slot = -1;
  for (Slot s = 0; s < leader.commit_index(); ++s) {
    const Value* v = leader.chosen_value(s);
    if (v != nullptr && v->kind == ValueKind::kBatch) slot = s;
  }
  ASSERT_GE(slot, 0);
  std::vector<NodeId> ids = group.node_ids();  // sorted: chunk i -> ids[i]
  ASSERT_EQ(ids.size(), expected.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Value* v = group.replica(ids[i]).chosen_value(slot);
    ASSERT_NE(v, nullptr) << "node " << ids[i];
    EXPECT_TRUE(v->coded);
    EXPECT_EQ(v->chunk_index, static_cast<int>(i));
    EXPECT_EQ(v->rs_n, 5);
    EXPECT_EQ(v->full_size, full.size());
    EXPECT_EQ(v->payload, expected[i]) << "node " << ids[i];
  }
  EXPECT_EQ(encodes(), 2u);  // the proposal's, plus this test's own
  expect_no_chunk_set_below_commit();
}

// ---- leader failover under the batched data plane -------------------------
//
// A new leader rebuilds every slot it applied as a chunk from the promise
// payloads and replays it into its store.  With batching on, such a slot
// holds an encoded batch of commands, not one command, so the rebuild must
// decode it and apply op by op, as apply_ready() does for a full batch.

TEST(RsPaxosFailover, BatchedSlotsSurviveRepeatedLeaderCrashes) {
  ClusterHarness::Options o;
  o.replica = rs_options();
  o.replica.plane = ClusterHarness::data_plane_preset();
  o.net_seed = 61;
  o.group_seed = 62;
  o.settle = 120;
  std::map<NodeId, KvStoreState*> sms;
  ClusterHarness cluster(o, [&sms](NodeId id) {
    auto sm = std::make_unique<KvStoreState>();
    sms[id] = sm.get();
    return sm;
  });
  ASSERT_GE(cluster.wait_for_leader(), 0);

  // 64 closed-loop clients, one key each; value = the client's sequence
  // number, so the store's final value can be checked against the acks.
  constexpr int kClients = 64;
  const SimTime end = cluster.sim.now() + 1500;
  KvClient client(cluster.group);
  std::vector<int> submitted(kClients, 0);
  std::vector<int> acked(kClients, -1);
  std::int64_t ok = 0;
  std::function<void(int)> pump = [&](int c) {
    if (cluster.sim.now() >= end) return;
    int seq = submitted[static_cast<std::size_t>(c)]++;
    std::string v = std::to_string(seq);
    client.put("c" + std::to_string(c),
               std::vector<std::uint8_t>(v.begin(), v.end()),
               [&, c, seq](KvResponse r) {
                 if (r.status == KvStatus::kOk) {
                   acked[static_cast<std::size_t>(c)] = seq;
                   ++ok;
                 }
                 pump(c);
               });
  };
  for (int c = 0; c < kClients; ++c) pump(c);

  // Every 150 sim-s: bring the previous victim back, crash a random live
  // node (the leader half the time), so at most one of five is down.
  Rng rng(2015);
  NodeId down = -1;
  int leader_kills = 0;
  while (cluster.sim.now() + 150 < end) {
    cluster.sim.run_until(cluster.sim.now() + 150);
    if (down >= 0) cluster.group.restart(down);
    NodeId lead = cluster.group.leader_id();
    if (lead >= 0 && rng.below(2) == 0) {
      down = lead;
      ++leader_kills;
    } else {
      std::vector<NodeId> ids = cluster.group.node_ids();
      down = ids[rng.below(ids.size())];
    }
    cluster.group.crash(down);
  }
  if (down >= 0) cluster.group.restart(down);
  cluster.sim.run_until(end + 600);

  EXPECT_GE(leader_kills, 2);
  EXPECT_GT(ok, 1000);
  NodeId lead = cluster.wait_for_leader();
  ASSERT_GE(lead, 0);
  // The leader's store holds, per key, a value no older than the last ack
  // and no newer than the last submission.
  for (int c = 0; c < kClients; ++c) {
    auto i = static_cast<std::size_t>(c);
    if (acked[i] < 0) continue;
    auto v = sms[lead]->get("c" + std::to_string(c));
    ASSERT_TRUE(v.has_value()) << "key c" << c;
    int seq = std::stoi(std::string(v->begin(), v->end()));
    EXPECT_GE(seq, acked[i]) << "key c" << c;
    EXPECT_LT(seq, submitted[i]) << "key c" << c;
  }
}

}  // namespace
}  // namespace jupiter::paxos
