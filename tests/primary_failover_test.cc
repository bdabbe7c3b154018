// Shard primary failover tests: controller-driven promotion of the most-complete
// backup with ordered handoff of the acked-but-unordered Erwin-st tail. The safety
// bar throughout: every append acked before the crash is readable afterwards, at its
// original global position if it was already ordered, with no duplicate bindings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "src/lazylog/erwin_cluster.h"
#include "src/lazylog/read_path.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions Options(ErwinMode mode, uint32_t shards = 2, uint32_t repl = 3) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = shards;
  opt.shard_replication = repl;
  opt.with_control_plane = true;
  return opt;
}

// Reads [0, n) with a fresh client and returns payload -> position. Fails the test on
// a duplicate payload (duplicate binding) or a failed read.
std::map<std::string, LogPos> ReadAll(ErwinCluster& cluster, uint64_t n) {
  auto fresh = cluster.MakeClient();
  auto records = ReadSyncly(cluster.loop(), *fresh, 0, n, 10 * kSec);
  std::map<std::string, LogPos> by_payload;
  if (!records.has_value()) {
    ADD_FAILURE() << "post-failover read of [0," << n << ") failed";
    return by_payload;
  }
  EXPECT_EQ(records->size(), n);
  for (const auto& rec : *records) {
    const std::string payload = rec.record.payload.ToString();
    EXPECT_EQ(by_payload.count(payload), 0u) << "duplicate binding for " << payload;
    by_payload[payload] = rec.pos;
  }
  return by_payload;
}

TEST(PrimaryFailover, CrashMidOrderingWindowLosesNoAckedAppend) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  // Phase 1: appends that the orderer fully binds before the crash.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "ordered-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> before = ReadAll(cluster, 12);
  ASSERT_EQ(before.size(), 12u);

  // Phase 2: appends acked (data on all shard replicas, metadata on all sequencing
  // replicas) but crash the primary immediately, mid-ordering-window, so part of the
  // tail is unordered on the backups.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "tail-" + std::to_string(i)));
  }
  const NodeId old_primary = cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  ASSERT_NE(cluster.controller(), nullptr);
  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  EXPECT_NE(cluster.controller()->shards()[0][0], old_primary);

  // Every acked append is readable; the pre-crash ordered prefix kept its positions.
  const std::map<std::string, LogPos> after = ReadAll(cluster, 18);
  ASSERT_EQ(after.size(), 18u);
  for (const auto& [payload, pos] : before) {
    ASSERT_EQ(after.count(payload), 1u) << payload << " lost across promotion";
    EXPECT_EQ(after.at(payload), pos) << payload << " moved across promotion";
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(after.count("tail-" + std::to_string(i)), 1u);
  }
  // The promoted backup flipped roles and reports the promotion in its counters.
  const ShardServer& promoted = cluster.shard(0, 0);
  EXPECT_TRUE(promoted.is_primary());
  EXPECT_EQ(promoted.stats().promotions, 1u);
  EXPECT_GT(promoted.stats().seal_to_open_ns, 0u);
}

TEST(PrimaryFailover, CrashDuringIndexDeltaPullReroutesSelectiveReads) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  ASSERT_GE(cluster.num_index_nodes(), 1u);
  auto client = cluster.MakeStClient();
  const StreamTag tag = 7;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, tag, "idx-" + std::to_string(i)));
  }
  // Let the index tier pull a first delta, then crash the primary between pulls: the
  // node feeding the index disappears mid-stream.
  cluster.RunFor(20 * kMs);
  cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  // The stale-view client's selective read self-heals: the index path re-resolves
  // (or degrades to the scan fallback) instead of erroring until the next append.
  auto result = ReadNextSyncly(cluster.loop(), *client, tag, 0, 16, 10 * kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.records.size(), 8u);

  // The controller re-pointed the index feed at the promoted primary: records appended
  // after the failover surface through the same tag.
  auto writer = cluster.MakeStClient();
  for (int i = 8; i < 12; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, tag, "idx-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  auto fresh = cluster.MakeStClient();
  auto post = ReadNextSyncly(cluster.loop(), *fresh, tag, 0, 16, 10 * kSec);
  ASSERT_TRUE(post.status.ok()) << post.status.ToString();
  EXPECT_EQ(post.records.size(), 12u);
  std::set<std::string> payloads;
  for (const auto& rec : post.records) {
    payloads.insert(rec.record.payload.ToString());
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(payloads.count("idx-" + std::to_string(i)), 1u);
  }
}

TEST(PrimaryFailover, ConcurrentSeqLeaderAndShardPrimaryCrash) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "pre-" + std::to_string(i)));
  }
  // Both failures in the same instant: the controller must run the sequencing view
  // change (whose shard fence must not stall on the dead shard primary) and the shard
  // promotion (whose seq-side handoff must reach the *new* leader) concurrently.
  cluster.CrashSeqReplica(0);
  cluster.CrashShardPrimary(0);
  cluster.RunFor(2 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(after.count("pre-" + std::to_string(i)), 1u);
  }
  // The log keeps accepting appends under the new seq view + shard order.
  auto writer = cluster.MakeStClient();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> final_set = ReadAll(cluster, 15);
  EXPECT_EQ(final_set.size(), 15u);
}

TEST(PrimaryFailover, PromotionQueuesBehindInFlightBackupReplacement) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "r-" + std::to_string(i)));
  }
  cluster.RunFor(50 * kMs);
  // Start a backup replacement (async through the controller: state copy over RPC,
  // config write) and crash the primary while it is still in flight. The controller
  // serializes per-shard ops, so the promotion queues behind the replacement instead
  // of interleaving with it. The replacement itself may legitimately fail (its copy
  // source — the primary — just died); what must hold is that the promotion still
  // completes and no acked append is lost.
  cluster.ReplaceShardReplica(0, 2);
  const NodeId crashed = cluster.CrashShardPrimary(0);
  cluster.RunFor(2 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  // The committed order has a live primary that is not the crashed node.
  const auto& order = cluster.controller()->shards()[0];
  ASSERT_GE(order.size(), 1u);
  EXPECT_NE(order[0], crashed);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 8);
  ASSERT_EQ(after.size(), 8u);
  auto writer = cluster.MakeStClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "after-both"));
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, 9).size(), 9u);
}

TEST(PrimaryFailover, IsolatedZombiePrimaryIsFencedOut) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "z-" + std::to_string(i)));
  }
  // Isolate rather than crash: the old primary keeps running, firing no-op timers and
  // replication attempts into the partition. Promotion fencing (promo epoch + sender
  // identity checks) must render all of it harmless.
  const NodeId zombie = cluster.IsolateShardPrimary(0);
  cluster.RunFor(1 * kSec);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  EXPECT_NE(cluster.controller()->shards()[0][0], zombie);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  auto writer = cluster.MakeStClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-z-" + std::to_string(i)));
  }
  cluster.RunFor(200 * kMs);
  EXPECT_EQ(ReadAll(cluster, 14).size(), 14u);
}

TEST(PrimaryFailover, MModePromotionKeepsLogAvailable) {
  ErwinCluster cluster(Options(ErwinMode::kM));
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-" + std::to_string(i)));
  }
  cluster.CrashShardPrimary(1);
  cluster.RunFor(500 * kMs);

  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  const std::map<std::string, LogPos> after = ReadAll(cluster, 10);
  ASSERT_EQ(after.size(), 10u);
  // Stale-view clients re-resolve on their own (append and read paths).
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m-post-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, 14).size(), 14u);
}

TEST(PrimaryFailover, RoutedReadsSurviveBackupPromotionMidFlight) {
  // Load-aware routing sends stable reads to backups; here the backup serving them is
  // promoted mid-stream. Reads issued across the whole failover window — before the
  // crash, during detection/seal/handoff, and after the role flip — must all return
  // the same stable prefix: a promoted backup keeps its stable bindings, and a routed
  // read that lands on the dead primary propagates an error that the client's retry
  // ladder absorbs by re-resolving and retrying.
  ErwinCluster cluster(Options(ErwinMode::kSt));
  ASSERT_TRUE(cluster.params().client_read.route_stable_reads);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 16;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "rr-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  const std::map<std::string, LogPos> before = ReadAll(cluster, kN);
  ASSERT_EQ(before.size(), kN);

  cluster.CrashShardPrimary(0);
  // During the detection window the old primary is dead but no promotion has been
  // committed yet: the stable prefix must stay readable off the surviving backups.
  auto mid = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(mid.has_value()) << "stable prefix unreadable during the failover window";
  ASSERT_EQ(mid->size(), kN);
  for (const auto& rec : *mid) {
    ASSERT_EQ(before.count(rec.record.payload.ToString()), 1u);
    EXPECT_EQ(before.at(rec.record.payload.ToString()), rec.pos)
        << "binding moved mid-failover";
  }

  cluster.RunFor(2 * kSec);
  EXPECT_EQ(cluster.controller()->shard_promotions(), 1u);
  // The promoted ex-backup now serves as primary; the same client (stale or refreshed)
  // still reads the identical bindings, and new appends land after them.
  const std::map<std::string, LogPos> after = ReadAll(cluster, kN);
  ASSERT_EQ(after.size(), kN);
  for (const auto& [payload, pos] : before) {
    ASSERT_EQ(after.count(payload), 1u) << payload;
    EXPECT_EQ(after.at(payload), pos) << payload;
  }
  auto writer = cluster.MakeStClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *writer, "post-promo"));
  cluster.RunFor(100 * kMs);
  EXPECT_EQ(ReadAll(cluster, kN + 1).size(), kN + 1);
}

TEST(PrimaryFailover, StaleViewMultiRangeReadReResolvesShardConfig) {
  // The coalesced multi-range RPC against a replaced replica must fail through to the
  // client's retry ladder (not be silently absorbed), so the stale client refreshes
  // "/shards/config" and finishes the read against the new membership.
  ErwinClusterOptions opts = Options(ErwinMode::kSt);
  ErwinCluster cluster(opts);
  auto client = cluster.MakeStClient();
  ASSERT_EQ(client->client_id() % cluster.shard_replication(), 1u);
  // Pin routed reads to replica 1 so the read deterministically targets the replica
  // this test replaces (same scheme as the fencing test, st multi-range path).
  client->PinReadReplicaForTest(1);
  constexpr uint64_t kN = 12;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "sv-" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  auto warm = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->size(), kN);
  ASSERT_EQ(client->shard_epoch(), 1u);

  // Replace the exact backups this client's routed reads are pinned to, on both
  // shards; the stale client's next multi-range read hits a dead node.
  cluster.ReplaceShardReplica(0, 1);
  cluster.ReplaceShardReplica(1, 1);
  cluster.RunFor(50 * kMs);
  ASSERT_EQ(cluster.controller()->shard_epoch(), 3u);

  auto after = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(after.has_value()) << "stale-view multi-range read never recovered";
  ASSERT_EQ(after->size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ((*after)[i].pos, i);
  }
  EXPECT_EQ(client->shard_epoch(), 3u) << "client never re-resolved the shard config";
}

// Reads [from, from+len) and returns how long it took in simulated time; fails the test
// unless the read returns exactly the requested positions.
uint64_t TimedExactRead(ErwinCluster& cluster, SharedLogClient& client, LogPos from,
                        uint64_t len) {
  const SimTime t0 = cluster.loop().Now();
  auto recs = ReadSyncly(cluster.loop(), client, from, len, 10 * kSec);
  const uint64_t took = cluster.loop().Now() - t0;
  if (!recs.has_value()) {
    ADD_FAILURE() << "read of [" << from << "," << from + len << ") failed";
    return took;
  }
  EXPECT_EQ(recs->size(), len);
  for (size_t i = 0; i < recs->size(); ++i) {
    EXPECT_EQ((*recs)[i].pos, from + i);
    EXPECT_EQ((*recs)[i].record.payload.ToString(), "fo-" + std::to_string(from + i));
  }
  return took;
}

// A 2x3 Erwin-st cluster with readahead off, so every read below goes to the shards.
ErwinClusterOptions FailoverReadOptions() {
  ErwinClusterOptions opt = Options(ErwinMode::kSt);
  opt.params.client_read.readahead_records = 0;
  return opt;
}

// Appends `n` records "fo-<pos>" and waits until they are stable on every replica.
void FillStable(ErwinCluster& cluster, SharedLogClient& client, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), client, "fo-" + std::to_string(i)));
  }
  // Long enough for every replica's stable-gp broadcast to cover the whole log.
  cluster.RunFor(100 * kMs);
}

TEST(PrimaryFailover, RoutedStableReadsFailOverWithinReadDeadline) {
  // A stale-view client keeps routing shard-0 stable reads over all three replicas,
  // the crashed primary included. A pick of the dead primary costs one short read
  // deadline (ReadDeadlineNs: ~2 ms for one record), not the 50 ms generic RPC timeout;
  // the failure feeds the router and the read retry ladder, and the read completes off
  // a live replica with the same bindings.
  ErwinCluster cluster(FailoverReadOptions());
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 32;
  FillStable(cluster, *client, kN);
  // Warm the posmap cache so the reads below are pure routed shard reads.
  TimedExactRead(cluster, *client, 0, kN);
  const uint64_t fetches = client->posmap_fetches();
  const uint64_t timeouts_before = client->rpc_stats().timeouts;

  cluster.CrashShardPrimary(0);
  uint64_t slowest = 0;
  for (LogPos pos = 0; pos < kN; ++pos) {
    slowest = std::max(slowest, TimedExactRead(cluster, *client, pos, 1));
  }
  EXPECT_EQ(client->posmap_fetches(), fetches) << "a read left the posmap cache";
  // The dead primary was picked at least once (else this test shows nothing).
  EXPECT_GT(client->rpc_stats().timeouts, timeouts_before);
  EXPECT_LT(slowest, 10 * kMs) << "a stable read waited out a long timeout";
}

TEST(PrimaryFailover, PosmapFetchFailsOverWithinReadDeadline) {
  // Reads just past the client's posmap cache each force a kShardPosMap fetch, and
  // successive fetches rotate over shard 0's replicas, so some land on the crashed
  // primary. A missed fetch costs one short read deadline before the next fetch moves
  // to the next replica. Record reads are pinned to a live backup, so every timeout
  // below is a posmap fetch.
  ErwinClusterOptions opt = FailoverReadOptions();
  opt.params.client_read.posmap_readahead = 4;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  client->PinReadReplicaForTest(1);
  constexpr uint64_t kN = 32;
  FillStable(cluster, *client, kN);
  TimedExactRead(cluster, *client, 0, 1);  // maps [0, 4)
  const uint64_t fetches = client->posmap_fetches();
  const uint64_t timeouts_before = client->rpc_stats().timeouts;

  cluster.CrashShardPrimary(0);
  uint64_t slowest = 0;
  for (LogPos pos = 4; pos < kN; pos += 4) {
    slowest = std::max(slowest, TimedExactRead(cluster, *client, pos, 1));
  }
  EXPECT_GE(client->posmap_fetches(), fetches + (kN - 4) / 4);
  EXPECT_GT(client->rpc_stats().timeouts, timeouts_before);
  EXPECT_LT(slowest, 10 * kMs) << "a posmap fetch waited out a long timeout";
}

TEST(PrimaryFailover, ParkedPosmapFetchFailsOverWithinReadDeadline) {
  // A tail read's position-map fetch parks past stable at shard 0's primary, and the
  // primary crashes. The parked fetch keeps the short read deadline, so it moves on to
  // a live replica and the read completes soon after the next append; on the 50 ms
  // generic RPC timeout it would hold the reader until that timeout ran out.
  ErwinClusterOptions opt = FailoverReadOptions();
  opt.params.client_read.posmap_readahead = 1;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 8;
  FillStable(cluster, *client, kN);
  // Fetch k goes to shard 0's replica (client id + k) % 3, and replica 0 is the
  // primary. Map [0, kN) in 1 + `extra` fetches so that the tail fetch lands there.
  const uint64_t extra = (3 - (client->client_id() + 2) % 3) % 3;
  TimedExactRead(cluster, *client, 0, kN - extra);
  for (LogPos pos = kN - extra; pos < kN; ++pos) {
    TimedExactRead(cluster, *client, pos, 1);
  }
  ASSERT_EQ(client->posmap_fetches(), 1 + extra);

  bool done = false;
  SimTime read_at = 0;
  client->log().Read(kN, 1, [&](Status s, std::vector<PositionedRecord> recs) {
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].record.payload.ToString(), "fo-" + std::to_string(kN));
    read_at = cluster.loop().Now();
    done = true;
  });
  cluster.RunFor(1 * kMs);
  ASSERT_FALSE(done);
  ASSERT_EQ((client->client_id() + client->posmap_fetches()) % 3, 0u)
      << "the tail fetch is not parked at the primary";

  cluster.CrashShardPrimary(0);
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "fo-" + std::to_string(kN)));
  const SimTime acked = cluster.loop().Now();
  RunUntilDone(cluster.loop(), done, 10 * kSec);
  ASSERT_TRUE(done);
  EXPECT_LT(read_at, acked + 10 * kMs) << "the parked fetch held the tail reader";
}

TEST(PrimaryFailover, ControllerSnapshotExportsFailoverCounters) {
  ErwinCluster cluster(Options(ErwinMode::kSt));
  auto client = cluster.MakeStClient();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "c-" + std::to_string(i)));
  }
  cluster.CrashShardPrimary(0);
  cluster.RunFor(500 * kMs);

  const ControllerStatsSnapshot snap = cluster.controller()->StatsSnapshot();
  EXPECT_EQ(snap.promotions, 1u);
  EXPECT_GT(snap.last_seal_to_open_ns, 0u);
  EXPECT_GE(snap.last_detect_to_open_ns, snap.last_seal_to_open_ns);
  // The timing breakdown is internally ordered: detect <= seal <= handoff <= open.
  const ShardFailoverTiming& t = cluster.controller()->last_failover_timing();
  EXPECT_TRUE(t.complete);
  EXPECT_LE(t.detected_at, t.sealed_at);
  EXPECT_LE(t.sealed_at, t.handoff_at);
  EXPECT_LE(t.handoff_at, t.opened_at);
  // Counters surface through the generic Fields() dump used by the benches.
  bool saw_promotions = false;
  for (const auto& [name, value] : snap.Fields()) {
    if (name == "promotions") {
      saw_promotions = true;
      EXPECT_EQ(value, 1.0);
    }
  }
  EXPECT_TRUE(saw_promotions);
}

}  // namespace
}  // namespace lazylog
