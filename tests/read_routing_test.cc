// Read scale-out tests (DESIGN.md read path): load-aware replica routing (p2c over
// per-replica EWMA), coalesced multi-range reads with chunking, the tail cache fed by
// reply piggybacks, sequential readahead, and the posmap prefetch knob. Unit tests
// cover the router and caches in isolation (the read verb's codec is in codec_test);
// the cluster tests assert the end-to-end counters and that routed reads return
// exactly the pinned-path results.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/common/random.h"
#include "src/lazylog/erwin_cluster.h"
#include "src/lazylog/read_path.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

// --- ReplicaRouter --------------------------------------------------------------------

// Feeds the router one answered single-record read of `n`.
void Answer(ReplicaRouter& router, NodeId n, uint64_t elapsed_ns, uint64_t queue_ns = 0) {
  ShardReadResp resp;
  resp.queue_ns = queue_ns;
  router.OnIssue(n, 1);
  router.OnReply(n, 1, elapsed_ns, &resp);
}

TEST(ReplicaRouter, ModeZeroAlwaysPicksPrimary) {
  SimParams params;
  params.client_read.route_stable_reads = false;
  Rng rng(7);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11, 12};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(router.PickStable(replicas), 10u);
  }
  EXPECT_EQ(stats.routed_reads, 32u);
  EXPECT_EQ(stats.backup_routed, 0u);
}

TEST(ReplicaRouter, PowerOfTwoChoicesSpreadsAcrossReplicas) {
  SimParams params;  // mode 2 default
  Rng rng(42);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11, 12};
  std::map<NodeId, int> picks;
  for (int i = 0; i < 300; ++i) {
    const NodeId n = router.PickStable(replicas);
    picks[n]++;
    // Feed symmetric feedback so no replica ever looks permanently cheaper.
    Answer(router, n, 100 * kUs);
  }
  // All three replicas serve a meaningful share under symmetric costs.
  ASSERT_EQ(picks.size(), 3u);
  for (const auto& [node, count] : picks) {
    EXPECT_GT(count, 30) << "replica " << node << " starved";
  }
  EXPECT_GT(stats.backup_routed, 0u);
  EXPECT_LT(stats.backup_routed, stats.routed_reads);
}

TEST(ReplicaRouter, AvoidsSlowReplicaAfterFeedback) {
  SimParams params;
  Rng rng(9);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  const std::vector<NodeId> replicas = {10, 11};
  // Teach the router: replica 11 is 50x slower than replica 10.
  for (int i = 0; i < 8; ++i) {
    Answer(router, 10, 20 * kUs);
    Answer(router, 11, 1 * kMs);
  }
  int slow_picks = 0;
  for (int i = 0; i < 200; ++i) {
    if (router.PickStable(replicas) == 11u) {
      slow_picks++;
    }
  }
  // p2c with a huge cost gap routes essentially everything to the fast replica; the
  // residual slow picks come only from both-choices-identical draws (impossible with
  // two replicas: the two choices are always distinct).
  EXPECT_EQ(slow_picks, 0);
  // Server-side queue feedback counts toward the cost estimate like RTT does.
  Answer(router, 10, 20 * kUs, /*queue_ns=*/10 * kMs);
  EXPECT_GT(router.Score(10), router.Score(11));
}

TEST(ReplicaRouter, InflightPenaltyShedsLoad) {
  SimParams params;
  Rng rng(3);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  // Equal EWMAs, but replica 10 has a pile of our own unanswered reads.
  for (NodeId n : {10u, 11u}) {
    Answer(router, n, 100 * kUs);
  }
  for (int i = 0; i < 4; ++i) {
    router.OnIssue(10, 1);
  }
  EXPECT_GT(router.Score(10), router.Score(11));
}

TEST(ReplicaRouter, DeadlineCoversTheReplyAndReadsAheadOfIt) {
  SimParams params;
  Rng rng(5);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  // A one-record read gets little more than the fixed slack.
  const uint64_t one = router.OnIssue(10, 1);
  EXPECT_GE(one, kReadDeadlineSlackNs);
  EXPECT_LT(one, kReadDeadlineSlackNs + 10 * kUs);
  // A chunk queued behind 3 others at the same replica is given the time all 4 need.
  const uint64_t chunk = 256;
  for (int i = 0; i < 3; ++i) {
    router.OnIssue(11, chunk);
  }
  const uint64_t fourth = router.OnIssue(11, chunk);
  EXPECT_EQ(fourth, ReadDeadlineNs(params, 4 * chunk * ReplicaRouter::kAssumedRecordBytes, 0));
  // 1 MiB of 4 KB records costs ~0.5 ms of shard CPU plus ~0.3 ms on the NIC.
  EXPECT_GT(fourth, kReadDeadlineSlackNs + 4 * 800 * kUs);
  // Answered reads stop counting, and reveal a record size above the assumed one.
  ShardReadResp resp;
  resp.records.push_back(PositionedRecord{0, Record{{}, Buf(std::string(16384, 'x'))}});
  for (int i = 0; i < 4; ++i) {
    router.OnReply(11, chunk, 100 * kUs, &resp);
  }
  EXPECT_EQ(router.OnIssue(11, chunk), ReadDeadlineNs(params, chunk * 16384, 0));
}

TEST(ReplicaRouter, MissesDoubleTheDeadlineUpToTheRpcTimeout) {
  SimParams params;
  Rng rng(5);
  ReadPathStats stats;
  ReplicaRouter router(&params, &rng, &stats);
  uint64_t deadline = router.OnIssue(10, 1);
  for (int miss = 1; miss <= 8; ++miss) {
    router.OnReply(10, 1, deadline, nullptr);
    const uint64_t next = router.OnIssue(10, 1);
    EXPECT_EQ(next, std::min(2 * deadline, params.rpc_timeout_ns)) << "miss " << miss;
    deadline = next;
  }
  EXPECT_EQ(deadline, params.rpc_timeout_ns);
  // Any answer resets the backoff; other replicas never shared it.
  ShardReadResp resp;
  router.OnReply(10, 1, 100 * kUs, &resp);
  EXPECT_LT(router.OnIssue(10, 1), 3 * kMs);
  EXPECT_LT(router.OnIssue(11, 1), 3 * kMs);
}

// --- TailCache ------------------------------------------------------------------------

TEST(TailCache, MaxMergeAndTtl) {
  TailCache cache;
  LogPos d = 0, s = 0;
  EXPECT_FALSE(cache.Get(100, &d, &s)) << "empty cache served a tail";

  cache.Note(/*now=*/1000, /*durable=*/50, /*stable=*/40);
  cache.Note(/*now=*/2000, /*durable=*/45, /*stable=*/42);  // durable regression ignored
  ASSERT_TRUE(cache.Get(2500, &d, &s));
  EXPECT_EQ(d, 50u);  // max-merged: a late, lower sample never shrinks the cache
  EXPECT_EQ(s, 42u);

  // Past the TTL the cache refuses to serve, but the monotone values remain readable
  // through the raw accessors (routing decisions do not need freshness).
  EXPECT_FALSE(cache.Get(2000 + 2 * kMs, &d, &s));
  EXPECT_EQ(cache.stable(), 42u);
  EXPECT_EQ(cache.durable(), 50u);
}

// --- ReadAheadCache -------------------------------------------------------------------

PositionedRecord Rec(LogPos pos) {
  PositionedRecord r;
  r.pos = pos;
  r.record.payload = Buf("r" + std::to_string(pos));
  return r;
}

TEST(ReadAheadCache, ServesContiguousPrefixAndDropsBehind) {
  ReadAheadCache cache;
  cache.Insert({Rec(5), Rec(6), Rec(7), Rec(9)}, /*cap=*/16);
  std::vector<PositionedRecord> out;
  // Wrong start: nothing served, nothing dropped.
  EXPECT_EQ(cache.TakePrefix(4, 3, &out), 0u);
  EXPECT_EQ(cache.size(), 4u);
  // Contiguous run 5..7 serves 3 then stops at the 8-gap; served entries are dropped.
  EXPECT_EQ(cache.TakePrefix(5, 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].pos, 5u);
  EXPECT_EQ(out[2].pos, 7u);
  EXPECT_FALSE(cache.Covers(5));
  EXPECT_TRUE(cache.Covers(9));
}

TEST(ReadAheadCache, CapEvictsOldestPositions) {
  ReadAheadCache cache;
  cache.Insert({Rec(1), Rec(2), Rec(3), Rec(4)}, /*cap=*/2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Covers(1));
  EXPECT_FALSE(cache.Covers(2));
  EXPECT_TRUE(cache.Covers(3));
  EXPECT_TRUE(cache.Covers(4));
}

// --- cluster integration --------------------------------------------------------------

ErwinClusterOptions Options(ErwinMode mode, bool route_stable_reads) {
  ErwinClusterOptions opt;
  opt.mode = mode;
  opt.num_shards = 2;
  opt.shard_replication = 3;
  opt.with_control_plane = true;
  opt.params.client_read.route_stable_reads = route_stable_reads;
  return opt;
}

// Appends `n` records and runs until the whole log is stable (checked via CheckTail).
void FillLog(ErwinCluster& cluster, SharedLogClient& client, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), client, "rec-" + std::to_string(i)));
  }
  for (int round = 0; round < 50; ++round) {
    const TailResult tail = TailSyncly(cluster.loop(), client);
    if (tail.status.ok() && tail.stable >= n) {
      return;
    }
    cluster.RunFor(5 * kMs);
  }
  FAIL() << "log never stabilized at " << n;
}

uint64_t TotalBackupReads(ErwinCluster& cluster) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      total += cluster.shard(s, r).stats().backup_reads;
    }
  }
  return total;
}

uint64_t TotalMultiRangeReads(ErwinCluster& cluster) {
  uint64_t total = 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < cluster.shard_size(s); ++r) {
      total += cluster.shard(s, r).stats().multirange_reads;
    }
  }
  return total;
}

TEST(ReadRouting, StRoutedReadsHitBackupsAndStayCorrect) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*route_stable_reads=*/true));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 48;
  FillLog(cluster, *client, kN);

  // Many independent ranged reads so p2c has real choices to make.
  std::set<std::string> seen;
  for (int pass = 0; pass < 6; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "pass " << pass;
    ASSERT_EQ(recs->size(), kN);
    for (const auto& rec : *recs) {
      seen.insert(rec.record.payload.ToString());
    }
  }
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen.count("rec-" + std::to_string(i)), 1u);
  }

  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.routed_reads, 0u);
  EXPECT_GT(snap.counters.backup_routed, 0u) << "p2c never left the primary";
  EXPECT_GT(snap.counters.coalesced_subs, 0u);
  EXPECT_GT(snap.counters.coalesced_batches, 0u);
  // Server side agrees: backups served reads, through the multi-range RPC.
  EXPECT_GT(TotalBackupReads(cluster), 0u);
  EXPECT_GT(TotalMultiRangeReads(cluster), 0u);
}

TEST(ReadRouting, ModeZeroPinsEveryReadToThePrimary) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*route_stable_reads=*/false));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 24;
  FillLog(cluster, *client, kN);
  for (int pass = 0; pass < 4; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value());
    ASSERT_EQ(recs->size(), kN);
  }
  EXPECT_EQ(client->ReadPathSnapshot().counters.backup_routed, 0u);
  EXPECT_EQ(TotalBackupReads(cluster), 0u);
}

TEST(ReadRouting, ChunkingSplitsLargeReadsIntoPipelinedRpcs) {
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*route_stable_reads=*/true);
  opt.params.client_read.read_chunk_records = 4;  // force chunking on small reads
  opt.params.client_read.readahead_records = 0;   // isolate the chunk counters
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 32;
  FillLog(cluster, *client, kN);
  auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ((*recs)[i].pos, i);
  }
  // 32 records over 2 shards at <=4 records per RPC means several chunk RPCs beyond
  // the first per shard-run.
  EXPECT_GT(client->ReadPathSnapshot().counters.chunk_rpcs, 0u);
}

TEST(ReadRouting, TailCacheAnswersAfterReadPiggyback) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*route_stable_reads=*/true));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 8;
  FillLog(cluster, *client, kN);
  ASSERT_TRUE(ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec).has_value());

  // The read replies piggybacked the serving replica's tails: CachedTail answers
  // without an RPC while fresh...
  LogPos durable = 0, stable = 0;
  ASSERT_TRUE(client->CachedTail(&durable, &stable));
  EXPECT_GE(stable, kN);
  EXPECT_GE(durable, stable);
  EXPECT_GT(client->ReadPathSnapshot().counters.tail_cache_hits, 0u);

  // ...and refuses once the TTL lapses with no traffic refreshing it.
  cluster.RunFor(TailCache::kTtlNs + 1 * kMs);
  EXPECT_FALSE(client->CachedTail(&durable, &stable));
}

TEST(ReadRouting, SequentialReaderHitsReadahead) {
  ErwinCluster cluster(Options(ErwinMode::kSt, /*route_stable_reads=*/true));
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 40;
  FillLog(cluster, *client, kN);

  // A sequential single-record reader: after the first fetch the prefetcher should be
  // feeding the cursor from the client-side cache.
  for (uint64_t pos = 0; pos < kN; ++pos) {
    auto recs = ReadSyncly(cluster.loop(), *client, pos, 1, 10 * kSec);
    ASSERT_TRUE(recs.has_value()) << "pos " << pos;
    ASSERT_EQ(recs->size(), 1u);
    EXPECT_EQ((*recs)[0].record.payload.ToString(), "rec-" + std::to_string(pos));
  }
  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.readahead_fetched, 0u);
  EXPECT_GT(snap.counters.readahead_hits, 0u);
}

TEST(ReadRouting, PosmapReadaheadParamAmortizesFetches) {
  // posmap_readahead is the fetch-span floor: a sequential single-record reader with a
  // span of 4 needs a mapping RPC every 4 positions, while the default span covers the
  // whole scan in one fetch. Record prefetch is disabled so only the mapping path runs.
  auto scan = [](uint64_t span) {
    ErwinClusterOptions opts = Options(ErwinMode::kSt, /*route_stable_reads=*/true);
    opts.params.client_read.posmap_readahead = span;
    opts.params.client_read.readahead_records = 0;
    ErwinCluster cluster(opts);
    auto client = cluster.MakeStClient();
    constexpr uint64_t kN = 24;
    FillLog(cluster, *client, kN);
    for (uint64_t pos = 0; pos < kN; ++pos) {
      auto recs = ReadSyncly(cluster.loop(), *client, pos, 1, 10 * kSec);
      EXPECT_TRUE(recs.has_value()) << "pos " << pos;
      if (recs.has_value()) {
        EXPECT_EQ((*recs)[0].record.payload.ToString(), "rec-" + std::to_string(pos));
      }
    }
    return client->posmap_fetches();
  };
  const uint64_t small_span_fetches = scan(4);
  const uint64_t default_span_fetches = scan(1024);
  EXPECT_GE(small_span_fetches, 24u / 4) << "posmap_readahead=4 not honored";
  EXPECT_LT(default_span_fetches, small_span_fetches);
}

// Reads [from, from+len) in one Read and checks every position and payload prefix.
void ExpectExactRead(ErwinCluster& cluster, SharedLogClient& client, LogPos from,
                     uint64_t len, const std::string& prefix) {
  auto recs = ReadSyncly(cluster.loop(), client, from, len, 10 * kSec);
  ASSERT_TRUE(recs.has_value()) << "read of [" << from << "," << from + len << ") failed";
  ASSERT_EQ(recs->size(), len);
  for (uint64_t i = 0; i < len; ++i) {
    ASSERT_EQ((*recs)[i].pos, from + i);
    const std::string head = prefix + std::to_string(from + i) + ".";
    ASSERT_EQ((*recs)[i].record.payload.ToString().substr(0, head.size()), head);
  }
}

// Appends `n` records of `bytes` bytes each: "<prefix><i>." padded with 'x'.
void FillPadded(ErwinCluster& cluster, SharedLogClient& client, uint64_t n, size_t bytes,
                const std::string& prefix) {
  for (uint64_t i = 0; i < n; ++i) {
    std::string payload = prefix + std::to_string(i) + ".";
    payload.resize(bytes, 'x');
    ASSERT_TRUE(AppendSyncly(cluster.loop(), client, std::move(payload)));
  }
  cluster.RunFor(100 * kMs);  // every replica's stable-gp covers the whole log
}

TEST(ReadRouting, LargeStableReadOnHealthyClusterSucceeds) {
  // ~1100 x 4 KB records per shard: the shard needs ~2.4 ms of CPU to serialize them,
  // and a 256-record chunk queued behind 3 others of the same read finishes only after
  // ~2 ms. Each chunk's deadline covers the chunks ahead of it, so no healthy chunk
  // misses and the whole read succeeds at its first attempt.
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*route_stable_reads=*/true);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 2200;
  FillPadded(cluster, *client, kN, 4096, "big-");
  const uint64_t timeouts = client->rpc_stats().timeouts;
  ExpectExactRead(cluster, *client, 0, kN, "big-");
  EXPECT_EQ(client->rpc_stats().timeouts, timeouts) << "a healthy chunk missed its deadline";
  EXPECT_GT(client->ReadPathSnapshot().counters.chunk_rpcs, 4u);
}

TEST(ReadRouting, LargeIndexPathReadOnHealthyClusterSucceeds) {
  // A named-log read goes through the index tier and fetches each shard's records in
  // one unchunked RPC: ~800 x 4 KB records per shard take ~2.7 ms to serialize and
  // send. That fetch's deadline covers its records, so nothing misses and the read is
  // served by the index path, not the full-scan fallback.
  ErwinCluster cluster(Options(ErwinMode::kSt, /*route_stable_reads=*/true));
  const LogId big_id = cluster.CreateLog("big");
  ASSERT_NE(big_id, kDefaultLog);
  cluster.RunFor(5 * kMs);  // the controller pushes the registry to the replicas
  auto client = cluster.MakeStClient();
  LogHandle big = OpenSyncly(cluster.loop(), *client, "big");
  ASSERT_TRUE(big.valid());
  constexpr uint64_t kN = 1600;
  for (uint64_t i = 0; i < kN; ++i) {
    std::string payload = "big-" + std::to_string(i) + ".";
    payload.resize(4096, 'x');
    ASSERT_TRUE(AppendSyncly(cluster.loop(), big, std::move(payload)));
  }
  cluster.RunFor(100 * kMs);  // ordering + index propagation
  const uint64_t timeouts = client->rpc_stats().timeouts;
  auto recs = ReadSyncly(cluster.loop(), big, 0, kN);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    const std::string head = "big-" + std::to_string(i) + ".";
    ASSERT_EQ((*recs)[i].pos, i);
    ASSERT_EQ((*recs)[i].record.payload.ToString().substr(0, head.size()), head);
  }
  EXPECT_EQ(client->rpc_stats().timeouts, timeouts) << "an index-path fetch missed";
}

TEST(ReadRouting, RecordsLargerThanAssumedStillRead) {
  // 16 KB records are 4x the size the router assumes before its first reply, so the
  // first attempt's chunks miss their deadlines; each miss doubles the replica's next
  // deadline, and a retry gets through and teaches the router the real size.
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*route_stable_reads=*/true);
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto client = cluster.MakeStClient();
  constexpr uint64_t kN = 1200;
  FillPadded(cluster, *client, kN, 16384, "huge-");
  ExpectExactRead(cluster, *client, 0, kN, "huge-");
  EXPECT_GT(client->rpc_stats().timeouts, 0u) << "the first attempt should have missed";
  // Learned: once the replicas have drained the missed chunks they still serialized,
  // the same read again misses nothing.
  cluster.RunFor(100 * kMs);
  const uint64_t timeouts = client->rpc_stats().timeouts;
  ExpectExactRead(cluster, *client, 0, kN, "huge-");
  EXPECT_EQ(client->rpc_stats().timeouts, timeouts);
}

TEST(ReadRouting, ColdClientMapsALongLogInOneFetch) {
  // A fresh Erwin-st client reading far into the log asks shard 0 for the position map
  // of the whole prefix in one fetch. With the NICs slowed to 20 MB/s, 8000 positions
  // (64 KB of map) take ~3.2 ms to send, more than the fixed read slack: the fetch
  // deadline must grow with the span or every replica misses it.
  ErwinClusterOptions opt = Options(ErwinMode::kSt, /*route_stable_reads=*/true);
  opt.params.net.bandwidth_bytes_per_sec = 20e6;
  opt.params.client_read.readahead_records = 0;
  ErwinCluster cluster(opt);
  auto writer = cluster.MakeStClient();
  constexpr uint64_t kN = 8000;
  FillPadded(cluster, *writer, kN, 16, "p");
  auto reader = cluster.MakeStClient();
  ExpectExactRead(cluster, *reader, kN - 2, 2, "p");
  EXPECT_EQ(reader->posmap_fetches(), 1u);
  EXPECT_EQ(reader->rpc_stats().timeouts, 0u);
}

TEST(ReadRouting, MModeRoutesStableReadsAndFallsBackAboveStable) {
  ErwinCluster cluster(Options(ErwinMode::kM, /*route_stable_reads=*/true));
  auto client = cluster.MakeMClient();
  constexpr uint64_t kN = 36;
  FillLog(cluster, *client, kN);

  // The CheckTail in FillLog primed the tail cache, so the whole prefix is known
  // stable and every sub goes through the router.
  std::set<std::string> seen;
  for (int pass = 0; pass < 6; ++pass) {
    auto recs = ReadSyncly(cluster.loop(), *client, 0, kN, 10 * kSec);
    ASSERT_TRUE(recs.has_value());
    ASSERT_EQ(recs->size(), kN);
    for (const auto& rec : *recs) {
      seen.insert(rec.record.payload.ToString());
    }
  }
  EXPECT_EQ(seen.size(), kN);
  const ReadPathStatsSnapshot snap = client->ReadPathSnapshot();
  EXPECT_GT(snap.counters.routed_reads, 0u);
  EXPECT_GT(snap.counters.backup_routed, 0u);
  EXPECT_GT(TotalBackupReads(cluster), 0u);

  // A reader with no stable knowledge (fresh client, no CheckTail yet) must still be
  // correct: its subs take the classic waiting-primary path.
  auto fresh = cluster.MakeMClient();
  auto recs = ReadSyncly(cluster.loop(), *fresh, 0, kN, 10 * kSec);
  ASSERT_TRUE(recs.has_value());
  ASSERT_EQ(recs->size(), kN);
  EXPECT_GT(fresh->ReadPathSnapshot().counters.primary_reads, 0u);
}

TEST(ReadRouting, SnapshotFieldsExportEveryCounter) {
  ReadPathStatsSnapshot snap;
  snap.counters.routed_reads = 3;
  snap.counters.backup_routed = 2;
  std::set<std::string> names;
  for (const auto& [name, value] : snap.Fields()) {
    names.insert(name);
    if (name == "routed_reads") {
      EXPECT_EQ(value, 3.0);
    }
  }
  for (const char* required :
       {"routed_reads", "backup_routed", "primary_reads", "coalesced_batches",
        "coalesced_subs", "chunk_rpcs", "clipped_resends", "tail_cache_hits",
        "readahead_hits", "readahead_fetched"}) {
    EXPECT_EQ(names.count(required), 1u) << required;
  }
}

}  // namespace
}  // namespace lazylog
