// ShardServer tests, driven over the wire: black-box mode (ordered batches,
// replication, stable-gp gating, slow-path wakeup, trim, recovery overwrite) and
// Erwin-st mode (unordered puts, metadata binding, no-op timeout, late-put rejection,
// position map, backup repair, promotion back-fill), and the CPU charge of served
// replies.
#include <gtest/gtest.h>

#include "src/storage/shard_server.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

class ShardHarness {
 public:
  ShardHarness(ShardMode mode, uint32_t replicas = 2, SimParams params = {})
      : params_(std::move(params)), net_(&loop_, params_.net, 1) {
    for (uint32_t r = 0; r < replicas; ++r) {
      servers_.push_back(std::make_unique<ShardServer>(&net_, params_, mode, /*shard_id=*/0));
      ids_.push_back(servers_.back()->node_id());
    }
    for (auto& s : servers_) {
      s->SetReplicaSet(ids_);
    }
    client_ = std::make_unique<RpcEndpoint>(&net_);
  }

  // An ordering window whose span runs from `lo` to one past `last`, the first and last
  // positions the test puts in it.
  static ShardWindowReq Window(ViewId view, LogPos lo, LogPos last, bool overwrite = false,
                               LogPos truncate_from = 0) {
    ShardWindowReq req;
    req.view = view;
    req.overwrite = overwrite;
    req.truncate_from = truncate_from;
    req.range_lo = lo;
    req.range_hi = last + 1;
    return req;
  }

  // Sends a record window to the primary and waits for the ack.
  Status AppendBatch(ViewId view, std::vector<PositionedRecord> records,
                     bool overwrite = false, LogPos truncate_from = 0) {
    ShardWindowReq req =
        Window(view, records.front().pos, records.back().pos, overwrite, truncate_from);
    req.records = std::move(records);
    return SendWindow(req, 10 * kSec);
  }

  // Sends a metadata window to the primary and waits for the ack.
  Status OrderMeta(ViewId view, std::vector<MetaEntry> entries, bool overwrite = false,
                   LogPos truncate_from = 0, uint64_t budget_ns = 10 * kSec) {
    ShardWindowReq req =
        Window(view, entries.front().pos, entries.back().pos, overwrite, truncate_from);
    req.entries = std::move(entries);
    return SendWindow(req, budget_ns);
  }

  Status SendWindow(const ShardWindowReq& req, uint64_t budget_ns) {
    Status out = Status::Internal("pending");
    bool done = false;
    client_->CallMsg(ids_[0], kShardWindow, req,
                     [&](Status s, Decoder) {
                       out = std::move(s);
                       done = true;
                     },
                     30 * kSec);
    RunUntilDone(loop_, done, budget_ns);
    return out;
  }

  Status PutData(const RecordId& id, const std::string& payload, size_t replica = 0) {
    ShardPutDataReq req{id, payload};
    Status out = Status::Internal("pending");
    bool done = false;
    client_->CallMsg(ids_[replica], kShardPutData, req,
                     [&](Status s, Decoder) {
                       out = std::move(s);
                       done = true;
                     },
                     kSec);
    RunUntilDone(loop_, done);
    return out;
  }

  void SetStable(ViewId view, LogPos stable) {
    StableGpMsg msg{view, stable};
    Encoder e;
    msg.Encode(e);
    for (NodeId id : ids_) {
      client_->Call(id, kShardSetStableGp, Buf::Copy(e.data()), nullptr, 0);
    }
    loop_.RunUntil(loop_.Now() + 1 * kMs);
  }

  // One-range read via the wire; returns nullopt on error. Without `wait` the replica
  // answers at once with whatever part of the range is stable.
  std::optional<std::vector<PositionedRecord>> Read(LogPos pos, uint32_t len,
                                                    bool wait = false,
                                                    uint64_t budget_ns = kSec) {
    std::optional<ShardReadResp> resp = ReadRanges({ReadRange{pos, len}}, wait, budget_ns);
    if (!resp) {
      return std::nullopt;
    }
    return std::move(resp->records);
  }

  // Multi-range read of the primary; nullopt on error or while still parked when the
  // budget runs out.
  std::optional<ShardReadResp> ReadRanges(std::vector<ReadRange> ranges, bool wait,
                                          uint64_t budget_ns = kSec) {
    ShardReadReq req{std::move(ranges), wait};
    std::optional<ShardReadResp> out;
    bool done = false;
    client_->CallMsg(ids_[0], kShardRead, req,
                     [&](Status s, Decoder d) {
                       ShardReadResp resp;
                       if (s.ok() && resp.Decode(d)) {
                         out = std::move(resp);
                       }
                       done = true;
                     },
                     0);
    RunUntilDone(loop_, done, budget_ns);
    return out;
  }

  EventLoop loop_;
  SimParams params_;
  Network net_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::vector<NodeId> ids_;
  std::unique_ptr<RpcEndpoint> client_;
};

PositionedRecord PR(LogPos pos, uint64_t rid, const std::string& payload) {
  return PositionedRecord{pos, Record{RecordId{1, rid}, payload, false}};
}

// Shard CPU slowed to copy 1 byte per microsecond, so a reply's byte cost dwarfs the
// request's fixed cost and the network round trip.
SimParams SlowShardCpu() {
  SimParams params;
  params.shard_cpu.copy_bandwidth_bytes_per_sec = 1e6;
  return params;
}

TEST(ShardBlackBox, AppendReplicatesToBackup) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b")}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 2u);
  EXPECT_EQ(h.servers_[1]->ordered_records(), 2u);
  ASSERT_NE(h.servers_[1]->RecordAt(1), nullptr);
  EXPECT_EQ(h.servers_[1]->RecordAt(1)->payload, "b");
}

TEST(ShardBlackBox, ReadGatedOnStableGp) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  // Not stable yet: a non-waiting read is answered at once and serves nothing.
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
  h.SetStable(1, 1);
  r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].record.payload, "a");
  EXPECT_EQ(h.servers_[0]->stats().fast_reads, 2u);  // neither read waited
}

TEST(ShardBlackBox, SlowPathWokenByStableAdvance) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  bool done = false;
  std::vector<PositionedRecord> records;
  ShardReadReq req{{ReadRange{0, 1}}, /*wait=*/true};
  h.client_->CallMsg(h.ids_[0], kShardRead, req,
                     [&](Status s, Decoder d) {
                       ASSERT_TRUE(s.ok());
                       ShardReadResp resp;
                       ASSERT_TRUE(resp.Decode(d));
                       records = std::move(resp.records);
                       done = true;
                     },
                     0);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(done);  // still parked
  h.SetStable(1, 1);
  RunUntilDone(h.loop_, done);
  ASSERT_TRUE(done);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 1u);
}

// A waiting multi-range read parks on its first range alone. Once stable-gp passes
// that range's start, the replica serves every range, each clipped at stable.
TEST(ShardBlackBox, MultiRangeWaitReadParksOnFirstRangeThenClipsAtStable) {
  ShardHarness h(ShardMode::kBlackBox);
  std::vector<PositionedRecord> batch;
  for (uint64_t i = 0; i < 8; ++i) {
    batch.push_back(PR(i, i + 1, "r" + std::to_string(i)));
  }
  ASSERT_TRUE(h.AppendBatch(1, batch).ok());
  h.SetStable(1, 1);  // position 0 is stable; the first range's start (2) is not
  bool done = false;
  ShardReadResp resp;
  ShardReadReq req{{ReadRange{2, 2}, ReadRange{5, 3}, ReadRange{0, 1}}, /*wait=*/true};
  h.client_->CallMsg(h.ids_[0], kShardRead, req,
                     [&](Status s, Decoder d) {
                       ASSERT_TRUE(s.ok());
                       ASSERT_TRUE(resp.Decode(d));
                       done = true;
                     },
                     0);
  h.loop_.RunUntil(h.loop_.Now() + 10 * kMs);
  EXPECT_FALSE(done);  // parked, although its last range is already stable
  h.SetStable(1, 6);   // passes 2, 3 and 5, not 6 and 7
  RunUntilDone(h.loop_, done);
  ASSERT_TRUE(done);
  EXPECT_EQ(resp.counts, (std::vector<uint32_t>{2, 1, 1}));
  std::vector<LogPos> got;
  for (const PositionedRecord& pr : resp.records) {
    got.push_back(pr.pos);
  }
  EXPECT_EQ(got, (std::vector<LogPos>{2, 3, 5, 0}));
  EXPECT_EQ(resp.stable_gp, 6u);
  EXPECT_EQ(h.servers_[0]->stats().slow_reads, 1u);
}

TEST(ShardBlackBox, RangedReadStopsAtStable) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b"), PR(2, 3, "c")}).ok());
  h.SetStable(1, 2);  // only positions 0 and 1 stable
  auto r = h.Read(0, 3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ShardBlackBox, IndexDeltaPullPaysItsByteCost) {
  ShardHarness h(ShardMode::kBlackBox, 2, SlowShardCpu());
  constexpr uint64_t kN = 128;
  std::vector<PositionedRecord> records;
  for (uint64_t i = 0; i < kN; ++i) {
    PositionedRecord pr = PR(i, i + 1, "t");
    pr.record.tag = 7;
    records.push_back(std::move(pr));
  }
  ASSERT_TRUE(h.AppendBatch(1, std::move(records)).ok());
  h.SetStable(1, kN);
  h.loop_.RunUntil(h.loop_.Now() + 100 * kMs);  // the shard CPU drains
  const SimTime t0 = h.loop_.Now();
  SimTime replied = 0;
  size_t entries = 0;
  bool done = false;
  h.client_->CallMsg(h.ids_[0], kShardIndexDelta, ShardIndexDeltaReq{0, 4096},
                     [&](Status s, Decoder d) {
                       ShardIndexDeltaResp resp;
                       ASSERT_TRUE(s.ok() && resp.Decode(d));
                       entries = resp.entries.size();
                       replied = h.loop_.Now();
                       done = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_EQ(entries, kN);
  EXPECT_GE(replied - t0, kN * sizeof(TagIndexEntry) * kUs)
      << "the delta reply was not charged its entries' bytes";
}

TEST(ShardBlackBox, DuplicatePushIsIdempotent) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b")}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 2u);
}

TEST(ShardBlackBox, StaleViewRejected) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(5, {PR(0, 1, "a")}).ok());
  // The shard's view doubles as the epoch fence: an older view is told STALE_VIEW so it
  // re-resolves the configuration instead of treating the shard as misconfigured.
  EXPECT_EQ(h.AppendBatch(3, {PR(1, 2, "b")}).code(), StatusCode::kStaleView);
}

TEST(ShardBlackBox, SealFencesOldViewUntilRecoveryFlush) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a")}).ok());

  // The controller seals the shard into view 2: the old leader's pushes must bounce
  // with STALE_VIEW even though nothing in view 2 has arrived yet.
  ShardSealReq seal{2};
  Status sealed = Status::Internal("pending");
  bool done = false;
  h.client_->CallMsg(h.ids_[0], kShardSeal, seal,
                     [&](Status s, Decoder) {
                       sealed = std::move(s);
                       done = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(h.AppendBatch(1, {PR(1, 2, "b")}).code(), StatusCode::kStaleView);

  // The new view's recovery flush passes the fence and serves reads.
  ASSERT_TRUE(h.AppendBatch(2, {PR(1, 2, "b")}).ok());
  h.SetStable(2, 2);
  auto r = h.Read(0, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ShardBlackBox, RecoveryOverwriteRewritesTail) {
  ShardHarness h(ShardMode::kBlackBox);
  ASSERT_TRUE(h.AppendBatch(1, {PR(0, 1, "a"), PR(1, 2, "b"), PR(2, 3, "c")}).ok());
  // Recovery flush in view 2 rewrites positions >= 1 with a different order.
  ASSERT_TRUE(h.AppendBatch(2, {PR(1, 3, "c2"), PR(2, 2, "b2")}, /*overwrite=*/true,
                            /*truncate_from=*/1)
                  .ok());
  h.SetStable(2, 3);
  auto r = h.Read(0, 3);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].record.payload, "a");
  EXPECT_EQ((*r)[1].record.payload, "c2");
  EXPECT_EQ((*r)[2].record.payload, "b2");
  // Backup converged too.
  EXPECT_EQ(h.servers_[1]->RecordAt(1)->payload, "c2");
}

TEST(ShardBlackBox, TrimMakesPrefixUnreadable) {
  ShardHarness h(ShardMode::kBlackBox);
  std::vector<PositionedRecord> batch;
  for (uint64_t i = 0; i < 10; ++i) {
    batch.push_back(PR(i, i, "r" + std::to_string(i)));
  }
  ASSERT_TRUE(h.AppendBatch(1, batch).ok());
  h.SetStable(1, 10);
  TrimMsg trim{5};
  Encoder e;
  trim.Encode(e);
  bool done = false;
  h.client_->Call(h.ids_[0], kShardTrim, e,
                  [&](Status s, Decoder) {
                    EXPECT_TRUE(s.ok());
                    done = true;
                  },
                  kSec);
  RunUntilDone(h.loop_, done);
  EXPECT_FALSE(h.Read(3, 1, /*wait=*/true).has_value());  // OUT_OF_RANGE
  auto r = h.Read(5, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].record.payload, "r5");
}

// --- Erwin-st mode -----------------------------------------------------------------------

TEST(ShardSt, PutThenBindServesRead) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.PutData(RecordId{7, 1}, "data", 0).ok());
  ASSERT_TRUE(h.PutData(RecordId{7, 1}, "data", 1).ok());
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{7, 1}, 0}}).ok());
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ((*r)[0].record.payload, "data");
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 0u);  // moved out of the pool
  EXPECT_EQ(h.servers_[1]->unordered_pool_size(), 0u);
}

TEST(ShardSt, MetaForOtherShardOnlyExtendsPosMap) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{7, 1}, 4}}).ok());
  EXPECT_EQ(h.servers_[0]->ordered_records(), 0u);
  EXPECT_EQ(h.servers_[0]->meta_log_size(), 1u);
}

TEST(ShardSt, MissingDataBecomesNoOpAfterTimeout) {
  ShardHarness h(ShardMode::kStModified);
  // Metadata arrives but the client "crashed" before the data write (§5.4).
  Status s = h.OrderMeta(1, {MetaEntry{0, RecordId{8, 1}, 0}});
  ASSERT_TRUE(s.ok());  // ack waits out the timeout and resolves to no-op
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE((*r)[0].record.no_op);
  EXPECT_GE(h.servers_[0]->stats().noops_created, 1u);
  // The late data write must now be rejected.
  EXPECT_EQ(h.PutData(RecordId{8, 1}, "late", 0).code(), StatusCode::kRejected);
  // And the backup converged to a no-op as well.
  h.loop_.RunUntil(h.loop_.Now() + ShardServer::kStDataTimeoutNs * 3);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_TRUE(h.servers_[1]->RecordAt(0)->no_op);
}

TEST(ShardSt, DataArrivingBeforeTimeoutResolvesBinding) {
  ShardHarness h(ShardMode::kStModified);
  // Order metadata first; data arrives shortly after (network race, §5.4).
  bool meta_done = false;
  ShardWindowReq req = ShardHarness::Window(1, 0, 0);
  req.entries = {MetaEntry{0, RecordId{9, 1}, 0}};
  h.client_->CallMsg(h.ids_[0], kShardWindow, req,
                     [&](Status s, Decoder) {
                       EXPECT_TRUE(s.ok());
                       meta_done = true;
                     },
                     30 * kSec);
  h.loop_.RunUntil(h.loop_.Now() + 100 * kUs);
  EXPECT_FALSE(meta_done);  // binding pending on data
  ASSERT_TRUE(h.PutData(RecordId{9, 1}, "raced", 0).ok());
  ASSERT_TRUE(h.PutData(RecordId{9, 1}, "raced", 1).ok());
  RunUntilDone(h.loop_, meta_done);
  ASSERT_TRUE(meta_done);
  h.SetStable(1, 1);
  auto r = h.Read(0, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE((*r)[0].record.no_op);
  EXPECT_EQ((*r)[0].record.payload, "raced");
  EXPECT_EQ(h.servers_[0]->stats().noops_created, 0u);
}

TEST(ShardSt, BackupRepairsFromPrimary) {
  ShardHarness h(ShardMode::kStModified);
  // Data reaches only the primary (client crashed mid-append); binding on the backup
  // must repair by fetching the record from the primary.
  ASSERT_TRUE(h.PutData(RecordId{10, 1}, "only-primary", 0).ok());
  ASSERT_TRUE(h.OrderMeta(1, {MetaEntry{0, RecordId{10, 1}, 0}}).ok());
  h.loop_.RunUntil(h.loop_.Now() + 4 * ShardServer::kStDataTimeoutNs);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_FALSE(h.servers_[1]->RecordAt(0)->no_op);
  EXPECT_EQ(h.servers_[1]->RecordAt(0)->payload, "only-primary");
}

// A backup whose fetches fail keeps asking. The backup is cut off from the primary for
// two fetch attempts while the primary binds the record's late data; once the link
// heals, the next attempt must bring the data over instead of leaving the placeholder
// no-op that routed stable reads would serve.
TEST(ShardSt, BackupRepairOutlastsFailedFetches) {
  ShardHarness h(ShardMode::kStModified);
  const RecordId id{13, 1};
  ShardWindowReq req = ShardHarness::Window(1, 0, 0);
  req.entries = {MetaEntry{0, id, 0}};
  h.client_->CallMsg(h.ids_[0], kShardWindow, req, nullptr, 0);
  h.loop_.RunUntil(h.loop_.Now() + 200 * kUs);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);  // bound, data pending on both
  const SimTime bound_at = h.loop_.Now();

  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], true);
  ASSERT_TRUE(h.PutData(id, "late", 0).ok());  // primary resolves before its timeout
  ASSERT_FALSE(h.servers_[0]->RecordAt(0)->no_op);
  const uint64_t attempt = ShardServer::kStDataTimeoutNs + h.params_.rpc_timeout_ns;
  h.loop_.RunUntil(bound_at + 2 * attempt + ShardServer::kStDataTimeoutNs / 2);
  EXPECT_TRUE(h.servers_[1]->RecordAt(0)->no_op);  // two fetches lost so far

  h.net_.SetPartitioned(h.ids_[0], h.ids_[1], false);
  h.loop_.RunUntil(h.loop_.Now() + 2 * attempt);
  ASSERT_NE(h.servers_[1]->RecordAt(0), nullptr);
  EXPECT_FALSE(h.servers_[1]->RecordAt(0)->no_op);
  EXPECT_EQ(h.servers_[1]->RecordAt(0)->payload, "late");
  EXPECT_EQ(h.servers_[1]->stats().noops_created, 0u);
}

// Promotion back-fill: the primary dies after replicating a window whose record's data
// never reached it. Both survivors hold a pending binding; replica 1 is promoted with
// order [r1, r2] and walks its peers for the binding before falling back to a no-op.
class PromotionBackfill : public ::testing::Test {
 protected:
  PromotionBackfill() : h_(ShardMode::kStModified, /*replicas=*/3) {}

  // Binds position 0 to `id_` on every replica, then crashes the primary before its
  // no-op timer can decide anything.
  void BindThenCrashPrimary() {
    ShardWindowReq req = ShardHarness::Window(1, 0, 0);
    req.entries = {MetaEntry{0, id_, 0}};
    h_.client_->CallMsg(h_.ids_[0], kShardWindow, req, nullptr, 0);
    h_.loop_.RunUntil(h_.loop_.Now() + 200 * kUs);
    for (const auto& server : h_.servers_) {
      ASSERT_NE(server->RecordAt(0), nullptr);
    }
    h_.net_.Crash(h_.ids_[0]);
  }

  // The controller's promote, sent to both survivors: order [r1, r2], both caught up.
  void Promote() {
    ShardPromoteReq promote;
    promote.promo_epoch = 1;
    promote.order = {h_.ids_[1], h_.ids_[2]};
    promote.peer_applied = {1, 1};
    int acks = 0;
    for (size_t r = 1; r < 3; ++r) {
      h_.client_->CallMsg(h_.ids_[r], kShardPromote, promote,
                          [&acks](Status s, Decoder) {
                            EXPECT_TRUE(s.ok());
                            ++acks;
                          },
                          kSec);
    }
    h_.loop_.RunUntil(h_.loop_.Now() + 100 * kUs);
    ASSERT_EQ(acks, 2);
    ASSERT_EQ(h_.servers_[1]->stats().promotions, 1u);
  }

  ShardHarness h_;
  const RecordId id_{14, 1};
};

TEST_F(PromotionBackfill, PromotedPrimaryFetchesRecordFromPeer) {
  ASSERT_TRUE(h_.PutData(id_, "only-r2", 2).ok());
  BindThenCrashPrimary();
  ASSERT_FALSE(h_.servers_[2]->RecordAt(0)->no_op);  // r2 bound the real record
  ASSERT_TRUE(h_.servers_[1]->RecordAt(0)->no_op);   // r1 holds the placeholder
  Promote();
  h_.loop_.RunUntil(h_.loop_.Now() + ShardServer::kStDataTimeoutNs / 2);
  const Record* rec = h_.servers_[1]->RecordAt(0);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->no_op);
  EXPECT_EQ(rec->payload, "only-r2");
  EXPECT_EQ(h_.servers_[1]->stats().handoff_records_refetched, 1u);
  // It stays bound: no no-op timer fires later.
  h_.loop_.RunUntil(h_.loop_.Now() + 3 * ShardServer::kStDataTimeoutNs);
  EXPECT_FALSE(h_.servers_[1]->RecordAt(0)->no_op);
  EXPECT_EQ(h_.servers_[1]->stats().noops_created, 0u);
}

TEST_F(PromotionBackfill, NoPeerHasDataSoPromotedPrimaryNoOpsAfterTimeout) {
  BindThenCrashPrimary();
  Promote();
  // r2 is still pending too, so the walk ends at the no-op timer.
  h_.loop_.RunUntil(h_.loop_.Now() + ShardServer::kStDataTimeoutNs / 2);
  EXPECT_EQ(h_.servers_[1]->stats().noops_created, 0u);
  h_.loop_.RunUntil(h_.loop_.Now() + ShardServer::kStDataTimeoutNs);
  EXPECT_EQ(h_.servers_[1]->stats().noops_created, 1u);
  EXPECT_TRUE(h_.servers_[1]->RecordAt(0)->no_op);
  EXPECT_EQ(h_.servers_[1]->stats().handoff_records_refetched, 0u);
  // The decision reached r2, whose late data write is now refused.
  EXPECT_EQ(h_.servers_[2]->stats().noops_created, 1u);
  EXPECT_TRUE(h_.servers_[2]->RecordAt(0)->no_op);
  EXPECT_EQ(h_.PutData(id_, "late", 2).code(), StatusCode::kRejected);
}

TEST(ShardSt, PosMapServedUpToStable) {
  ShardHarness h(ShardMode::kStModified);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.PutData(RecordId{11, i + 1}, "d", 0).ok());
    ASSERT_TRUE(h.PutData(RecordId{11, i + 1}, "d", 1).ok());
  }
  std::vector<MetaEntry> entries;
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back(MetaEntry{i, RecordId{11, i + 1}, static_cast<ShardId>(i % 2)});
  }
  ASSERT_TRUE(h.OrderMeta(1, entries).ok());
  h.SetStable(1, 3);  // only 3 stable
  ShardPosMapReq req{0, 10};
  std::vector<uint64_t> ids;
  bool done = false;
  h.client_->CallMsg(h.ids_[0], kShardPosMap, req,
                     [&](Status s, Decoder d) {
                       ASSERT_TRUE(s.ok());
                       ShardPosMapResp resp;
                       ASSERT_TRUE(resp.Decode(d));
                       ids = resp.shard_ids;
                       done = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 1u);
  EXPECT_EQ(ids[2], 0u);
}

TEST(ShardSt, PosMapFetchPaysItsByteCost) {
  ShardHarness h(ShardMode::kStModified, 2, SlowShardCpu());
  constexpr uint32_t kN = 256;
  // Entries of another shard only extend this shard's position map; no data needed.
  std::vector<MetaEntry> entries;
  for (uint64_t i = 0; i < kN; ++i) {
    entries.push_back(MetaEntry{i, RecordId{13, i + 1}, /*shard=*/1});
  }
  ASSERT_TRUE(h.OrderMeta(1, entries).ok());
  h.SetStable(1, kN);
  h.loop_.RunUntil(h.loop_.Now() + 100 * kMs);  // the shard CPU drains
  const SimTime t0 = h.loop_.Now();
  SimTime replied = 0;
  size_t mapped = 0;
  bool done = false;
  h.client_->CallMsg(h.ids_[0], kShardPosMap, ShardPosMapReq{0, kN},
                     [&](Status s, Decoder d) {
                       ShardPosMapResp resp;
                       ASSERT_TRUE(s.ok() && resp.Decode(d));
                       mapped = resp.shard_ids.size();
                       replied = h.loop_.Now();
                       done = true;
                     },
                     kSec);
  RunUntilDone(h.loop_, done);
  ASSERT_EQ(mapped, kN);
  // 8 bytes per mapped position.
  EXPECT_GE(replied - t0, uint64_t{kN} * 8 * kUs)
      << "the posmap reply was not charged its bytes";
}

TEST(ShardSt, OrphanedDataScrubbedEventually) {
  ShardHarness h(ShardMode::kStModified);
  ASSERT_TRUE(h.PutData(RecordId{12, 1}, "orphan", 0).ok());
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 1u);
  // No metadata ever references it; the periodic scrubber collects it (§5.4).
  h.loop_.RunUntil(h.loop_.Now() + ShardServer::kStOrphanScrubAgeNs + 200 * kMs);
  EXPECT_EQ(h.servers_[0]->unordered_pool_size(), 0u);
}

}  // namespace
}  // namespace lazylog
