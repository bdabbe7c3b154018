// Erwin-m client behaviour tests: multi-shard reads, trim semantics through the public
// API, appendSync, out-of-range handling, and the concurrent-append containment
// property (all acked records appear exactly once even when issued concurrently).
#include <gtest/gtest.h>

#include <set>

#include "src/lazylog/erwin_cluster.h"
#include "tests/test_util.h"

namespace lazylog {
namespace {

ErwinClusterOptions MOptions(uint32_t shards = 2) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kM;
  opt.num_shards = shards;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  return opt;
}

TEST(ErwinM, ReadSpansShards) {
  ErwinCluster cluster(MOptions(4));
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 13; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "x" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  // Odd-sized, misaligned range crossing all 4 shards.
  auto records = ReadSyncly(cluster.loop(), *client, 3, 7, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*records)[i].pos, 3 + i);
    EXPECT_EQ((*records)[i].record.payload, "x" + std::to_string(3 + i));
  }
}

TEST(ErwinM, ReadZeroLenReturnsEmpty) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  auto records = ReadSyncly(cluster.loop(), *client, 0, 0);
  ASSERT_TRUE(records.has_value());
  EXPECT_TRUE(records->empty());
}

TEST(ErwinM, ReadOfTrimmedPositionFails) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "t" + std::to_string(i)));
  }
  cluster.RunFor(100 * kMs);
  ASSERT_TRUE(TrimSyncly(cluster.loop(), *client, 4).ok());
  auto gone = ReadSyncly(cluster.loop(), *client, 1, 1);
  EXPECT_FALSE(gone.has_value());
  auto kept = ReadSyncly(cluster.loop(), *client, 4, 2, 5 * kSec);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->size(), 2u);
}

TEST(ErwinM, TrimIsClampedToStablePrefix) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "keep"));
  // Trim far beyond the tail: must not destroy unordered/unstable data.
  ASSERT_TRUE(TrimSyncly(cluster.loop(), *client, 1'000'000).ok());
  cluster.RunFor(100 * kMs);
  TailResult tail = TailSyncly(cluster.loop(), *client);
  EXPECT_EQ(tail.durable, 1u);
}

TEST(ErwinM, AppendSyncWaitsForStableBinding) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  bool done = false;
  SimTime ack_at = 0;
  const SimTime start = cluster.loop().Now();
  client->AppendSync("eager", [&](Status s) {
    ASSERT_TRUE(s.ok());
    ack_at = cluster.loop().Now();
    done = true;
  });
  RunUntilDone(cluster.loop(), done, 10 * kSec);
  ASSERT_TRUE(done);
  // Must have waited for ordering + stabilization (>= one ordering interval + shard
  // disk write), far above the plain-append 1 RTT.
  EXPECT_GT(ack_at - start, cluster.params().seq.ordering_interval_ns);
  EXPECT_GE(cluster.leader().stable_gp(), 1u);
}

TEST(ErwinM, ConcurrentAppendsAllBoundExactlyOnce) {
  ErwinCluster cluster(MOptions(3));
  constexpr int kN = 60;
  std::vector<std::unique_ptr<ErwinMClient>> clients;
  int acked = 0;
  for (int i = 0; i < kN; ++i) {
    clients.push_back(cluster.MakeMClient());
    clients.back()->log().Append("conc-" + std::to_string(i), [&](Status s) { acked += s.ok(); });
  }
  cluster.RunFor(200 * kMs);
  ASSERT_EQ(acked, kN);
  auto reader = cluster.MakeMClient();
  auto records = ReadSyncly(cluster.loop(), *reader, 0, kN, 10 * kSec);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), static_cast<size_t>(kN));
  std::set<std::string> seen;
  for (const auto& pr : *records) {
    EXPECT_TRUE(seen.insert(pr.record.payload.ToString()).second)
        << "duplicate " << pr.record.payload.ToString();
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kN));
}

TEST(ErwinM, SequentialAppendsFromDifferentClientsKeepRealTimeOrder) {
  ErwinCluster cluster(MOptions());
  auto a = cluster.MakeMClient();
  auto b = cluster.MakeMClient();
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *a, "first-by-a"));
  ASSERT_TRUE(AppendSyncly(cluster.loop(), *b, "then-by-b"));
  cluster.RunFor(100 * kMs);
  auto records = ReadSyncly(cluster.loop(), *a, 0, 2, 5 * kSec);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].record.payload, "first-by-a");
  EXPECT_EQ((*records)[1].record.payload, "then-by-b");
}

// A multi-record Read that reaches past stable-gp waits at each shard primary; stable-gp
// then advances a few positions per ordering window, so a shard's run is often only
// partly stable when its first position is. The reply must still be exactly
// [from, from+len) in order — no gaps, nothing from outside the range — or an error.
TEST(ErwinM, MultiRecordReadPastStableIsExact) {
  ErwinClusterOptions opt = MOptions(4);
  opt.shard_replication = 3;
  ErwinCluster cluster(opt);
  auto writer = cluster.MakeMClient();
  auto reader = cluster.MakeMClient();
  constexpr int kRecords = 240;
  constexpr uint64_t kGap = 20 * kUs;  // less than an ordering interval
  for (int i = 0; i < kRecords; ++i) {
    cluster.loop().Schedule(i * kGap, [&, i]() {
      writer->log().Append("r" + std::to_string(i), [](Status) {});
    });
  }
  struct Call {
    LogPos from = 0;
    uint64_t len = 0;
    bool done = false;
    Status status;
    std::vector<PositionedRecord> recs;
  };
  std::vector<Call> calls;
  for (auto [from, len] : std::vector<std::pair<LogPos, uint64_t>>{
           {0, 7}, {1, 9}, {5, 7}, {17, 9}, {40, 13}, {71, 4}, {100, 33}, {150, 6}, {181, 30}}) {
    calls.emplace_back();
    calls.back().from = from;
    calls.back().len = len;
  }
  for (Call& c : calls) {
    // Issued shortly before position `from` is appended (or at the start), so the whole
    // range is past stable-gp, most of it not even durable, when the read arrives.
    const SimTime at = c.from < 10 ? 0 : c.from * kGap - kGap / 2;
    cluster.loop().Schedule(at, [&reader, &c]() {
      reader->log().Read(c.from, c.len, [&c](Status s, std::vector<PositionedRecord> recs) {
        c.status = std::move(s);
        c.recs = std::move(recs);
        c.done = true;
      });
    });
  }
  cluster.RunFor(kRecords * kGap + 200 * kMs);
  for (const Call& c : calls) {
    ASSERT_TRUE(c.done) << "Read(" << c.from << ", " << c.len << ") never completed";
    // An error would be an allowed outcome in general; on this healthy cluster every
    // read must complete.
    ASSERT_TRUE(c.status.ok()) << "Read(" << c.from << ", " << c.len
                               << "): " << c.status.ToString();
    std::vector<LogPos> got;
    for (const PositionedRecord& pr : c.recs) {
      got.push_back(pr.pos);
    }
    std::vector<LogPos> want;
    for (LogPos p = c.from; p < c.from + c.len; ++p) {
      want.push_back(p);
    }
    EXPECT_EQ(got, want) << "Read(" << c.from << ", " << c.len << ")";
  }
}

TEST(ErwinM, ChecksTailMonotone) {
  ErwinCluster cluster(MOptions());
  auto client = cluster.MakeMClient();
  LogPos last_durable = 0;
  LogPos last_stable = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendSyncly(cluster.loop(), *client, "m"));
    TailResult tail = TailSyncly(cluster.loop(), *client);
    ASSERT_TRUE(tail.status.ok());
    EXPECT_GE(tail.durable, last_durable);
    EXPECT_GE(tail.stable, last_stable);
    EXPECT_LE(tail.stable, tail.durable);
    last_durable = tail.durable;
    last_stable = tail.stable;
    cluster.RunFor(2 * kMs);
  }
}

}  // namespace
}  // namespace lazylog
