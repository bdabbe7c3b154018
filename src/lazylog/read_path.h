// Client-side read scale-out machinery (§5.3, DESIGN.md §6): load-aware replica
// routing, coalesced multi-range reads, and tail caching/readahead.
//
// The invariant that makes any of this safe: every shard replica gates reads on its
// *own* stable-gp, learned from the orderer's broadcasts. A stable position has its
// final, immutable binding on every replica that considers it stable, so a read of a
// known-stable range may be served by ANY replica — the worst a lagging backup can do
// is clip the range short, never return a different binding. Reads at or above the
// client's stable knowledge keep going to the primary, whose waiter queue provides the
// wait-for-stability semantics (§4.4).
#ifndef SRC_LAZYLOG_READ_PATH_H_
#define SRC_LAZYLOG_READ_PATH_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/storage/shard_messages.h"

namespace lazylog {

// Deadline of a read RPC that never parks at the server (a routed stable read, an
// index-path shard fetch, an Erwin-st position-map fetch). Any replica can serve a
// stable position, so a pick of a crashed replica should cost little more than a
// healthy answer, not the 50 ms generic rpc_timeout_ns: the deadline is a fixed slack
// plus the time the serving replica's CPU and NIC need to produce `reply_bytes` of
// reply. Each of the caller's consecutive misses doubles it, up to the generic timeout,
// so a reply larger than the caller expected still gets through on a retry.
constexpr uint64_t kReadDeadlineSlackNs = 2 * kMs;

inline uint64_t ReadDeadlineNs(const SimParams& p, uint64_t reply_bytes, uint32_t misses) {
  const double ns_per_byte = 1e9 / p.shard_cpu.copy_bandwidth_bytes_per_sec +
                             1e9 / p.net.bandwidth_bytes_per_sec;
  const uint64_t base =
      kReadDeadlineSlackNs + static_cast<uint64_t>(static_cast<double>(reply_bytes) * ns_per_byte);
  return std::min(base << std::min<uint32_t>(misses, 5), std::max(base, p.rpc_timeout_ns));
}

// Load-aware replica selection: power-of-two-choices over a per-replica EWMA of
// observed read cost (measured RTT plus the server-piggybacked CPU backlog), with an
// in-flight penalty so a replica is not flooded between feedback samples. With
// client_read.route_stable_reads off it always picks the primary, the A/B baseline.
//
// The router also sets every shard read's deadline (ReadDeadlineNs): the reply is
// sized as the records of the call plus those of this client's reads already in flight
// at the replica, each at the largest record size seen so far (at least
// kAssumedRecordBytes), and the replica's consecutive failed reads count as misses.
class ReplicaRouter {
 public:
  // Reply size per record before any read reply has shown a larger one: the paper's
  // 4 KB record.
  static constexpr uint64_t kAssumedRecordBytes = 4096;
  // EWMA smoothing for per-replica cost estimates fed by read replies.
  static constexpr double kEwmaAlpha = 0.3;

  ReplicaRouter(const SimParams* params, Rng* rng, ReadPathStats* stats)
      : params_(params), rng_(rng), stats_(stats) {}

  // Picks the serving replica for a known-stable read. `replicas[0]` is the primary.
  NodeId PickStable(const std::vector<NodeId>& replicas) {
    stats_->routed_reads++;
    NodeId picked = replicas[0];
    if (pinned_ >= 0) {
      picked = replicas[static_cast<size_t>(pinned_) % replicas.size()];
    } else if (replicas.size() > 1 && params_->client_read.route_stable_reads) {
      // Two distinct uniform choices; lower estimated cost wins. Randomness comes from
      // the client's seeded rng so chaos replays stay deterministic.
      const size_t a = rng_->Uniform(replicas.size());
      size_t b = rng_->Uniform(replicas.size() - 1);
      if (b >= a) {
        ++b;
      }
      picked = Score(replicas[a]) <= Score(replicas[b]) ? replicas[a] : replicas[b];
    }
    if (picked != replicas[0]) {
      stats_->backup_routed++;
    }
    return picked;
  }

  // Test hook: every known-stable read goes to replica `index` of its shard.
  void PinForTest(size_t index) { pinned_ = static_cast<int64_t>(index); }

  // Registers a read of `records` records to `n`; returns its deadline.
  uint64_t OnIssue(NodeId n, uint64_t records) {
    Estimate& e = est_[n];
    e.inflight++;
    e.inflight_records += records;
    return ReadDeadlineNs(*params_, e.inflight_records * record_bytes_, e.misses);
  }

  // Feedback from the read issued by OnIssue(n, records): `resp` is null if it failed,
  // and then the elapsed time is the penalty.
  void OnReply(NodeId n, uint64_t records, uint64_t elapsed_ns, const ShardReadResp* resp) {
    Estimate& e = est_[n];
    if (e.inflight > 0) {
      e.inflight--;
    }
    e.inflight_records -= std::min(e.inflight_records, records);
    uint64_t server_queue_ns = 0;
    if (resp == nullptr) {
      e.misses++;
    } else {
      e.misses = 0;
      server_queue_ns = resp->queue_ns;
      for (const PositionedRecord& pr : resp->records) {
        record_bytes_ = std::max<uint64_t>(record_bytes_, pr.record.payload.size());
      }
    }
    const double sample = static_cast<double>(elapsed_ns + server_queue_ns);
    e.ewma = e.ewma == 0.0 ? sample : kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * e.ewma;
  }

  double Score(NodeId n) const {
    auto it = est_.find(n);
    if (it == est_.end()) {
      return 0.0;  // unexplored replicas look cheap, so p2c explores them
    }
    const double base = it->second.ewma;
    // Each in-flight request is expected to add roughly one service time of queueing.
    return base + static_cast<double>(it->second.inflight) * (base > 0.0 ? base : 50'000.0);
  }

 private:
  struct Estimate {
    double ewma = 0.0;      // ns; 0 = never observed
    uint32_t inflight = 0;  // our own outstanding reads against this replica
    uint64_t inflight_records = 0;  // records those reads asked for
    uint32_t misses = 0;    // consecutive failed reads
  };

  const SimParams* params_;
  Rng* rng_;
  ReadPathStats* stats_;
  int64_t pinned_ = -1;  // replica index every stable read goes to; -1 = route
  uint64_t record_bytes_ = kAssumedRecordBytes;  // largest record payload seen
  std::unordered_map<NodeId, Estimate> est_;
};

// Most recent durable/stable tail this client has heard — from CheckTail replies and
// from the piggyback every shard read reply carries. Both tails are monotone under one
// view, so a stale cached value is merely conservative, never wrong; `Get` additionally
// applies a freshness TTL for pollers that want a recent value.
class TailCache {
 public:
  // How long a piggybacked/CheckTail-learned tail stays fresh enough for
  // CachedTail() to satisfy a poll without an RPC.
  static constexpr uint64_t kTtlNs = 1 * kMs;

  void Note(SimTime now, LogPos durable, LogPos stable) {
    durable_ = std::max(durable_, durable);
    stable_ = std::max(stable_, stable);
    noted_at_ = now;
  }

  bool Get(SimTime now, LogPos* durable, LogPos* stable) const {
    if (noted_at_ == 0 || now - noted_at_ > kTtlNs) {
      return false;
    }
    *durable = durable_;
    *stable = stable_;
    return true;
  }

  LogPos stable() const { return stable_; }
  LogPos durable() const { return durable_; }

 private:
  LogPos durable_ = 0;
  LogPos stable_ = 0;
  SimTime noted_at_ = 0;
};

// Speculatively prefetched stable records, keyed by global position. Only ever holds
// records that were below stable-gp when fetched, so entries are final bindings and can
// be served without revalidation.
class ReadAheadCache {
 public:
  // Appends the cached contiguous run starting exactly at `from` (up to `len` records)
  // to `out` and returns how many were served. Served entries — and everything before
  // them — are dropped: the sequential reader has moved past.
  uint64_t TakePrefix(LogPos from, uint64_t len, std::vector<PositionedRecord>* out) {
    uint64_t served = 0;
    while (served < len) {
      auto it = entries_.find(from + served);
      if (it == entries_.end()) {
        break;
      }
      out->push_back(it->second);
      ++served;
    }
    if (served > 0) {
      entries_.erase(entries_.begin(), entries_.upper_bound(from + served - 1));
    }
    return served;
  }

  void Insert(std::vector<PositionedRecord> recs, size_t cap) {
    for (PositionedRecord& pr : recs) {
      entries_.emplace(pr.pos, std::move(pr));
    }
    while (entries_.size() > cap) {
      entries_.erase(entries_.begin());
    }
  }

  bool Covers(LogPos pos) const { return entries_.count(pos) > 0; }
  size_t size() const { return entries_.size(); }

 private:
  std::map<LogPos, PositionedRecord> entries_;
};

// Issues shard reads (kShardRead) for sub-reads and merges concurrent same-replica
// subs into batched multi-range RPCs.
//
// A *sub* is one logical sub-read: a run of consecutive target-local records, expressed
// as pre-split ReadRanges (the caller owns the position arithmetic — Erwin-st splits on
// its cached posmap, Erwin-m on its stride — each range at most read_chunk_records
// long). Subs added for the same target in the same instant flush as one or more
// non-waiting reads of at most read_chunk_records each; issuing the chunks as
// independent RPCs lets the shard's response-serialization CPU for chunk k overlap the
// NIC transmission of chunk k-1 on large ranges.
//
// A sub whose ranges come back clipped from a routed read (the serving replica's
// stable-gp trails the client's knowledge) is re-issued in full to the shard primary as
// a waiting read, and the results are merged with per-position dedupe — wait semantics
// live entirely at the primary. A waiting read is delivered as served: it parks only
// until its first position is stable, so the caller re-reads anything it clipped.
// Non-waiting reads run on the router's short deadline (ReadDeadlineNs), so a crashed
// pick fails fast into the router's feedback and the caller's retry ladder; waiting
// reads keep rpc_timeout_ns, since they legitimately park until stable-gp passes them.
class ReadCoalescer {
 public:
  using SubCallback = std::function<void(Status, std::vector<PositionedRecord>)>;
  using FetchCallback = std::function<void(Status, ShardReadResp)>;
  // Fired for every read reply: (serving replica, advertised stable-gp, records). The
  // chaos read-staleness oracle subscribes.
  using ReplyObserver =
      std::function<void(NodeId, LogPos, const std::vector<PositionedRecord>&)>;

  ReadCoalescer(RpcEndpoint* ep, const SimParams* params, ReplicaRouter* router,
                TailCache* tails, ReadPathStats* stats)
      : ep_(ep), params_(params), router_(router), tails_(tails), stats_(stats) {}

  void SetReplyObserver(ReplyObserver obs) { observer_ = std::move(obs); }

  // Enqueues one known-stable sub-read routed to `target`; `primary` serves the waiting
  // fallback. `ranges` must be non-empty, in ascending order, and describe one
  // consecutive run of target-local records.
  void Add(NodeId target, NodeId primary, std::vector<ReadRange> ranges, SubCallback cb) {
    auto sub = MakeSub(primary, std::move(ranges), std::move(cb));
    stats_->coalesced_subs++;
    auto& q = pending_[target];
    q.push_back(std::move(sub));
    if (q.size() == 1) {
      ep_->loop()->Schedule(0, [this, target]() { Flush(target); });
    }
  }

  // Waiting read of one sub at the shard primary (reads at or above the client's known
  // stable tail). Feeds the router and tail cache from the reply like routed reads do.
  void WaitRead(NodeId primary, std::vector<ReadRange> ranges, SubCallback cb) {
    IssueWait(MakeSub(primary, std::move(ranges), std::move(cb)));
  }

  // One non-waiting read of `ranges` at `target`, issued now: not coalesced, and a clip
  // is delivered as served rather than re-read at the primary (the index path, whose
  // caller resumes from the first position a replica could not serve). Feeds the
  // router, tail cache and reply observer like every other read.
  void Fetch(NodeId target, std::vector<ReadRange> ranges, FetchCallback cb) {
    uint64_t records = 0;
    for (const ReadRange& range : ranges) {
      records += range.len;
    }
    const uint64_t deadline = router_->OnIssue(target, records);
    const SimTime t0 = ep_->loop()->Now();
    ep_->CallMsg(
        target, kShardRead, ShardReadReq{std::move(ranges), /*wait=*/false},
        [this, target, records, t0, cb = std::move(cb)](Status s, Decoder d) {
          ShardReadResp resp;
          if (!s.ok() || !resp.Decode(d)) {
            router_->OnReply(target, records, ep_->loop()->Now() - t0, nullptr);
            cb(s.ok() ? Status::Internal("bad read response") : std::move(s), {});
            return;
          }
          NoteReply(target, records, t0, resp);
          cb(Status::Ok(), std::move(resp));
        },
        deadline);
  }

 private:
  struct Sub {
    NodeId primary = kInvalidNode;
    std::vector<ReadRange> ranges;
    SubCallback cb;
    uint32_t outstanding = 0;  // RPCs not yet replied
    bool clipped = false;
    bool waited = false;       // the waiting read at the primary was issued
    Status failure;            // set by a failed RPC; surfaces to the caller
    std::vector<PositionedRecord> got;
  };
  // One range of one sub inside one RPC.
  struct Piece {
    std::shared_ptr<Sub> sub;
    ReadRange range;
  };

  static std::shared_ptr<Sub> MakeSub(NodeId primary, std::vector<ReadRange> ranges,
                                      SubCallback cb) {
    auto sub = std::make_shared<Sub>();
    sub->primary = primary;
    sub->ranges = std::move(ranges);
    sub->cb = std::move(cb);
    return sub;
  }

  void Flush(NodeId target) {
    auto it = pending_.find(target);
    if (it == pending_.end()) {
      return;
    }
    std::vector<std::shared_ptr<Sub>> subs = std::move(it->second);
    pending_.erase(it);
    const uint32_t chunk = std::max<uint32_t>(1, params_->client_read.read_chunk_records);
    // Pack ranges into RPCs of at most `chunk` records each, preserving order.
    std::vector<std::vector<Piece>> rpcs;
    uint32_t budget = 0;
    for (auto& sub : subs) {
      for (const ReadRange& range : sub->ranges) {
        if (rpcs.empty() || budget + range.len > chunk) {
          rpcs.emplace_back();
          budget = 0;
        }
        rpcs.back().push_back(Piece{sub, range});
        budget += range.len;
        sub->outstanding++;
      }
    }
    stats_->coalesced_batches += rpcs.size();
    if (rpcs.size() > 1) {
      stats_->chunk_rpcs += rpcs.size() - 1;
    }
    for (auto& pieces : rpcs) {
      IssueRpc(target, std::move(pieces), /*wait=*/false);
    }
  }

  void IssueWait(const std::shared_ptr<Sub>& sub) {
    stats_->primary_reads++;
    sub->waited = true;
    sub->outstanding = 1;
    std::vector<Piece> pieces;
    pieces.reserve(sub->ranges.size());
    for (const ReadRange& range : sub->ranges) {
      pieces.push_back(Piece{sub, range});
    }
    IssueRpc(sub->primary, std::move(pieces), /*wait=*/true);
  }

  void IssueRpc(NodeId target, std::vector<Piece> pieces, bool wait) {
    ShardReadReq req;
    req.ranges.reserve(pieces.size());
    for (const Piece& p : pieces) {
      req.ranges.push_back(p.range);
    }
    req.wait = wait;
    uint64_t records = 0;
    for (const Piece& p : pieces) {
      records += p.range.len;
    }
    const uint64_t deadline = router_->OnIssue(target, records);
    const SimTime t0 = ep_->loop()->Now();
    ep_->CallMsg(
        target, kShardRead, req,
        [this, target, records, t0, pieces = std::move(pieces)](Status s, Decoder d) mutable {
          ShardReadResp resp;
          const bool ok = s.ok() && resp.Decode(d) && resp.counts.size() == pieces.size();
          if (ok) {
            NoteReply(target, records, t0, resp);
            size_t idx = 0;
            for (size_t i = 0; i < pieces.size(); ++i) {
              Piece& p = pieces[i];
              const uint32_t c = std::min<uint32_t>(
                  resp.counts[i], static_cast<uint32_t>(resp.records.size() - idx));
              for (uint32_t k = 0; k < c; ++k) {
                p.sub->got.push_back(std::move(resp.records[idx + k]));
              }
              idx += c;
              if (c < p.range.len) {
                p.sub->clipped = true;
              }
            }
          } else {
            router_->OnReply(target, records, ep_->loop()->Now() - t0, nullptr);
            for (Piece& p : pieces) {
              p.sub->failure = s.ok() ? Status::Internal("bad read response") : s;
            }
          }
          for (Piece& p : pieces) {
            if (--p.sub->outstanding == 0) {
              FinishSub(p.sub);
            }
          }
        },
        wait ? params_->rpc_timeout_ns : deadline);
  }

  void FinishSub(const std::shared_ptr<Sub>& sub) {
    if (!sub->failure.ok()) {
      // An outright RPC failure (dead or replaced replica) surfaces to the caller: its
      // retry ladder refreshes the shard membership before retrying, which a silent
      // primary fallback would never trigger.
      sub->cb(std::move(sub->failure), {});
      return;
    }
    if (!sub->clipped || sub->waited) {
      Deliver(sub);
      return;
    }
    // The serving replica clipped the run: its stable-gp trails what the client knows.
    // Re-issue the whole sub to the primary as a waiting read; already-fetched records
    // are deduped at merge.
    stats_->clipped_resends++;
    IssueWait(sub);
  }

  void Deliver(const std::shared_ptr<Sub>& sub) {
    std::sort(sub->got.begin(), sub->got.end(),
              [](const PositionedRecord& a, const PositionedRecord& b) {
                return a.pos < b.pos;
              });
    sub->got.erase(std::unique(sub->got.begin(), sub->got.end(),
                               [](const PositionedRecord& a, const PositionedRecord& b) {
                                 return a.pos == b.pos;
                               }),
                   sub->got.end());
    sub->cb(Status::Ok(), std::move(sub->got));
  }

  void NoteReply(NodeId target, uint64_t records, SimTime t0, const ShardReadResp& resp) {
    const SimTime now = ep_->loop()->Now();
    router_->OnReply(target, records, now - t0, &resp);
    tails_->Note(now, resp.durable_tail, resp.stable_gp);
    if (observer_) {
      observer_(target, resp.stable_gp, resp.records);
    }
  }

  RpcEndpoint* ep_;
  const SimParams* params_;
  ReplicaRouter* router_;
  TailCache* tails_;
  ReadPathStats* stats_;
  ReplyObserver observer_;
  std::unordered_map<NodeId, std::vector<std::shared_ptr<Sub>>> pending_;
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_READ_PATH_H_
