// The client protocol both Erwin designs share (§4.4, §5.3). Appends complete in one
// RTT and are resent with the same record id (replicas filter duplicates) after a view
// or shard re-resolution; reads are gated on stable-gp at the shards; a failed read or
// index lookup refreshes "/shards/config" and retries on jittered backoff. Everything
// here is design-agnostic. The subclasses supply only the append fan-out (SendAppend)
// and the position->shard placement of a ranged read (FetchRange): Erwin-m stripes
// positions p mod n, Erwin-st resolves them through its cached position map.
#ifndef SRC_LAZYLOG_ERWIN_CLIENT_H_
#define SRC_LAZYLOG_ERWIN_CLIENT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/params.h"
#include "src/common/random.h"
#include "src/lazylog/cluster_view.h"
#include "src/lazylog/read_path.h"
#include "src/lazylog/shared_log_client.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/seq/seq_messages.h"

namespace lazylog {

class ErwinClient : public SharedLogClient {
 public:
  NodeId node_id() const { return endpoint_.node_id(); }
  ClientId client_id() const { return client_id_; }
  ViewId view() const { return view_.view; }
  // View that served the most recent successful CheckTail (the durable count may
  // legitimately shrink across views when an uncommitted suffix is dropped; oracles
  // scope durable-monotonicity per view using this).
  ViewId last_tail_view() const override { return last_tail_view_; }
  uint64_t shard_epoch() const { return view_.shard_epoch; }
  // Number of sequencing view changes this client has observed (tests).
  uint64_t view_changes() const { return view_changes_; }
  // RPC outcome counters (chaos reports: how much of a run hit timeouts/retries).
  const RpcStats& rpc_stats() const { return endpoint_.stats(); }
  // Most recent durable/stable tail heard from CheckTail replies and read-reply
  // piggybacks; true only while fresher than TailCache::kTtlNs.
  bool CachedTail(LogPos* durable, LogPos* stable) override;
  // Observer over every shard read reply (serving replica, advertised stable,
  // records); the chaos read-staleness oracle subscribes.
  void SetReadReplyObserver(ReadCoalescer::ReplyObserver obs) {
    coalescer_.SetReplyObserver(std::move(obs));
  }
  // Test hook: every known-stable read goes to replica `index` of its shard instead of
  // the load-aware pick.
  void PinReadReplicaForTest(size_t index) { router_.PinForTest(index); }

 protected:
  ErwinClient(Network* net, const SimParams& params, ClusterView view, ClientId client_id);

  struct PendingAppend {
    RecordId id;
    Buf payload;
    StreamTag tag = kNoTag;
    LogId log = kDefaultLog;
    AppendCallback cb;
    int attempts = 0;
    int overload_attempts = 0;
    // Most recent failure seen for this append; reported if the retry budget runs out.
    Status last_error = Status::Timeout("append retries exhausted");
    // Erwin-st only: the client-chosen data shard, and whether every data replica has
    // acked some attempt's payload write (resends then go metadata-only).
    ShardId shard = 0;
    bool data_durable = false;
  };

  // One sub-read: a consecutive run of shard-local records, split into ReadRanges of at
  // most read_chunk_records. `stable` runs lie below the client's known stable tail and
  // go through the replica router and coalescer; the rest wait at the shard primary.
  struct ShardRun {
    ShardId shard = 0;
    std::vector<ReadRange> ranges;
    bool stable = true;
  };

  // --- the design-specific surface ---
  // Sends (or resends) one append attempt and feeds the replies to AppendVerdict.
  virtual void SendAppend(std::shared_ptr<PendingAppend> p) = 0;
  // Reads [from, from+len) (len > 0) once: places the positions on shards and fetches
  // them, delivering the records in position order. Failures go to the read retry
  // ladder (ReadAttempt), which re-resolves the shard membership and calls again.
  virtual void FetchRange(LogPos from, uint64_t len, ReadCallback cb) = 0;

  // The append ladder: completes `p` on success, or routes a failure to the right
  // retry path. `leader` indexes the sequencing leader's reply in `ss`.
  void AppendVerdict(std::shared_ptr<PendingAppend> p, const std::vector<Status>& ss,
                     size_t leader);
  // Fetches every run from its shard and delivers the merged records in position order;
  // any failed run fails the whole read.
  void FetchRuns(std::vector<ShardRun> runs, ReadCallback cb);
  // Re-reads "/shards/config" from ZK and adopts it if its epoch is newer; runs `then`
  // regardless of outcome. No-op without a control plane.
  void RefreshShardConfig(std::function<void()> then);

  RpcEndpoint endpoint_;
  SimParams params_;
  ClusterView view_;
  ClientId client_id_;
  RequestId next_request_id_ = 1;
  TailCache tails_;
  // Readahead is paused while an Erwin-st client runs without its position-map cache.
  bool readahead_enabled_ = true;

  // --- SharedLogClient (reached through LogHandle) ---
  void Append(const AppendOptions& options, Buf payload, AppendCallback cb) override;
  void Read(LogPos from, uint64_t len, ReadCallback cb) override;
  void CheckTail(TailCallback cb) override;
  void Trim(LogPos index, TrimCallback cb) override;
  // Selective read via the index tier (falls back to the base-class scan when the
  // view has no index nodes or the index path keeps failing).
  void ReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                ReadNextCallback cb) override;
  // Named-log ranged read via the index tier's rank lists (scan fallback as above).
  void ReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb) override;
  // Per-phylog tail from the leader's log cursors (SeqCheckTailReq body).
  void CheckTailOfLog(LogId log, TailCallback cb) override;
  // Name resolution against "/logs/config" in ZooKeeper.
  void ResolveLog(const std::string& name,
                  std::function<void(Status, LogId)> cb) override;

 private:
  void EnqueueRetry(std::shared_ptr<PendingAppend> p);
  // kOverloaded resend: in-place jittered backoff, no config probe (overload is not a
  // view problem). The shed budget applies only when the leader itself refused;
  // leader-admitted appends persist until the follower gates let them through.
  void EnqueueOverloadRetry(std::shared_ptr<PendingAppend> p, bool leader_admitted);
  // kQuotaExceeded resend: same in-place backoff; always leader-refused (quotas are
  // enforced at the leader only), so the small shed budget always applies.
  void EnqueueQuotaRetry(std::shared_ptr<PendingAppend> p);
  // True (and sheds the append locally with kQuotaExceeded) while `log` is muted by a
  // recent quota refusal; MuteQuota starts/extends the window.
  bool QuotaMuted(LogId log, AppendCallback& cb);
  void MuteQuota(LogId log);
  void ResolveConfig();
  // Probes replicas until an unsealed view at least as new as ours is found, adopts it,
  // then runs `then`. Retries use jittered exponential backoff (RetryBackoffNs) so a
  // herd of clients deposed by the same view change does not probe in lockstep.
  void ProbeThen(std::function<void()> then, int attempt = 0);
  // The read retry ladder around FetchRange; it also re-reads the part of a run that
  // came back short, so a successful read is exactly [from, from+len).
  void ReadAttempt(LogPos from, uint64_t len, ReadCallback cb, int attempt);
  // Prefetches the stable region past a sequential reader's cursor (one in flight).
  void MaybePrefetch(LogPos next);
  void CheckTailAttempt(TailCallback cb, int attempt);
  void CheckTailOfLogAttempt(LogId log, TailCallback cb, int attempt);
  void TrimAttempt(LogPos index, TrimCallback cb, int attempt);
  // The index retry ladder: a failed index lookup or shard fetch (e.g. a promoted
  // shard primary the cached view predates) refreshes "/shards/config" and retries on
  // the shared jittered backoff before degrading to `scan`.
  void IndexAttempt(LogId log, StreamTag tag, LogPos from, uint32_t max, bool by_rank,
                    ReadNextCallback cb, std::function<void()> scan, int attempt);
  // One ReadNext against the index tier for stream (log, tag): a position lookup at an
  // index node, then shard-direct fetches of the listed positions. In position mode
  // `from`/`next_from` are global positions. With `by_rank`, `from` indexes the
  // stream's merged list (the phylog rank cursor) and the records are re-labelled with
  // their ranks; this is the named-log Read path (tag == kNoTag selects the per-log
  // rank list). `fallback` runs instead of `cb` when the index path cannot serve.
  void IndexRead(LogId log, StreamTag tag, LogPos from, uint32_t max, bool by_rank,
                 ReadNextCallback cb, std::function<void()> fallback);

  Rng rng_;  // jitter for retry backoff and the router's choices; seeded per client
  ReplicaRouter router_;
  bool resolving_config_ = false;
  size_t probe_cursor_ = 0;
  uint64_t view_changes_ = 0;
  ViewId last_tail_view_ = 0;
  std::deque<std::shared_ptr<PendingAppend>> retry_queue_;
  // Per-log client-side quota mute (see kQuotaMuteNs in erwin_client.cc).
  std::map<LogId, SimTime> quota_muted_until_;
  ReadAheadCache readahead_;
  bool readahead_inflight_ = false;
  ReadCoalescer coalescer_;
};

}  // namespace lazylog

#endif  // SRC_LAZYLOG_ERWIN_CLIENT_H_
