#include "src/lazylog/erwin_client.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/control/zookeeper.h"
#include "src/index/index_messages.h"

namespace lazylog {

namespace {
// Retry limits and deadlines of the client's ladders, each with its reason.
//
// Append attempts that end in a view or shard error. Each one first re-resolves the
// config (probe + "/shards/config"), so 50 rounds outlast any reconfiguration; past
// them the append surfaces its last error.
constexpr int kAppendAttemptLimit = 50;
// Overload retries of a leader-admitted append (it already holds an ordering slot, so
// it is never shed). Past this cap a pathological case moves to the config-probing path.
constexpr int kOverloadAttemptCap = 64;
// Config probes across the sequencing replicas before the continuation runs anyway
// and surfaces the error. The probe deadline is short: GetConfig is one small round
// trip, and a dead replica should cost little before the next one is tried.
constexpr int kProbeAttemptLimit = 1000;
constexpr uint64_t kProbeDeadlineNs = 2 * kMs;
// Read retries; each refreshes the shard membership first (a replaced or promoted
// replica), then backs off on RetryBackoffNs.
constexpr int kReadAttemptLimit = 10;
// Index-path retries before the caller pays for a full scan, which always answers.
constexpr int kIndexAttemptLimit = 3;
// CheckTail and Trim retries; each re-probes the view first.
constexpr int kTailTrimAttemptLimit = 20;
// Deadline of one CheckTail at the leader and of one ZooKeeper read.
constexpr uint64_t kTailZkDeadlineNs = 5 * kMs;
// Deadline of one Trim: the leader fans it out to every shard before it replies.
constexpr uint64_t kTrimDeadlineNs = 10 * kMs;
// The readahead cache holds four readahead windows, and never fewer records than this.
constexpr size_t kReadaheadCacheFloor = 1024;
// Overload retry budget: how many times a client re-sends an append that admission
// control refused before surfacing kOverloaded. Deliberately small — under sustained
// overload admission is a lottery, and a long retry ladder both stretches the acked
// tail (winners accumulate the same backoffs as losers) and multiplies attempt load
// on the already-saturated sequencer. Failing fast keeps acked latency near the ring
// residence bound; the caller decides whether to re-submit.
constexpr int kOverloadRetryLimit = 3;
// Quota backpressure propagation: after the leader refuses an append with
// kQuotaExceeded, the client sheds *fresh* appends to that log locally (same status,
// no wire traffic) for this window. Without it, a tenant offering a multiple of its
// quota turns into a refusal/retry storm that loads every replica's NIC and CPU —
// the noisy-neighbor damage quotas exist to prevent. In-flight retries still go out
// (their small budget drains the bucket's refill smoothly).
constexpr uint64_t kQuotaMuteNs = 2 * kMs;
}  // namespace

ErwinClient::ErwinClient(Network* net, const SimParams& params, ClusterView view,
                         ClientId client_id)
    : endpoint_(net),
      params_(params),
      view_(std::move(view)),
      client_id_(client_id),
      rng_(params.seed ^ (0xc11e47a5ULL + client_id)),
      router_(&params_, &rng_, &read_stats_),
      coalescer_(&endpoint_, &params_, &router_, &tails_, &read_stats_) {
  InstallLogRegistry(view_.logs);
}

// --- append --------------------------------------------------------------------------------

void ErwinClient::Append(const AppendOptions& options, Buf payload, AppendCallback cb) {
  if (QuotaMuted(options.log, cb)) {
    return;
  }
  auto p = std::make_shared<PendingAppend>();
  p->id = RecordId{client_id_, next_request_id_++};
  p->payload = std::move(payload);
  p->tag = options.tag;
  p->log = options.log;
  p->cb = std::move(cb);
  SendAppend(std::move(p));
}

void ErwinClient::AppendVerdict(std::shared_ptr<PendingAppend> p,
                                const std::vector<Status>& ss, size_t leader) {
  if (std::all_of(ss.begin(), ss.end(), [](const Status& s) { return s.ok(); })) {
    p->cb(Status::Ok());  // durable on every replica written: complete in 1 RTT
    return;
  }
  // A Rejected data write (Erwin-st) means the shard already no-op'ed this id after an
  // earlier attempt timed out; the append is lost and must not be retried under the
  // same id.
  for (const Status& s : ss) {
    if (s.code() == StatusCode::kRejected) {
      p->cb(s);
      return;
    }
  }
  // A refused append (admission control): the sequencing tier is shedding load, not
  // reconfiguring — retry in place with backoff. The leader's verdict decides the retry
  // budget; once the leader admits, it dup-acks every resend, so the flag is sticky
  // across attempts without storing it.
  for (const Status& s : ss) {
    if (s.code() == StatusCode::kOverloaded) {
      EnqueueOverloadRetry(p, /*leader_admitted=*/ss[leader].ok());
      return;
    }
  }
  // Leader-only verdicts on the virtual-log control state: a quota refusal gets the
  // short in-place backoff (the bucket refills in milliseconds); a deleted-log refusal
  // is permanent and surfaces immediately.
  if (ss[leader].code() == StatusCode::kQuotaExceeded) {
    MuteQuota(p->log);
    EnqueueQuotaRetry(std::move(p));
    return;
  }
  if (ss[leader].code() == StatusCode::kInvalidArgument) {
    p->cb(ss[leader]);
    return;
  }
  for (const Status& s : ss) {
    if (!s.ok()) {
      p->last_error = s;
      break;
    }
  }
  EnqueueRetry(std::move(p));
}

void ErwinClient::EnqueueRetry(std::shared_ptr<PendingAppend> p) {
  if (p->attempts > kAppendAttemptLimit) {
    LLOG(kWarn) << "append giving up after " << p->attempts << " attempts";
    p->cb(p->last_error.ok() ? Status::Timeout("append retries exhausted") : p->last_error);
    return;
  }
  retry_queue_.push_back(std::move(p));
  if (!resolving_config_) {
    resolving_config_ = true;
    ResolveConfig();
  }
}

// An overloaded replica refused the append *before* doing any work. That is not a view
// problem: probing the config would succeed immediately and resend straight into the
// same full ring, so back off in place on the shared jittered schedule instead. The
// budget is deliberately small — under sustained saturation, surfacing kOverloaded to
// the application beats parking an unbounded queue of doomed retries. Replicas that
// did admit an earlier attempt dup-filter the resend, so the id never binds twice (an
// Erwin-st data write of an abandoned attempt is an orphan the shard scrubs by age).
void ErwinClient::EnqueueOverloadRetry(std::shared_ptr<PendingAppend> p,
                                       bool leader_admitted) {
  p->overload_attempts++;
  // Leader-refused: shed after the small budget. Leader-admitted: a follower's gate
  // refused it, but the entry already occupies an ordering slot — keep retrying (the
  // followers' retry-priority band and shed-entry scrub guarantee progress), with a
  // hard cap diverting pathological cases to the slow config-probing path.
  if (!leader_admitted && p->overload_attempts > kOverloadRetryLimit) {
    p->cb(Status::Overloaded("append shed after overload retries"));
    return;
  }
  if (p->overload_attempts > kOverloadAttemptCap) {
    EnqueueRetry(p);
    return;
  }
  p->last_error = Status::Overloaded();
  // Computed before the capture moves from p (argument evaluation is unsequenced).
  const uint64_t backoff =
      OverloadBackoffNs(static_cast<uint32_t>(p->overload_attempts), rng_.NextDouble());
  endpoint_.loop()->Schedule(backoff,
                             [this, p = std::move(p)]() mutable { SendAppend(std::move(p)); });
}

// The leader said this log's bucket is empty: shed fresh appends locally for the mute
// window so an over-quota tenant stops flooding every replica with doomed RPCs.
// In-flight retries bypass the mute — their budget is what smoothly drains the
// bucket's refill back to admitted appends.
bool ErwinClient::QuotaMuted(LogId log, AppendCallback& cb) {
  if (log == kDefaultLog) {
    return false;
  }
  auto it = quota_muted_until_.find(log);
  if (it == quota_muted_until_.end() || endpoint_.loop()->Now() >= it->second) {
    return false;
  }
  endpoint_.loop()->Schedule(0, [cb = std::move(cb)]() {
    cb(Status::QuotaExceeded("append shed by tenant quota (client-side)"));
  });
  return true;
}

void ErwinClient::MuteQuota(LogId log) {
  if (log == kDefaultLog) {
    return;
  }
  quota_muted_until_[log] = endpoint_.loop()->Now() + kQuotaMuteNs;
}

// A quota refusal is the tenant's own doing, not the cluster's: the ring has room, the
// bucket is empty. Retry on the short overload schedule (one refill period away), but
// surface kQuotaExceeded — not kOverloaded — when the budget runs out so the
// application can tell throttling from congestion.
void ErwinClient::EnqueueQuotaRetry(std::shared_ptr<PendingAppend> p) {
  p->overload_attempts++;
  if (p->overload_attempts > kOverloadRetryLimit) {
    p->cb(Status::QuotaExceeded("append shed by tenant quota"));
    return;
  }
  p->last_error = Status::QuotaExceeded();
  const uint64_t backoff =
      OverloadBackoffNs(static_cast<uint32_t>(p->overload_attempts), rng_.NextDouble());
  endpoint_.loop()->Schedule(backoff,
                             [this, p = std::move(p)]() mutable { SendAppend(std::move(p)); });
}

// --- view / shard re-resolution -------------------------------------------------------------

void ErwinClient::ProbeThen(std::function<void()> then, int attempt) {
  if (attempt > kProbeAttemptLimit) {
    then();  // give up resolving; the continuation will fail and surface the error
    return;
  }
  const NodeId target = view_.seq_config[probe_cursor_++ % view_.seq_config.size()];
  endpoint_.Call(
      target, kSeqGetConfig, "",
      [this, then = std::move(then), attempt](Status s, Decoder d) mutable {
        SeqConfigResp resp;
        bool usable = false;
        if (s.ok()) {
          // Only adopt views at least as new as ours: a partitioned straggler still in
          // an older (fenced-off) view must not drag the client backwards.
          usable = resp.Decode(d) && !resp.sealed && !resp.config.empty() &&
                   resp.view >= view_.view;
        }
        if (!usable) {
          endpoint_.loop()->Schedule(
              RetryBackoffNs(static_cast<uint32_t>(attempt), rng_.NextDouble()),
              [this, then = std::move(then), attempt]() mutable {
                ProbeThen(std::move(then), attempt + 1);
              });
          return;
        }
        if (resp.view != view_.view) {
          view_changes_++;
        }
        view_.view = resp.view;
        view_.seq_config.assign(resp.config.begin(), resp.config.end());
        then();
      },
      kProbeDeadlineNs);
}

void ErwinClient::RefreshShardConfig(std::function<void()> then) {
  if (view_.zk == kInvalidNode) {
    then();
    return;
  }
  ZkClient zk(&endpoint_, view_.zk);
  zk.GetData(
      "/shards/config",
      [this, then = std::move(then)](Status s, std::string data, uint64_t) mutable {
        if (s.ok()) {
          uint64_t epoch = 0;
          std::vector<std::vector<NodeId>> shards;
          if (DecodeShardConfig(data, &epoch, &shards) && epoch > view_.shard_epoch) {
            view_.shard_epoch = epoch;
            // Shards added at runtime (Erwin-st AddShard) may not be in ZK yet; keep
            // any tail beyond the controller's matrix.
            for (size_t s2 = shards.size(); s2 < view_.shards.size(); ++s2) {
              shards.push_back(view_.shards[s2]);
            }
            view_.shards = std::move(shards);
          }
        }
        then();
      },
      kTailZkDeadlineNs);
}

void ErwinClient::ResolveConfig() {
  // Probe until an unsealed view is found, then refresh the shard membership too (a
  // failed data write may mean a replaced shard replica rather than a sequencing view
  // change), then resend every queued append under the new config. Retries keep their
  // record id (and Erwin-st target shard): every layer filters duplicates.
  ProbeThen([this]() {
    RefreshShardConfig([this]() {
      resolving_config_ = false;
      auto queued = std::move(retry_queue_);
      retry_queue_.clear();
      for (auto& p : queued) {
        SendAppend(std::move(p));
      }
    });
  });
}

// --- read -------------------------------------------------------------------------------------

void ErwinClient::Read(LogPos from, uint64_t len, ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  // Serve whatever contiguous prefix the readahead cache holds, fetch the rest.
  auto cached = std::make_shared<std::vector<PositionedRecord>>();
  const uint64_t hit = readahead_.TakePrefix(from, len, cached.get());
  read_stats_.readahead_hits += hit;
  if (hit == len) {
    endpoint_.loop()->Schedule(0, [cached, cb = std::move(cb)]() {
      cb(Status::Ok(), std::move(*cached));
    });
    MaybePrefetch(from + len);
    return;
  }
  ReadCallback wrapped = [this, from, len, cached, cb = std::move(cb)](
                             Status s, std::vector<PositionedRecord> recs) {
    if (!s.ok()) {
      cb(std::move(s), {});
      return;
    }
    if (cached->empty()) {
      cached->swap(recs);
    } else {
      for (PositionedRecord& pr : recs) {
        cached->push_back(std::move(pr));
      }
    }
    MaybePrefetch(from + len);
    cb(Status::Ok(), std::move(*cached));
  };
  ReadAttempt(from + hit, len - hit, std::move(wrapped), 0);
}

void ErwinClient::MaybePrefetch(LogPos next) {
  const auto& cr = params_.client_read;
  if (cr.readahead_records == 0 || readahead_inflight_ || !readahead_enabled_) {
    return;
  }
  // Only the stable region is prefetched: those bindings are final, so cached entries
  // never need revalidation.
  const LogPos stable = tails_.stable();
  if (next >= stable || readahead_.Covers(next)) {
    return;
  }
  const uint32_t n =
      static_cast<uint32_t>(std::min<uint64_t>(cr.readahead_records, stable - next));
  readahead_inflight_ = true;
  read_stats_.readahead_fetched += n;
  ReadAttempt(next, n,
              [this](Status s, std::vector<PositionedRecord> recs) {
                readahead_inflight_ = false;
                if (s.ok()) {
                  readahead_.Insert(std::move(recs),
                                    std::max<size_t>(4 * params_.client_read.readahead_records,
                                                     kReadaheadCacheFloor));
                }
              },
              0);
}

void ErwinClient::ReadAttempt(LogPos from, uint64_t len, ReadCallback cb, int attempt) {
  FetchRange(from, len, [this, from, len, cb = std::move(cb), attempt](
                            Status s, std::vector<PositionedRecord> recs) mutable {
    if (s.ok()) {
      // Only an exact run [from, from+len) is a read. A waiting sub-read parks until its
      // first position is stable and is clipped at stable after that, so past stable
      // a shard's run can come back short; everything from the first missing position
      // on is read again (its shard's part waits at the primary this time).
      size_t k = 0;
      while (k < recs.size() && k < len && recs[k].pos == from + k) {
        ++k;
      }
      recs.resize(k);
      if (k == len) {
        cb(Status::Ok(), std::move(recs));
        return;
      }
      if (k > 0) {
        ReadAttempt(from + k, len - k,
                    [head = std::move(recs), cb = std::move(cb)](
                        Status rs, std::vector<PositionedRecord> rest) mutable {
                      if (!rs.ok()) {
                        cb(std::move(rs), {});
                        return;
                      }
                      for (PositionedRecord& pr : rest) {
                        head.push_back(std::move(pr));
                      }
                      cb(Status::Ok(), std::move(head));
                    },
                    attempt);
        return;
      }
      s = Status::Internal("read served nothing at its first position");
    }
    if (attempt >= kReadAttemptLimit) {
      cb(std::move(s), {});
      return;
    }
    // Target unreachable (possibly a replaced replica), a slow-path wait outlived the
    // attempt timeout, or the replica holds nothing at a stable position yet: refresh
    // the shard membership and retry with backoff.
    RefreshShardConfig([this, from, len, cb = std::move(cb), attempt]() mutable {
      endpoint_.loop()->Schedule(
          RetryBackoffNs(static_cast<uint32_t>(attempt + 1), rng_.NextDouble()),
          [this, from, len, cb = std::move(cb), attempt]() mutable {
            ReadAttempt(from, len, std::move(cb), attempt + 1);
          });
    });
  });
}

void ErwinClient::FetchRuns(std::vector<ShardRun> runs, ReadCallback cb) {
  // Record payloads alias the replies' attachments: they stay valid in `all` after the
  // decoders are gone.
  auto all = std::make_shared<std::vector<PositionedRecord>>();
  auto gather = Gather::Create(runs.size(), [all, cb = std::move(cb)](
                                                const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s, {});
        return;
      }
    }
    std::sort(all->begin(), all->end(),
              [](const PositionedRecord& a, const PositionedRecord& b) { return a.pos < b.pos; });
    cb(Status::Ok(), std::move(*all));
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    ShardRun& run = runs[i];
    const auto& replicas = view_.shards[run.shard];
    auto merge = [all, slot = gather->Slot(i)](Status s, std::vector<PositionedRecord> recs) {
      if (s.ok()) {
        for (PositionedRecord& pr : recs) {
          all->push_back(std::move(pr));
        }
      }
      slot(std::move(s), Decoder());
    };
    // A known-stable run has final bindings on any replica that also considers it
    // stable, so it is routed load-aware and coalesced; the coalescer falls back to the
    // primary's waiting read if the pick clips. Anything else waits at the primary.
    if (run.stable) {
      const NodeId primary = replicas[0];
      const NodeId target = router_.PickStable(replicas);
      coalescer_.Add(target, primary, std::move(run.ranges), std::move(merge));
    } else {
      coalescer_.WaitRead(replicas[0], std::move(run.ranges), std::move(merge));
    }
  }
}

// --- index tier: readNext and named-log reads -----------------------------------------------

void ErwinClient::ReadNext(LogId log, StreamTag tag, LogPos from, uint32_t max,
                           ReadNextCallback cb) {
  if (tag == kNoTag) {
    cb(Status::InvalidArgument("read-next requires a stream tag"), {}, from);
    return;
  }
  if (view_.index_nodes.empty()) {
    ScanReadNext(log, tag, from, max, std::move(cb));
    return;
  }
  IndexAttempt(log, tag, from, max, /*by_rank=*/false, cb,
               [this, log, tag, from, max, cb]() { ScanReadNext(log, tag, from, max, cb); },
               0);
}

void ErwinClient::ReadLog(LogId log, LogPos from, uint64_t len, ReadCallback cb) {
  if (len == 0) {
    cb(Status::Ok(), {});
    return;
  }
  if (view_.index_nodes.empty()) {
    ScanReadLog(log, from, len, std::move(cb));
    return;
  }
  // The phylog's positions are ranks in its (log, kNoTag) index list; a by_rank lookup
  // serves [from, from+len) directly, re-labelled with ranks.
  const uint32_t max = static_cast<uint32_t>(std::min<uint64_t>(len, 1u << 20));
  IndexAttempt(
      log, kNoTag, from, max, /*by_rank=*/true,
      [cb](Status s, std::vector<PositionedRecord> recs, LogPos) {
        cb(std::move(s), std::move(recs));
      },
      [this, log, from, len, cb]() { ScanReadLog(log, from, len, cb); }, 0);
}

void ErwinClient::IndexAttempt(LogId log, StreamTag tag, LogPos from, uint32_t max,
                               bool by_rank, ReadNextCallback cb, std::function<void()> scan,
                               int attempt) {
  IndexRead(log, tag, from, max, by_rank, cb,
            [this, log, tag, from, max, by_rank, cb, scan, attempt]() {
              if (attempt >= kIndexAttemptLimit) {
                scan();
                return;
              }
              // The shard fetch (or the index pull itself) failed — likely a stale
              // replica set rather than a down index tier. Re-resolve the shard
              // membership and retry the selective path before paying for a full scan.
              RefreshShardConfig([this, log, tag, from, max, by_rank, cb, scan, attempt]() {
                endpoint_.loop()->Schedule(
                    RetryBackoffNs(static_cast<uint32_t>(attempt), rng_.NextDouble()),
                    [this, log, tag, from, max, by_rank, cb, scan, attempt]() {
                      IndexAttempt(log, tag, from, max, by_rank, cb, scan, attempt + 1);
                    });
              });
            });
}

void ErwinClient::IndexRead(LogId log, StreamTag tag, LogPos from, uint32_t max,
                            bool by_rank, ReadNextCallback cb,
                            std::function<void()> fallback) {
  const NodeId index_node = view_.index_nodes[client_id_ % view_.index_nodes.size()];
  IndexReadNextReq req;
  req.tag = tag;
  req.from = from;
  req.max = max;
  req.log = log;
  req.by_rank = by_rank;
  endpoint_.CallMsg(
      index_node, kIndexReadNext, req,
      [this, from, max, by_rank, cb = std::move(cb),
       fallback = std::move(fallback)](Status s, Decoder d) mutable {
        if (s.code() == StatusCode::kInvalidArgument) {
          cb(std::move(s), {}, from);
          return;
        }
        IndexReadNextResp resp;
        if (!s.ok() || !resp.Decode(d)) {
          fallback();
          return;
        }
        if (resp.positions.empty()) {
          // Covered-but-empty. Position mode: the stream truly has no records in
          // [from, indexed_upto); indexed_upto <= from means the index has not caught
          // up past `from` yet — no progress, the caller polls. Rank mode: the rank
          // space is dense, so an empty page always means "not indexed yet".
          const LogPos next = by_rank ? from : std::max<LogPos>(from, resp.indexed_upto);
          cb(Status::Ok(), {}, next);
          return;
        }
        // Group the positions by owning shard for one read per shard. Index positions
        // are scattered over the shard's local log, so each is a range of one.
        std::unordered_map<uint64_t, std::vector<ReadRange>> per_shard;
        for (size_t i = 0; i < resp.positions.size(); ++i) {
          if (resp.shard_ids[i] >= view_.shards.size()) {
            fallback();  // stale view: a shard this client has not discovered yet
            return;
          }
          per_shard[resp.shard_ids[i]].push_back(ReadRange{resp.positions[i], 1});
        }
        auto by_pos = std::make_shared<std::unordered_map<uint64_t, Record>>();
        // Indexed positions are below the index's stable frontier, so any replica may
        // serve them; a replica whose own frontier trails serves them short, which the
        // resume-cursor clamp below absorbs (a wait at the primary would not help).
        std::vector<std::pair<NodeId, std::vector<ReadRange>>> subs;
        for (auto& [shard, ranges] : per_shard) {
          subs.emplace_back(router_.PickStable(view_.shards[shard]), std::move(ranges));
        }
        auto gather = Gather::Create(
            subs.size(), [by_pos, resp = std::move(resp), from, max, by_rank,
                          cb = std::move(cb),
                          fallback = std::move(fallback)](const std::vector<Status>& ss) {
              for (const Status& st : ss) {
                if (!st.ok()) {
                  fallback();
                  return;
                }
              }
              // Assemble the stream window in index order, stopping at the first
              // position a replica could not serve yet (its stable frontier may trail
              // the index node's): the cursor resumes exactly there, so nothing is
              // skipped.
              std::vector<PositionedRecord> out;
              LogPos next_from = resp.indexed_upto;
              bool clipped = false;
              for (uint64_t p : resp.positions) {
                auto it = by_pos->find(p);
                if (it == by_pos->end()) {
                  next_from = p;
                  clipped = true;
                  break;
                }
                const LogPos label = by_rank ? from + out.size() : p;
                out.push_back(PositionedRecord{label, std::move(it->second)});
              }
              if (by_rank) {
                // Ranks are dense: whatever was assembled is exactly
                // [from, from + out.size()), clipped or not.
                cb(Status::Ok(), std::move(out), from + out.size());
                return;
              }
              if (!clipped) {
                // A full window (max entries) may have more stream records between its
                // last position and the index frontier, so it only covers up to
                // last+1; an unfilled window covers the whole indexed range.
                const LogPos last = resp.positions.back() + 1;
                next_from = resp.positions.size() < max ? std::max(resp.indexed_upto, last)
                                                        : last;
              }
              next_from = std::max<LogPos>(next_from, from);
              cb(Status::Ok(), std::move(out), next_from);
            });
        for (size_t i = 0; i < subs.size(); ++i) {
          coalescer_.Fetch(subs[i].first, std::move(subs[i].second),
                           [by_pos, slot = gather->Slot(i)](Status st, ShardReadResp rresp) {
                             for (auto& pr : rresp.records) {
                               by_pos->emplace(pr.pos, std::move(pr.record));
                             }
                             slot(std::move(st), Decoder());
                           });
        }
      },
      params_.rpc_timeout_ns);
}

// --- tail / trim / log registry ---------------------------------------------------------------

void ErwinClient::CheckTail(TailCallback cb) { CheckTailAttempt(std::move(cb), 0); }

void ErwinClient::CheckTailAttempt(TailCallback cb, int attempt) {
  endpoint_.Call(view_.seq_config[0], kSeqCheckTail, "",
                 [this, cb, attempt](Status s, Decoder d) {
                   if (!s.ok()) {
                     if (attempt >= kTailTrimAttemptLimit) {
                       cb(std::move(s), 0, 0);
                       return;
                     }
                     // Leader unreachable / changed: re-resolve and retry.
                     ProbeThen([this, cb, attempt]() { CheckTailAttempt(cb, attempt + 1); });
                     return;
                   }
                   SeqCheckTailResp resp;
                   if (!resp.Decode(d)) {
                     cb(Status::Internal("bad tail response"), 0, 0);
                     return;
                   }
                   last_tail_view_ = resp.view;
                   tails_.Note(endpoint_.loop()->Now(), resp.durable, resp.stable);
                   cb(Status::Ok(), resp.durable, resp.stable);
                 },
                 kTailZkDeadlineNs);
}

bool ErwinClient::CachedTail(LogPos* durable, LogPos* stable) {
  if (!tails_.Get(endpoint_.loop()->Now(), durable, stable)) {
    return false;
  }
  read_stats_.tail_cache_hits++;
  return true;
}

void ErwinClient::CheckTailOfLog(LogId log, TailCallback cb) {
  CheckTailOfLogAttempt(log, std::move(cb), 0);
}

void ErwinClient::CheckTailOfLogAttempt(LogId log, TailCallback cb, int attempt) {
  SeqCheckTailReq req;
  req.log = log;
  endpoint_.CallMsg(view_.seq_config[0], kSeqCheckTail, req,
                    [this, log, cb, attempt](Status s, Decoder d) {
                      if (!s.ok()) {
                        if (attempt >= kTailTrimAttemptLimit) {
                          cb(std::move(s), 0, 0);
                          return;
                        }
                        ProbeThen([this, log, cb, attempt]() {
                          CheckTailOfLogAttempt(log, cb, attempt + 1);
                        });
                        return;
                      }
                      SeqCheckTailResp resp;
                      if (!resp.Decode(d)) {
                        cb(Status::Internal("bad tail response"), 0, 0);
                        return;
                      }
                      cb(Status::Ok(), resp.durable, resp.stable);
                    },
                    kTailZkDeadlineNs);
}

void ErwinClient::ResolveLog(const std::string& name,
                             std::function<void(Status, LogId)> cb) {
  if (view_.zk == kInvalidNode) {
    cb(Status::InvalidArgument("unknown log: " + name), kDefaultLog);
    return;
  }
  // Refresh the registry from "/logs/config" and retry the lookup: Open() falls
  // through to here exactly when the installed snapshot predates the log's creation.
  ZkClient zk(&endpoint_, view_.zk);
  zk.GetData("/logs/config",
             [this, name, cb = std::move(cb)](Status s, std::string data, uint64_t) mutable {
               if (s.ok()) {
                 uint64_t epoch = 0;
                 std::vector<LogRegistryEntry> entries;
                 if (DecodeLogConfig(data, &epoch, &entries) && epoch > view_.log_epoch) {
                   view_.log_epoch = epoch;
                   view_.logs = entries;
                   InstallLogRegistry(std::move(entries));
                 }
               }
               for (const LogRegistryEntry& entry : log_registry()) {
                 if (entry.name == name && !entry.deleted) {
                   cb(Status::Ok(), entry.id);
                   return;
                 }
               }
               cb(Status::InvalidArgument("unknown log: " + name), kDefaultLog);
             },
             kTailZkDeadlineNs);
}

void ErwinClient::Trim(LogPos index, TrimCallback cb) { TrimAttempt(index, std::move(cb), 0); }

void ErwinClient::TrimAttempt(LogPos index, TrimCallback cb, int attempt) {
  TrimMsg msg{index};
  endpoint_.CallMsg(view_.seq_config[0], kSeqTrim, msg,
                    [this, index, cb, attempt](Status s, Decoder) {
                      if (!s.ok() && attempt < kTailTrimAttemptLimit) {
                        ProbeThen([this, index, cb, attempt]() {
                          TrimAttempt(index, cb, attempt + 1);
                        });
                        return;
                      }
                      cb(std::move(s));
                    },
                    kTrimDeadlineNs);
}

}  // namespace lazylog
