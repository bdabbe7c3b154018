#include "src/seq/controller.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"
#include "src/rpc/rpc_methods.h"
#include "src/seq/fanout.h"

namespace lazylog {

namespace {
// Control-plane retry policy (the table in DESIGN.md §3.1). Per-attempt timeouts are
// short enough that a step under an asymmetric partition makes progress as soon as the
// relevant link heals, long enough to cover healthy RTTs with queueing.
// Shard fence: one RTT to a shard server, until every (still-member, live) server acks.
constexpr RetryPolicy kShardFenceRetry{1 * kMs, 500 * kUs, 0};
// Seq seal: one attempt; a live replica that misses it is resealed in the background.
constexpr RetryPolicy kSeqSealRetry{5 * kMs, 0, 1};
// Reseal: one attempt every 2 ms (timeout + backoff) until the node is sealed or started
// into a newer view; the shard fence keeps it harmless meanwhile.
constexpr RetryPolicy kResealRetry{1 * kMs, 1 * kMs, 0};
// StartView: unbounded, because a lost StartView would leave a member sealed forever.
constexpr RetryPolicy kStartViewRetry{5 * kMs, 1 * kMs, 0};
// Promo-seal and promote: a target silent for 8 rounds is presumed dead.
constexpr RetryPolicy kPromoteRetry{1 * kMs, 500 * kUs, 8};
// Config pushes to the sequencing replicas: ~70 ms of tries, then the miss is reported.
constexpr RetryPolicy kSeqPushRetry{5 * kMs, 2 * kMs, 10};
// Index re-point: bounded, because the index is an access path, never an ack dependency.
constexpr RetryPolicy kIndexPushRetry{1 * kMs, 2 * kMs, 5};
// The recovery flush and the replacement state copy wait out the RPC timeout per try.
// A flush source that misses 3 tries is presumed gone and sealing restarts; a
// replacement that misses 5 fails the op.
constexpr uint32_t kFlushAttempts = 3;
constexpr uint64_t kFlushRetryNs = 1 * kMs;
constexpr uint32_t kCopyStateAttempts = 5;
constexpr uint64_t kCopyStateRetryNs = 2 * kMs;
// A flow whose key target died (flush source, promotion candidate) restarts after this.
constexpr uint64_t kRestartNs = 1 * kMs;
// A seal round that reached no replica is retried after (1 + min(round, cap)) steps.
constexpr uint64_t kSealRoundStepNs = 1 * kMs;
constexpr uint32_t kSealRoundStepCap = 8;
// ZK writes: a controller<->ZK partition delays a step but never aborts it (unbounded).
constexpr uint64_t kZkOpTimeoutNs = 10 * kMs;
constexpr uint64_t kZkRetryNs = 2 * kMs;
// Polls a configured replica may stay unregistered (no liveness ephemeral ever seen)
// before the controller declares it failed. Polls run every 2 session heartbeats, so
// this is a multi-timeout grace window for slow registrations under queued ZK writes.
constexpr uint32_t kUnregisteredPollLimit = 4;

template <typename Req>
std::string Encoded(const Req& req) {
  Encoder enc;
  req.Encode(enc);
  return enc.Take();
}
}  // namespace

Controller::Controller(Network* net, const SimParams& params, NodeId zk_node)
    : endpoint_(net), params_(params), zk_(&endpoint_, zk_node) {}

void Controller::Start(std::vector<NodeId> seq_replicas, NodeId initial_leader,
                       std::vector<std::vector<NodeId>> shards) {
  seq_replicas_ = seq_replicas;
  shards_ = std::move(shards);
  shard_promo_epochs_.assign(shards_.size(), 0);
  // Initial config: leader first, then the rest in index order.
  config_.clear();
  config_.push_back(initial_leader);
  for (NodeId n : seq_replicas) {
    if (n != initial_leader) {
      config_.push_back(n);
    }
  }
  zk_.Watch("/seq/replicas/", [this](const std::string& path, ZkEvent event) {
    if (event == ZkEvent::kDeleted) {
      OnReplicaDown(path);
    }
  });
  // Persist the initial shard membership so clients can resolve it from ZK.
  WriteShardConfig(nullptr);
  // Watch notifications are fire-and-forget and may be lost; poll as a backstop.
  endpoint_.loop()->Schedule(2 * params_.control.session_heartbeat_ns,
                             [this]() { ReconcilePoll(); });
}

std::vector<NodeId> Controller::AllShardServers() const {
  std::vector<NodeId> ids;
  for (const auto& shard : shards_) {
    for (NodeId n : shard) {
      ids.push_back(n);
    }
  }
  return ids;
}

void Controller::OnReplicaDown(const std::string& path) {
  LLOG(kInfo) << "controller: replica ephemeral gone: " << path;
  // The path encodes the replica index ("/seq/replicas/<i>"); remember it as dead so
  // sealing does not wait out a timeout on a node we know has failed.
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    const int idx = std::atoi(path.c_str() + slash + 1);
    if (idx >= 0 && static_cast<size_t>(idx) < seq_replicas_.size()) {
      known_dead_.insert(seq_replicas_[idx]);
    }
  }
  if (reconfiguring_) {
    pending_failure_ = true;
    return;
  }
  timing_ = ReconfigTiming{};
  timing_.detected_at = endpoint_.loop()->Now();
  reconfiguring_ = true;
  SealAll(0);
}

void Controller::SealAll(uint32_t attempt) {
  // Seal every reachable replica of the current config *and* fence every shard server
  // into the next epoch, in parallel. Once a replica is sealed no new record can commit
  // in the old view (clients need acks from *all* replicas in one view); once the
  // shards are fenced a deposed-but-partitioned leader can neither bind positions nor
  // advance stable-gp (STALE_VIEW), which is what makes recovery safe under asymmetric
  // partitions where the old leader never sees a seal.
  const ViewId fence_view = view_ + 1;
  std::vector<NodeId> targets;
  std::copy_if(config_.begin(), config_.end(), std::back_inserter(targets),
               [this](NodeId n) { return known_dead_.count(n) == 0; });

  auto join = std::make_shared<int>(2);
  auto live_nodes = std::make_shared<std::vector<NodeId>>();
  auto proceed = [this, join, live_nodes, attempt]() {
    if (--*join > 0) {
      return;
    }
    if (live_nodes->empty()) {
      // Nobody sealed (every live member unreachable). Consistency is already protected
      // by the shard fence; retry with backoff until a link heals or an ephemeral
      // expires and updates known_dead_.
      LLOG(kWarn) << "controller: seal round " << attempt << " reached no replica; retrying";
      const uint64_t backoff = (1 + std::min(attempt, kSealRoundStepCap)) * kSealRoundStepNs;
      endpoint_.loop()->Schedule(backoff, [this, attempt]() { SealAll(attempt + 1); });
      return;
    }
    timing_.sealed_at = endpoint_.loop()->Now();
    // The new config is the live replicas, led by the recovery replica. Prefer the old
    // leader as recovery replica when alive (its log already defines the order in
    // flight); otherwise any live replica is safe (§4.5 correctness sketch).
    std::vector<NodeId> new_config = *live_nodes;
    auto leader = std::find(new_config.begin(), new_config.end(), config_[0]);
    if (leader != new_config.end()) {
      std::rotate(new_config.begin(), leader, leader + 1);
    }
    FlushRecovery(std::move(new_config));
  };

  // Fence the storage tier until every shard server acked. A node that was replaced (no
  // longer a shard member) or is known dead (a crashed shard primary awaiting promotion)
  // is dropped: a sequencing reconfiguration that raced a shard-primary failure must not
  // wait forever on the dead primary's fence ack.
  const std::vector<NodeId> all_shards = AllShardServers();
  const std::set<NodeId> fence_targets(all_shards.begin(), all_shards.end());
  Fanout(&endpoint_, kShardSeal, {fence_targets.begin(), fence_targets.end()},
         Encoded(ShardSealReq{fence_view}), kShardFenceRetry, nullptr,
         [this](NodeId n) {
           const std::vector<NodeId> current = AllShardServers();
           return dead_shard_servers_.count(n) == 0 &&
                  std::find(current.begin(), current.end(), n) != current.end();
         },
         [proceed](const FanoutOutcome&) { proceed(); });

  // Fence the index tier fire-and-forget: an index node that misses the fence can at
  // worst accept a deposed leader's stable-gp stat update — its served coverage comes
  // from the (acked-fenced) shards' exports, so consistency never depends on this.
  const Buf ibody = Encoded(ShardSealReq{fence_view});
  for (NodeId n : index_nodes_) {
    endpoint_.Call(n, kShardSeal, ibody, nullptr, 0);
  }

  // Seal the sequencing tier: one attempt per replica.
  const ViewId sealed_view = view_;
  Fanout(&endpoint_, kSeqSeal, std::move(targets), Encoded(SeqSealReq{sealed_view}),
         kSeqSealRetry, nullptr, nullptr,
         [this, live_nodes, sealed_view, proceed](const FanoutOutcome& out) {
           std::vector<NodeId> unsealed;
           for (size_t i = 0; i < out.targets.size(); ++i) {
             if (out.settled[i] == Settled::kAcked) {
               live_nodes->push_back(out.targets[i]);
               reseal_pending_.erase(out.targets[i]);
             } else if (known_dead_.count(out.targets[i]) == 0) {
               // Live but unreachable from here (asymmetric partition): keep trying
               // to seal it in the background so it stops serving once a link
               // heals. The shard fence keeps it harmless in the meantime.
               unsealed.push_back(out.targets[i]);
             }
           }
           Reseal(std::move(unsealed), sealed_view);
           proceed();
         });
}

void Controller::Reseal(std::vector<NodeId> nodes, ViewId sealed_view) {
  // A node already being resealed keeps its chain; the rest start one, in node order.
  std::sort(nodes.begin(), nodes.end());
  std::erase_if(nodes, [this](NodeId n) { return !reseal_pending_.insert(n).second; });
  if (nodes.empty()) {
    return;
  }
  const Buf body = Encoded(SeqSealReq{sealed_view});
  const uint64_t first_ns = kResealRetry.timeout_ns + kResealRetry.backoff_ns;  // one period
  endpoint_.loop()->Schedule(first_ns, [this, nodes, body]() {
    // WRONG_VIEW means the node already moved to a newer view (it was started into the
    // new config); either way it is no longer a stale-serving risk. A StartView ack ends
    // the chain too.
    Fanout(
        &endpoint_, kSeqSeal, nodes, body, kResealRetry,
        [this](NodeId n, const Status& s, Decoder&) {
          const bool sealed = s.ok() || s.code() == StatusCode::kWrongView;
          if (sealed) {
            reseal_pending_.erase(n);
          }
          return sealed;
        },
        [this](NodeId n) { return reseal_pending_.count(n) > 0; }, nullptr);
  });
}

void Controller::ReconcilePoll() {
  // ZK watch fires ride an unacknowledged one-shot message; a loss window can swallow
  // the only notification of a replica's death. Reconcile by listing the ephemerals and
  // synthesizing the missed deletion events. Paths are only trusted as "missing" if a
  // previous poll saw them, so startup races (ephemerals still being created) are safe.
  zk_.List(
      "/seq/replicas/",
      [this](Status s, std::vector<std::string> paths) {
        if (s.ok() && !reconfiguring_) {
          std::set<std::string> present(paths.begin(), paths.end());
          for (const std::string& p : paths) {
            seen_paths_.insert(p);
          }
          for (size_t i = 0; i < seq_replicas_.size(); ++i) {
            const NodeId n = seq_replicas_[i];
            if (known_dead_.count(n) > 0 ||
                std::find(config_.begin(), config_.end(), n) == config_.end()) {
              continue;
            }
            const std::string path = "/seq/replicas/" + std::to_string(i);
            if (seen_paths_.count(path) > 0 && present.count(path) == 0) {
              LLOG(kInfo) << "controller: poll found missed failure of " << path;
              OnReplicaDown(path);
              break;  // OnReplicaDown starts a reconfiguration; queue the rest
            }
            // A replica that dies before its ephemeral ever lands (the registration
            // is refused once its session expired) leaves nothing to delete, so no
            // watch will ever fire for it. After a registration grace period, a
            // configured replica that still has no ephemeral is declared failed.
            if (present.count(path) == 0 &&
                ++unregistered_polls_[path] >= kUnregisteredPollLimit) {
              LLOG(kInfo) << "controller: " << path << " never registered; declaring failed";
              OnReplicaDown(path);
              break;
            }
            if (present.count(path) > 0) {
              unregistered_polls_.erase(path);
            }
          }
        }
        endpoint_.loop()->Schedule(2 * params_.control.session_heartbeat_ns,
                                   [this]() { ReconcilePoll(); });
      },
      kZkOpTimeoutNs);
}

void Controller::FlushRecovery(std::vector<NodeId> new_config) {
  const NodeId recovery = new_config[0];
  auto resp = std::make_shared<SeqFlushResp>();
  Fanout(&endpoint_, kSeqFetchLog, {recovery}, Encoded(SeqFlushReq{view_ + 1}),
         {params_.rpc_timeout_ns, kFlushRetryNs, kFlushAttempts},
         [resp](NodeId, const Status& s, Decoder& d) {
           *resp = SeqFlushResp{};
           return s.ok() && resp->Decode(d);
         },
         nullptr,
         [this, resp, new_config = std::move(new_config)](const FanoutOutcome& out) {
           if (out.settled[0] != Settled::kAcked) {
             // The recovery replica is likely gone; restart from sealing with
             // whatever known_dead_ the watches have accumulated since.
             LLOG(kError) << "controller: flush from " << out.targets[0] << " failed";
             endpoint_.loop()->Schedule(kRestartNs, [this]() { SealAll(0); });
             return;
           }
           timing_.flushed_at = endpoint_.loop()->Now();
           FinishView(new_config, resp->new_ordered_gp, std::move(resp->flushed_ids));
         });
}

void Controller::FinishView(std::vector<NodeId> new_config, LogPos ordered_gp,
                            std::vector<WireRecordId> flushed_ids) {
  const ViewId new_view = view_ + 1;
  // Persist the new configuration *before* advancing stable-gp so a partitioned replica
  // of the old view can never overwrite records exposed afterwards (§4.5).
  Encoder cfg;
  cfg.PutU64(new_view);
  cfg.PutU32(static_cast<uint32_t>(new_config.size()));
  for (NodeId n : new_config) {
    cfg.PutU32(n);
  }
  WriteZk("/seq/config", [cfg = cfg.Take()]() { return cfg; },
          [this, new_config = std::move(new_config), ordered_gp,
           flushed_ids = std::move(flushed_ids), new_view]() mutable {
    timing_.view_written_at = endpoint_.loop()->Now();
    // Advance stable-gp on the shards: everything flushed is now stable. Stamped with the
    // new view so it passes the fence raised in SealAll.
    const Buf sbody = Encoded(StableGpMsg{new_view, ordered_gp});
    for (NodeId n : AllShardServers()) {
      endpoint_.Call(n, kShardSetStableGp, sbody, nullptr, 0);
    }
    for (NodeId n : index_nodes_) {
      endpoint_.Call(n, kShardSetStableGp, sbody, nullptr, 0);
    }
    // Start the new view on every member, retrying per member until each one adopted it.
    const SeqStartViewReq sv{new_view, {new_config.begin(), new_config.end()}, ordered_gp,
                             ordered_gp, std::move(flushed_ids)};
    Fanout(
        &endpoint_, kSeqStartView, new_config, Encoded(sv), kStartViewRetry,
        [this](NodeId member, const Status& s, Decoder&) {
          if (s.ok() || s.code() == StatusCode::kWrongView) {
            // Adopted (or already past) this view: no longer a reseal target.
            reseal_pending_.erase(member);
            return true;
          }
          // A member that died mid-reconfiguration settles too: the queued failure
          // event will remove it from the config. Don't hold the new view hostage.
          return known_dead_.count(member) > 0;
        },
        nullptr,
        [this, new_config, new_view](const FanoutOutcome&) {
          view_ = new_view;
          config_ = new_config;
          timing_.new_view_at = endpoint_.loop()->Now();
          timing_.complete = true;
          reconfigurations_++;
          reconfiguring_ = false;
          LLOG(kInfo) << "controller: view " << new_view << " started";
          if (on_reconfigured_) {
            on_reconfigured_(timing_);
          }
          if (pending_failure_) {
            pending_failure_ = false;
            OnReplicaDown("(queued)");
          }
        });
  });
}

void Controller::WriteZk(std::string path, std::function<std::string()> encode,
                         std::function<void()> done) {
  zk_.SetData(
      path, encode(), UINT64_MAX,
      [this, path, encode, done = std::move(done)](Status s) {
        if (s.ok()) {
          if (done) {
            done();
          }
          return;
        }
        LLOG(kWarn) << "controller: zk write of " << path << " failed (" << s.ToString()
                    << "); retrying";
        endpoint_.loop()->Schedule(kZkRetryNs,
                                   [this, path, encode, done]() { WriteZk(path, encode, done); });
      },
      kZkOpTimeoutNs);
}

// --- shard membership ------------------------------------------------------------------

std::string Controller::EncodeShardConfig() const {
  Encoder e;
  e.PutU64(shard_epoch_);
  e.PutU32(static_cast<uint32_t>(shards_.size()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    e.PutU32(static_cast<uint32_t>(shards_[s].size()));
    for (NodeId n : shards_[s]) {
      e.PutU32(n);
    }
    // Per-shard promotion epoch: bumped on every primary failover so clients and the
    // oracle can tell a reordered replica list from a mere backup replacement.
    e.PutU64(s < shard_promo_epochs_.size() ? shard_promo_epochs_[s] : 0);
  }
  return e.Take();
}

void Controller::WriteShardConfig(std::function<void()> done) {
  WriteZk("/shards/config", [this]() { return EncodeShardConfig(); }, std::move(done));
}

void Controller::BeginShardOp(uint32_t shard, std::function<void(Status)> done,
                              std::function<void(std::function<void(Status)>)> op) {
  auto run = [this, shard, done = std::move(done), op = std::move(op)]() {
    op([this, shard, done](Status s) {
      EndShardOp(shard);
      if (done) {
        done(std::move(s));
      }
    });
  };
  if (shard_busy_.count(shard) > 0) {
    shard_op_queue_[shard].push_back(std::move(run));
    return;
  }
  shard_busy_.insert(shard);
  run();
}

void Controller::EndShardOp(uint32_t shard) {
  auto qit = shard_op_queue_.find(shard);
  if (qit != shard_op_queue_.end() && !qit->second.empty()) {
    auto next = std::move(qit->second.front());
    qit->second.erase(qit->second.begin());
    next();  // the shard stays busy; the queued op ends it in turn
    return;
  }
  shard_busy_.erase(shard);
}

void Controller::ReplaceShardReplica(uint32_t shard, uint32_t replica_index, NodeId new_node,
                                     std::function<void(Status)> done) {
  LL_CHECK(shard < shards_.size(), "bad shard index");
  BeginShardOp(shard, std::move(done), [this, shard, replica_index, new_node](auto done) {
    // Membership may have changed while this op was queued behind another one on the
    // same shard (a promotion reorders and shrinks the replica list); re-validate and
    // re-resolve the victim at execution time rather than trusting the caller's index.
    if (replica_index == 0 || replica_index >= shards_[shard].size()) {
      done(Status::Unavailable("replica index no longer valid (membership changed)"));
      return;
    }
    const NodeId old_node = shards_[shard][replica_index];
    Fanout(
        &endpoint_, kShardCopyState, {new_node}, Encoded(ShardCopyStateReq{shards_[shard][0]}),
        {params_.rpc_timeout_ns, kCopyStateRetryNs, kCopyStateAttempts}, nullptr, nullptr,
        [this, shard, old_node, new_node, done](const FanoutOutcome& out) {
          if (out.settled[0] != Settled::kAcked) {
            done(Status::Unavailable("state copy to " + std::to_string(new_node) + " failed"));
            return;
          }
          // State installed on the replacement: adopt + persist the new membership, then
          // re-wire the sequencing layer. Re-find the victim by identity: its slot may
          // have shifted while the copy ran.
          auto it = std::find(shards_[shard].begin(), shards_[shard].end(), old_node);
          if (it == shards_[shard].end()) {
            done(Status::Unavailable("old replica no longer a member"));
            return;
          }
          *it = new_node;
          shard_epoch_++;
          WriteShardConfig([this, old_node, new_node, done]() {
            PushToSeqReplicas(kSeqUpdateShards,
                              Encoded(SeqUpdateShardsReq{old_node, new_node}), done);
          });
        });
  });
}

void Controller::AddShard(std::vector<NodeId> replicas) {
  shards_.push_back(std::move(replicas));
  shard_promo_epochs_.push_back(0);
  shard_epoch_++;
  WriteShardConfig(nullptr);
}

// --- virtual-log registry ----------------------------------------------------------------

LogId Controller::CreateLog(const std::string& name, uint64_t quota_per_sec,
                            std::function<void(Status)> done) {
  for (const LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      if (done) {
        done(Status::Ok());
      }
      return entry.id;
    }
  }
  LogRegistryEntry entry;
  entry.id = next_log_id_++;
  entry.name = name;
  entry.quota_per_sec = quota_per_sec;
  log_registry_.push_back(std::move(entry));
  log_epoch_++;
  PublishLogRegistry(std::move(done));
  return log_registry_.back().id;
}

void Controller::DeleteLog(const std::string& name, std::function<void(Status)> done) {
  for (LogRegistryEntry& entry : log_registry_) {
    if (entry.name == name && !entry.deleted) {
      entry.deleted = true;
      log_epoch_++;
      PublishLogRegistry(std::move(done));
      return;
    }
  }
  if (done) {
    done(Status::InvalidArgument("unknown log: " + name));
  }
}

void Controller::PublishLogRegistry(std::function<void(Status)> done) {
  // Re-encode at retry time: a newer epoch may have superseded this write, and
  // persisting the latest table is always correct.
  WriteZk("/logs/config", [this]() { return Encoded(SeqUpdateLogsReq{log_epoch_, log_registry_}); },
          nullptr);
  PushToSeqReplicas(kSeqUpdateLogs, Encoded(SeqUpdateLogsReq{log_epoch_, log_registry_}),
                    std::move(done));
}

void Controller::PushToSeqReplicas(MethodId method, Buf body, std::function<void(Status)> done) {
  std::vector<NodeId> targets;
  std::copy_if(seq_replicas_.begin(), seq_replicas_.end(), std::back_inserter(targets),
               [this](NodeId n) { return known_dead_.count(n) == 0; });
  // A replica that died meanwhile settles too: only live replicas must adopt.
  Fanout(&endpoint_, method, std::move(targets), std::move(body), kSeqPushRetry,
         [this](NodeId n, const Status& s, Decoder&) { return s.ok() || known_dead_.count(n) > 0; },
         nullptr, [done = std::move(done)](const FanoutOutcome& out) {
           const std::vector<NodeId> missed = out.With(Settled::kExhausted);
           if (done && missed.empty()) {
             done(Status::Ok());
           } else if (done) {
             done(Status::Unavailable("sequencing replica " + std::to_string(missed[0]) +
                                      " never acked the update"));
           }
         });
}

// --- shard primary failover ------------------------------------------------------------
//
// Promotion protocol (one shard, controller-driven):
//   1. promo-seal every surviving replica under a bumped promotion epoch; the seal ack
//      doubles as a completeness report (applied/durable frontiers, pending bindings),
//      so fencing and candidate selection cost one RPC round;
//   2. pick the survivor with the highest contiguous applied frontier;
//   3. install the new replica order on the peers, then on the new primary — the
//      primary's flip catches lagging peers up from its own log and converts its
//      pending payload bindings into peer back-fills; its ack carries the frontier the
//      orderer must resume from;
//   4. kSeqShardFailover to the sequencing tier: the leader swaps push targets and
//      resets the shard's ordering cursor to that frontier, re-pushing the
//      acked-but-unordered metadata tail (the reconciliation handoff — safe because a
//      window is acked only once every backup replicated it, so nothing at or above
//      ordered-gp was lost with the primary);
//   5. publish the shrunken replica order + promotion epoch to ZK "/shards/config" and
//      re-point the index tier's delta feeds.

struct Controller::PromoState {
  uint32_t shard = 0;
  uint64_t promo_epoch = 0;
  NodeId old_primary = kInvalidNode;
  std::vector<NodeId> survivors;  // old order minus the primary and known-dead nodes
  std::map<NodeId, ShardCompletenessResp> reports;
  NodeId new_primary = kInvalidNode;
  std::vector<NodeId> new_order;  // new primary first
  LogPos reset_upto = 0;
  std::function<void(Status)> done;
};

void Controller::PromoteShardPrimary(uint32_t shard, std::function<void(Status)> done) {
  BeginShardOp(shard, std::move(done),
               [this, shard](auto done) { DoPromoteShardPrimary(shard, std::move(done)); });
}

void Controller::DoPromoteShardPrimary(uint32_t shard, std::function<void(Status)> done) {
  if (shard >= shards_.size() || shards_[shard].empty()) {
    done(Status::Unavailable("no such shard"));
    return;
  }
  auto st = std::make_shared<PromoState>();
  st->shard = shard;
  st->old_primary = shards_[shard][0];
  // Bump the in-memory epoch at attempt start (not at commit): a restarted promotion —
  // the chosen candidate died mid-protocol — re-seals the survivors under a strictly
  // higher epoch instead of finding them already unsealed at the stale one.
  st->promo_epoch = ++shard_promo_epochs_[shard];
  st->done = std::move(done);
  dead_shard_servers_.insert(st->old_primary);
  std::copy_if(shards_[shard].begin() + 1, shards_[shard].end(),
               std::back_inserter(st->survivors),
               [this](NodeId n) { return dead_shard_servers_.count(n) == 0; });
  if (st->survivors.empty()) {
    LLOG(kError) << "controller: shard " << shard << " has no surviving replica to promote";
    st->done(Status::Unavailable("no surviving replica"));
    return;
  }
  failover_timing_ = ShardFailoverTiming{};
  failover_timing_.shard = shard;
  failover_timing_.detected_at = endpoint_.loop()->Now();
  failover_timing_.old_primary = st->old_primary;
  LLOG(kInfo) << "controller: promoting shard " << shard << " (old primary "
              << st->old_primary << ", epoch " << st->promo_epoch << ")";
  PromoSeal(st);
}

void Controller::PromoSeal(std::shared_ptr<PromoState> st) {
  const std::set<NodeId> targets(st->survivors.begin(), st->survivors.end());
  Fanout(&endpoint_, kShardPromoSeal, {targets.begin(), targets.end()},
         Encoded(ShardPromoSealReq{st->promo_epoch}),
         kPromoteRetry,
         [st](NodeId n, const Status& s, Decoder& d) {
           ShardCompletenessResp resp;
           if (!s.ok() || !resp.Decode(d)) {
             return false;
           }
           st->reports[n] = resp;
           return true;
         },
         nullptr,
         [this, st](const FanoutOutcome& out) {
           // Non-responders are presumed dead too: drop them and promote from the
           // replicas that did seal — a failover cannot wait forever on a second
           // casualty.
           for (NodeId drop : out.With(Settled::kExhausted)) {
             LLOG(kWarn) << "controller: survivor " << drop
                         << " never promo-sealed; dropping from shard " << st->shard;
             dead_shard_servers_.insert(drop);
           }
           if (st->reports.empty()) {
             st->done(Status::Unavailable("no survivor reachable for promotion"));
             return;
           }
           failover_timing_.sealed_at = endpoint_.loop()->Now();
           SelectAndPromote(st);
         });
}

void Controller::SelectAndPromote(std::shared_ptr<PromoState> st) {
  // Most-complete backup: highest contiguous applied frontier (ties broken by the
  // durable frontier, then by position in the old order).
  NodeId best = kInvalidNode;
  LogPos best_applied = 0;
  uint64_t best_durable = 0;
  for (NodeId n : st->survivors) {
    auto it = st->reports.find(n);
    if (it == st->reports.end()) {
      continue;
    }
    const ShardCompletenessResp& r = it->second;
    if (best == kInvalidNode || r.order_applied > best_applied ||
        (r.order_applied == best_applied && r.order_durable > best_durable)) {
      best = n;
      best_applied = r.order_applied;
      best_durable = r.order_durable;
    }
  }
  if (best == kInvalidNode) {
    st->done(Status::Unavailable("no completeness report"));
    return;
  }
  st->new_primary = best;
  failover_timing_.new_primary = best;
  st->new_order = {best};
  std::copy_if(st->survivors.begin(), st->survivors.end(), std::back_inserter(st->new_order),
               [&](NodeId n) { return n != best && st->reports.count(n) > 0; });

  // The promote request carries the current order and each member's applied frontier;
  // the primary's ack carries the frontier the orderer must resume from.
  auto promote = [this, st](std::vector<NodeId> targets, FanoutDone done) {
    ShardPromoteReq req;
    req.promo_epoch = st->promo_epoch;
    for (NodeId n : st->new_order) {
      req.order.push_back(n);
      auto it = st->reports.find(n);
      req.peer_applied.push_back(it != st->reports.end() ? it->second.order_applied : 0);
    }
    Fanout(&endpoint_, kShardPromote, std::move(targets), Encoded(req),
           kPromoteRetry,
           [st](NodeId n, const Status& s, Decoder& d) {
             ShardOrderAckResp resp;
             if (!s.ok() || !resp.Decode(d)) {
               return false;
             }
             if (n == st->new_primary) {
               st->reset_upto = resp.applied_upto;
             }
             return true;
           },
           nullptr, std::move(done));
  };
  // Install the new order on the peers FIRST: by the time the new primary flips (and
  // starts catching peers up / back-filling from them), every peer already points its
  // repair path and fetch timers at it and accepts its replication traffic.
  promote({st->new_order.begin() + 1, st->new_order.end()}, [this, st, promote](
                                                                const FanoutOutcome& peers) {
    // Peers that never acked the promote are presumed dead: prune them from the order
    // given to the new primary so its replication acks never gate on a corpse.
    std::vector<NodeId> pruned{st->new_primary};
    for (size_t i = 0; i < peers.targets.size(); ++i) {
      if (peers.settled[i] == Settled::kAcked) {
        pruned.push_back(peers.targets[i]);
      } else {
        LLOG(kWarn) << "controller: peer " << peers.targets[i] << " never acked promote; dropping";
        dead_shard_servers_.insert(peers.targets[i]);
      }
    }
    st->new_order = std::move(pruned);
    promote({st->new_primary}, [this, st](const FanoutOutcome& out) {
      if (out.settled[0] != Settled::kAcked) {
        // The candidate died mid-promotion: mark it dead and restart the protocol; the
        // next round seals the remaining survivors under a higher epoch.
        LLOG(kWarn) << "controller: promote of candidate " << st->new_primary
                    << " failed; restarting promotion";
        dead_shard_servers_.insert(st->new_primary);
        endpoint_.loop()->Schedule(kRestartNs, [this, st]() {
          DoPromoteShardPrimary(st->shard, std::move(st->done));
        });
        return;
      }
      failover_timing_.handoff_at = endpoint_.loop()->Now();
      failover_timing_.reset_upto = st->reset_upto;
      FinishPromotion(st);
    });
  });
}

void Controller::FinishPromotion(std::shared_ptr<PromoState> st) {
  // Commit the new membership (survivors only, promoted primary first), then retarget
  // the ordering pipeline BEFORE publishing the config: the leader's cursor reset +
  // re-push is what fills the acked-but-unordered gap, and clients re-resolving the
  // config will immediately append behind it.
  shards_[st->shard] = st->new_order;
  shard_epoch_++;
  const SeqShardFailoverReq req{st->shard, st->old_primary, st->new_primary, st->reset_upto};
  // A replica that never acks does not stop the promotion: shards_ already holds the
  // committed order, and the shard's survivors were sealed and re-pointed against it.
  PushToSeqReplicas(kSeqShardFailover, Encoded(req), [this, st](Status) {
    WriteShardConfig([this, st]() {
      // Re-point the index tier's delta feeds at the promoted primary.
      Fanout(&endpoint_, kSeqUpdateShards, index_nodes_,
             Encoded(SeqUpdateShardsReq{st->old_primary, st->new_primary}), kIndexPushRetry,
             nullptr, nullptr, nullptr);
      promotions_++;
      failover_timing_.opened_at = endpoint_.loop()->Now();
      failover_timing_.complete = true;
      LLOG(kInfo) << "controller: shard " << st->shard << " promoted " << st->new_primary
                  << " (reset_upto " << st->reset_upto << ", epoch " << st->promo_epoch
                  << ")";
      if (on_shard_promoted_) {
        on_shard_promoted_(failover_timing_);
      }
      st->done(Status::Ok());
    });
  });
}

// --- stats -----------------------------------------------------------------------------

ControllerStatsSnapshot Controller::StatsSnapshot() const {
  ControllerStatsSnapshot s;
  s.view = view_;
  s.shard_epoch = shard_epoch_;
  s.reconfigurations = reconfigurations_;
  s.promotions = promotions_;
  if (failover_timing_.complete) {
    s.last_seal_to_open_ns = failover_timing_.opened_at - failover_timing_.sealed_at;
    s.last_detect_to_open_ns = failover_timing_.opened_at - failover_timing_.detected_at;
  }
  return s;
}

StatsFields ControllerStatsSnapshot::Fields() const {
  return {
      {"view", static_cast<double>(view)},
      {"shard_epoch", static_cast<double>(shard_epoch)},
      {"reconfigurations", static_cast<double>(reconfigurations)},
      {"promotions", static_cast<double>(promotions)},
      {"last_seal_to_open_ns", static_cast<double>(last_seal_to_open_ns)},
      {"last_detect_to_open_ns", static_cast<double>(last_detect_to_open_ns)},
  };
}

}  // namespace lazylog
