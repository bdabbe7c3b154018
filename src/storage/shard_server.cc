#include "src/storage/shard_server.h"

#include <algorithm>

#include "src/common/logging.h"

namespace lazylog {

namespace {
// Ack a client data put only once the disk backlog is below this horizon; bounds memory
// and makes shard throughput saturate at disk bandwidth (§5.1's "durability in the
// critical path is memory, disk catches up in the background").
constexpr uint64_t kDiskAdmissionHorizonNs = 2 * kMs;
constexpr uint64_t kScrubIntervalNs = 50 * kMs;
// Parked ordering windows are bounded: a cursor keeps at most order_pipeline_depth
// windows in flight, so anything beyond a small multiple means the orderer is
// misbehaving; overflow is refused (with the watermark) and the cursor retries.
constexpr size_t kMaxParkedWindows = 64;
// Backoff before a failed peer replication (a no-op decision to a backup, a catch-up
// window to a lagging peer) is re-sent.
constexpr uint64_t kPeerRetryBackoffNs = 60 * kUs;
}  // namespace

void ShardServer::BatchAck::Complete(const Status& s) {
  if (!s.ok()) {
    failed = true;
  }
  LL_CHECK(waits > 0, "BatchAck over-completed");
  if (--waits != 0) {
    return;
  }
  if (!failed) {
    server->OnWindowDurable(span_lo, span_hi);
  }
  if (responder.valid()) {
    server->SendWatermarkAck(std::move(responder),
                             failed ? Status::Internal("shard batch failed") : Status::Ok());
  }
}

void ShardServer::SendWatermarkAck(Responder r, const Status& s) {
  Encoder e;
  ShardOrderAckResp{order_durable_}.Encode(e);
  r.Send(s, e);
}

void ShardServer::OnWindowDurable(LogPos lo, LogPos hi) {
  if (hi <= order_durable_) {
    return;  // already covered (retransmit completion)
  }
  lo = std::max(lo, order_durable_);
  completed_spans_[lo] = std::max(completed_spans_[lo], hi);
  // Advance the contiguous durable prefix.
  auto it = completed_spans_.begin();
  while (it != completed_spans_.end() && it->first <= order_durable_) {
    order_durable_ = std::max(order_durable_, it->second);
    it = completed_spans_.erase(it);
  }
}

ShardServer::Admit ShardServer::DecideAdmit(LogPos lo, LogPos hi, bool overwrite) const {
  if (overwrite) {
    return Admit::kApply;  // recovery flush rewrites the tail and resets the frontiers
  }
  if (hi <= order_durable_) {
    return Admit::kAckDurable;  // fully durable retransmit: re-ack, do not re-apply
  }
  if (lo > order_applied_) {
    return parked_.size() >= kMaxParkedWindows ? Admit::kOverflow : Admit::kPark;
  }
  return Admit::kApply;
}

void ShardServer::ResetOrderFrontiersForOverwrite(LogPos truncate_from, LogPos range_hi) {
  completed_spans_.clear();
  for (auto& [lo, w] : parked_) {
    SendWatermarkAck(std::move(w.responder), Status::StaleView("parked window pre-dates flush"));
  }
  parked_.clear();
  // The flush rewrites [truncate_from, range_hi); everything it covers is applied once
  // it lands, and durability restarts from the truncation point.
  order_applied_ = std::max(range_hi, truncate_from);
  order_durable_ = std::min(order_durable_, truncate_from);
}

void ShardServer::DrainParkedWindows() {
  while (!parked_.empty() && parked_.begin()->first <= order_applied_) {
    OrderedWindow w = std::move(parked_.begin()->second);
    parked_.erase(parked_.begin());
    ApplyWindow(std::move(w.req), std::move(w.responder));
  }
}

ShardServer::ShardServer(Network* net, const SimParams& params, ShardMode mode,
                         ShardId shard_id)
    : endpoint_(net),
      cpu_(net->loop(), params.shard_cpu),
      disk_(net->loop(), params.disk),
      params_(params),
      mode_(mode),
      shard_id_(shard_id) {
  endpoint_.Register(kShardWindow, [this](NodeId, Decoder d, Responder r) {
    HandleWindow(d, std::move(r));
  });
  endpoint_.Register(kShardReplicate, [this](NodeId from, Decoder d, Responder r) {
    HandleReplicate(from, d, std::move(r));
  });
  endpoint_.Register(kShardRead, [this](NodeId, Decoder d, Responder r) {
    HandleRead(d, std::move(r));
  });
  endpoint_.Register(kShardSetStableGp, [this](NodeId, Decoder d, Responder r) {
    HandleSetStableGp(d, std::move(r));
  });
  endpoint_.Register(kShardPutData, [this](NodeId, Decoder d, Responder r) {
    HandlePutData(d, std::move(r));
  });
  endpoint_.Register(kShardReplicateNoOp, [this](NodeId from, Decoder d, Responder r) {
    HandleReplicateNoOp(from, d, std::move(r));
  });
  endpoint_.Register(kShardPosMap, [this](NodeId, Decoder d, Responder r) {
    HandlePosMap(d, std::move(r));
  });
  endpoint_.Register(kShardIndexDelta, [this](NodeId, Decoder d, Responder r) {
    HandleIndexDelta(d, std::move(r));
  });
  endpoint_.Register(kShardTrim, [this](NodeId, Decoder d, Responder r) {
    HandleTrim(d, std::move(r));
  });
  endpoint_.Register(kShardFetchState, [this](NodeId, Decoder d, Responder r) {
    HandleFetchState(d, std::move(r));
  });
  endpoint_.Register(kShardSeal, [this](NodeId, Decoder d, Responder r) {
    HandleSeal(d, std::move(r));
  });
  endpoint_.Register(kShardCopyState, [this](NodeId, Decoder d, Responder r) {
    HandleCopyState(d, std::move(r));
  });
  endpoint_.Register(kShardPromoSeal, [this](NodeId, Decoder d, Responder r) {
    HandlePromoSeal(d, std::move(r));
  });
  endpoint_.Register(kShardPromote, [this](NodeId, Decoder d, Responder r) {
    HandlePromote(d, std::move(r));
  });
  endpoint_.Register(kShardFetchRecord, [this](NodeId, Decoder d, Responder r) {
    HandleFetchRecord(d, std::move(r));
  });
  if (mode_ == ShardMode::kStModified) {
    endpoint_.loop()->Schedule(kScrubIntervalNs, [this]() { ScrubOrphans(); });
  }
}

void ShardServer::SetReplicaSet(std::vector<NodeId> replicas) {
  replicas_ = std::move(replicas);
}

void ShardServer::Bootstrap(LogPos stable_gp, LogPos meta_next_pos) {
  stable_gp_ = stable_gp;
  meta_base_ = meta_next_pos;
  trimmed_below_ = 0;
  // A runtime-added shard starts its ordering stream at the leader's assignment
  // frontier: the first window its cursor sends has range_lo == meta_next_pos, so the
  // frontiers must start there or that window would park forever.
  order_applied_ = meta_next_pos;
  order_durable_ = meta_next_pos;
  completed_spans_.clear();
  // A runtime-added shard owns nothing below the bootstrap frontier; start the tag
  // index there so delta pulls report full coverage immediately.
  index_pos_frontier_ = std::max(index_pos_frontier_, stable_gp);
  if (stable_gp_observer_) {
    stable_gp_observer_(view_, stable_gp_);
  }
}

const Record* ShardServer::RecordAt(LogPos pos) const {
  auto it = pos_to_local_.find(pos);
  return it == pos_to_local_.end() ? nullptr : log_.Get(it->second);
}

uint64_t ShardServer::DiskAdmissionDelay() const {
  const uint64_t depth = disk_.QueueDepthNs();
  return depth > kDiskAdmissionHorizonNs ? depth - kDiskAdmissionHorizonNs : 0;
}

// --- ordered storage ----------------------------------------------------------------

void ShardServer::StoreOrdered(LogPos pos, Record record, bool allow_existing) {
  auto it = pos_to_local_.find(pos);
  if (it != pos_to_local_.end()) {
    LL_CHECK(allow_existing, "duplicate ordered position");
    log_.Overwrite(it->second, std::move(record));
    return;
  }
  if (fencing_disabled_ && !local_pos_.empty() && pos < local_pos_.back()) {
    return;  // unfenced split-brain interleaving can regress positions; drop (fixture only)
  }
  LL_CHECK(local_pos_.empty() || pos > local_pos_.back(), "ordered positions must ascend");
  const uint64_t local = log_.Append(std::move(record));
  local_pos_.push_back(pos);
  pos_to_local_[pos] = local;
  stats_.appends++;
}

void ShardServer::TruncateOrderedFrom(LogPos pos) {
  uint64_t dropped = 0;
  while (!local_pos_.empty() && local_pos_.back() >= pos) {
    const uint64_t local = log_.end_index() - 1 - dropped;
    if (mode_ == ShardMode::kStModified) {
      // The recovery flush will rebind these positions from the unordered pool; put the
      // record data back so it is not lost (it was moved out of the pool at bind time).
      const Record* rec = log_.Get(local);
      if (rec != nullptr && !rec->no_op && pending_.count(rec->id) == 0) {
        pool_[rec->id] = PoolEntry{rec->payload, rec->tag, rec->log};
        pool_arrival_[rec->id] = endpoint_.loop()->Now();
      }
    }
    pos_to_local_.erase(local_pos_.back());
    local_pos_.pop_back();
    ++dropped;
  }
  if (dropped > 0) {
    log_.TruncateFrom(log_.end_index() - dropped);
  }
  // Cancel pending bindings in the truncated range (recovery rewrites them).
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.pos >= pos) {
      it->second.timeout.Cancel();
      it->second.batch->Complete(Status::Ok());
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- ordering windows from the background orderer --------------------------------------

void ShardServer::HandleWindow(Decoder d, Responder r) {
  auto req = std::make_shared<ShardWindowReq>();
  if (!req->Decode(d, mode_ == ShardMode::kStModified)) {
    r.Send(Status::InvalidArgument("bad window"));
    return;
  }
  if (FencedOff(req->view)) {
    r.Send(Status::StaleView("fenced: stale orderer view"));
    return;
  }
  view_ = std::max(view_, req->view);
  // CPU: record bytes (m) or a fixed size per metadata entry (st).
  uint64_t bytes = req->entries.size() * kMetaEntryBytes;
  for (const auto& pr : req->records) {
    bytes += pr.record.payload.size();
  }
  cpu_.ExecuteFor(bytes, [this, req, r]() mutable {
    AdmitWindow(std::move(req), std::move(r));
  });
}

void ShardServer::HandleReplicate(NodeId from, Decoder d, Responder r) {
  // Backup side of HandleWindow: the same admission and apply path. A backup does not
  // replicate, so completion just answers the primary.
  if (loading_) {
    r.Send(Status::Unavailable("state copy in progress"));
    return;
  }
  if (RejectPrimaryTraffic(from)) {
    r.Send(Status::StaleView("fenced: not my primary"));
    return;
  }
  HandleWindow(std::move(d), std::move(r));
}

void ShardServer::AdmitWindow(std::shared_ptr<ShardWindowReq> req, Responder r) {
  switch (DecideAdmit(req->range_lo, req->range_hi, req->overwrite)) {
    case Admit::kAckDurable:
      stats_.windows_retransmitted++;
      SendWatermarkAck(std::move(r), Status::Ok());
      return;
    case Admit::kPark: {
      stats_.windows_parked++;
      auto [it, inserted] = parked_.try_emplace(req->range_lo);
      if (!inserted) {
        SendWatermarkAck(std::move(it->second.responder),
                         Status::Unavailable("superseded by a newer retry"));
      }
      it->second = OrderedWindow{std::move(req), std::move(r)};
      return;
    }
    case Admit::kOverflow:
      SendWatermarkAck(std::move(r), Status::Unavailable("parked window overflow"));
      return;
    case Admit::kApply:
      break;
  }
  ApplyWindow(std::move(req), std::move(r));
  DrainParkedWindows();
}

void ShardServer::ApplyWindow(std::shared_ptr<ShardWindowReq> req, Responder r) {
  auto batch = std::make_shared<BatchAck>();
  batch->server = this;
  batch->responder = std::move(r);
  batch->waits = 1;  // guard until arming completes
  batch->span_lo = req->range_lo;
  batch->span_hi = req->range_hi;
  if (req->overwrite) {
    // Recovery flush: rewrite the unstable tail, metadata and bindings included.
    if (req->truncate_from >= meta_base_ &&
        req->truncate_from - meta_base_ < meta_log_.size()) {
      meta_log_.resize(req->truncate_from - meta_base_);
    }
    TruncateOrderedFrom(req->truncate_from);
    ResetOrderFrontiersForOverwrite(req->truncate_from, req->range_hi);
    batch->span_lo = std::min(req->truncate_from, req->range_lo);
    batch->span_hi = std::max(req->range_hi, req->truncate_from);
  } else {
    order_applied_ = std::max(order_applied_, req->range_hi);
    stats_.windows_applied++;
  }
  // The one mode-specific step: store the records, or extend the metadata log and bind
  // the positions this shard owns. Re-pushes from orderer retries are skipped.
  uint64_t stored_bytes = 0;
  if (mode_ == ShardMode::kStModified) {
    for (const MetaEntry& entry : req->entries) {
      if (entry.pos < meta_base_) {
        continue;  // before this shard joined (runtime-added shard, §6.9)
      }
      // Store the position->shard map (every shard keeps the full map; readers use it
      // to locate records, §5.3).
      const uint64_t idx = entry.pos - meta_base_;
      if (idx < meta_log_.size()) {
        meta_log_[idx] = entry.shard;
      } else {
        // A gap can only occur on a runtime-added shard whose bootstrap raced a batch
        // that was in flight when it joined; those positions predate the shard and hold
        // no records of ours. Readers resolve them via long-lived shards (§6.9).
        while (meta_log_.size() < idx) {
          meta_log_.push_back(UINT32_MAX);
        }
        meta_log_.push_back(entry.shard);
      }
      if (entry.shard == shard_id_ &&
          (req->overwrite || pos_to_local_.count(entry.pos) == 0)) {
        BindPosition(entry, batch);
      }
    }
  } else {
    for (const auto& pr : req->records) {
      if (req->overwrite || pos_to_local_.count(pr.pos) == 0) {
        StoreOrdered(pr.pos, pr.record, req->overwrite);
        stored_bytes += pr.record.payload.size();
      }
    }
  }
  // Replicate to backups; each ack releases one wait. Backups run the same admission,
  // so a window reordered in flight parks there until its predecessor lands.
  if (is_primary()) {
    // Re-encoding for backups re-attaches the same payload handles the orderer sent;
    // replication fans out refcounts, not bytes.
    Encoder enc;
    req->Encode(enc);
    const std::vector<Buf> atts = enc.TakeAtts();
    const Buf body = enc.TakeBuf();
    for (size_t i = 1; i < replicas_.size(); ++i) {
      batch->waits++;
      endpoint_.Call(replicas_[i], kShardReplicate, body,
                     [batch](Status s, Decoder) { batch->Complete(s); },
                     params_.rpc_timeout_ns, atts);
    }
  }
  // Shards are the long-term durable tier: the window ack (and hence GC of the
  // sequencing replicas and the stable-gp advance) waits for the disk write. This is
  // off the append critical path — it only sets the background-ordering cycle length,
  // which is what makes ordering batches grow with the append rate (Fig 11). Erwin-st
  // persists the metadata segment; its bound data already hit the disk on PutData.
  batch->waits++;
  disk_.Write(stored_bytes + req->records.size() * 32 + req->entries.size() * kMetaEntryBytes,
              [batch]() { batch->Complete(Status::Ok()); });
  batch->Complete(Status::Ok());  // release the arming guard
}

// --- Erwin-st: unordered data + ordered metadata --------------------------------------

void ShardServer::HandlePutData(Decoder d, Responder r) {
  ShardPutDataReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad put"));
    return;
  }
  if (rejected_.count(req.id) > 0) {
    stats_.rejected_puts++;
    r.Send(Status::Rejected("record resolved as no-op"));
    return;
  }
  stats_.data_puts++;
  const uint64_t bytes = req.payload.size();
  cpu_.ExecuteFor(bytes, [this, bytes, req = std::move(req), r]() mutable {
    if (rejected_.count(req.id) > 0) {
      stats_.rejected_puts++;
      r.Send(Status::Rejected("record resolved as no-op"));
      return;
    }
    auto pending_it = pending_.find(req.id);
    if (pending_it != pending_.end()) {
      // The metadata beat the data here; resolve the parked binding.
      ResolvePendingWithData(req.id, std::move(req.payload), req.tag, req.log);
    } else {
      pool_[req.id] = PoolEntry{std::move(req.payload), req.tag, req.log};
      pool_arrival_[req.id] = endpoint_.loop()->Now();
    }
    // Memory on all replicas is the critical-path durability; disk catches up in the
    // background but exerts backpressure once its queue exceeds the admission horizon.
    disk_.Write(bytes);
    const uint64_t delay = DiskAdmissionDelay();
    if (delay == 0) {
      r.Send(Status::Ok());
    } else {
      endpoint_.loop()->Schedule(delay, [r]() mutable { r.Send(Status::Ok()); });
    }
  });
}

void ShardServer::BindPosition(const MetaEntry& entry, const std::shared_ptr<BatchAck>& batch) {
  auto pool_it = pool_.find(entry.id);
  if (pool_it != pool_.end()) {
    StoreOrdered(entry.pos,
                 Record{entry.id, std::move(pool_it->second.payload), false,
                        pool_it->second.tag, pool_it->second.log},
                 false);
    pool_.erase(pool_it);
    pool_arrival_.erase(entry.id);
    return;
  }
  // Data not here yet: bind a placeholder no-op. A no-op'ed id (resolved in a previous
  // view) keeps it; otherwise start the timeout (§5.4). The primary decides no-op;
  // backups repair by fetching from the primary instead.
  StoreOrdered(entry.pos, Record{entry.id, "", true}, false);
  if (rejected_.count(entry.id) > 0) {
    return;
  }
  PendingBinding pb;
  pb.pos = entry.pos;
  pb.local_index = pos_to_local_[entry.pos];
  pb.batch = batch;
  batch->waits++;
  const RecordId id = entry.id;
  if (is_primary()) {
    pb.timeout = endpoint_.loop()->Schedule(kStDataTimeoutNs, [this, id]() { FinalizeNoOp(id); });
  } else {
    pb.timeout =
        endpoint_.loop()->Schedule(kStDataTimeoutNs, [this, id]() { FetchPending(id, 0); });
  }
  pending_.emplace(id, std::move(pb));
}

void ShardServer::FetchPending(const RecordId& id, size_t peer) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;  // resolved meanwhile
  }
  const bool as_primary = is_primary();
  if (as_primary && peer >= replicas_.size()) {
    // No peer had it bound; fall back to the normal primary decision timer.
    it->second.timeout =
        endpoint_.loop()->Schedule(kStDataTimeoutNs, [this, id]() { FinalizeNoOp(id); });
    return;
  }
  // A primary walks its peers; a backup asks its primary.
  const size_t ask = as_primary ? peer : 0;
  const NodeId target = ask < replicas_.size() ? replicas_[ask] : kInvalidNode;
  Encoder e;
  FetchRecordReq{it->second.pos}.Encode(e);
  endpoint_.Call(target, kShardFetchRecord, e,
                 [this, id, peer, as_primary](Status s, Decoder body) {
                   auto it = pending_.find(id);
                   if (it == pending_.end()) {
                     return;  // resolved meanwhile
                   }
                   Record rec;
                   if (s.ok() && DecodeRecord(body, &rec)) {
                     if (as_primary) {
                       stats_.handoff_records_refetched++;
                     }
                     if (rec.no_op) {
                       FinalizeNoOp(id);  // adopt (a primary re-replicates) the decision
                     } else {
                       ResolvePendingWithData(id, std::move(rec.payload), rec.tag, rec.log);
                     }
                     return;
                   }
                   if (is_primary() != as_primary) {
                     return;  // promoted or deposed since; the other ladder owns it now
                   }
                   if (as_primary) {
                     FetchPending(id, peer + 1);
                     return;
                   }
                   // The primary is undecided or unreachable; ask again after another
                   // timeout, for as long as the binding stays pending.
                   it->second.timeout = endpoint_.loop()->Schedule(
                       kStDataTimeoutNs, [this, id]() { FetchPending(id, 0); });
                 },
                 params_.rpc_timeout_ns);
}

void ShardServer::HandleFetchRecord(Decoder d, Responder r) {
  FetchRecordReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad fetch"));
    return;
  }
  auto it = pos_to_local_.find(req.pos);
  if (it == pos_to_local_.end()) {
    r.Send(Status::Unavailable("position not bound yet"));
    return;
  }
  for (const auto& [id, pb] : pending_) {
    if (pb.pos == req.pos) {
      r.Send(Status::Unavailable("still pending"));
      return;
    }
  }
  const Record* rec = log_.Get(it->second);
  LL_CHECK(rec != nullptr, "bound position missing from log");
  Encoder e;
  EncodeRecord(e, *rec);
  r.Ok(e);
}

void ShardServer::ResolvePendingWithData(const RecordId& id, Buf payload, StreamTag tag,
                                         LogId log) {
  auto it = pending_.find(id);
  LL_CHECK(it != pending_.end(), "resolving non-pending binding");
  it->second.timeout.Cancel();
  log_.Overwrite(it->second.local_index, Record{id, std::move(payload), false, tag, log});
  it->second.batch->Complete(Status::Ok());
  pending_.erase(it);
  AdvanceTagIndex();  // a pending binding may have been capping the journal frontier
}

void ShardServer::FinalizeNoOp(const RecordId& id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;
  }
  it->second.timeout.Cancel();
  const LogPos pos = it->second.pos;
  log_.Overwrite(it->second.local_index, Record{id, "", true});
  rejected_.insert(id);
  stats_.noops_created++;
  it->second.batch->Complete(Status::Ok());
  pending_.erase(it);
  AdvanceTagIndex();
  if (is_primary()) {
    // Instruct backups to replace their copy with a no-op (§5.4).
    for (size_t i = 1; i < replicas_.size(); ++i) {
      SendReplicateNoOp(replicas_[i], NoOpMsg{pos, id});
    }
  }
}

void ShardServer::SendReplicateNoOp(NodeId backup, NoOpMsg msg) {
  Encoder e;
  msg.Encode(e);
  endpoint_.Call(backup, kShardReplicateNoOp, e,
                 [this, backup, msg](Status s, Decoder) {
                   if (s.ok()) {
                     return;
                   }
                   // Lost or timed out. The backup may hold the record's data and have
                   // bound it for real; keep retrying (the overwrite is idempotent)
                   // until it confirms the primary's decision, for as long as this
                   // replica remains the primary and the backup is still in the set.
                   endpoint_.loop()->Schedule(kPeerRetryBackoffNs, [this, backup, msg]() {
                     if (!is_primary() ||
                         std::find(replicas_.begin(), replicas_.end(), backup) ==
                             replicas_.end()) {
                       return;
                     }
                     SendReplicateNoOp(backup, msg);
                   });
                 },
                 params_.rpc_timeout_ns);
}

// --- reads, stable-gp, trim -----------------------------------------------------------

void ShardServer::HandleReplicateNoOp(NodeId from, Decoder d, Responder r) {
  // Primary resolved `pos` as a no-op; mirror that decision (§5.4). The data may have
  // arrived here (and even been bound) meanwhile — the primary's decision wins.
  if (RejectPrimaryTraffic(from)) {
    r.Send(Status::StaleView("fenced: not my primary"));
    return;
  }
  NoOpMsg msg;
  if (!msg.Decode(d)) {
    r.Send(Status::InvalidArgument("bad no-op"));
    return;
  }
  rejected_.insert(msg.id);
  pool_.erase(msg.id);
  pool_arrival_.erase(msg.id);
  auto pending_it = pending_.find(msg.id);
  if (pending_it != pending_.end()) {
    pending_it->second.timeout.Cancel();
    log_.Overwrite(pending_it->second.local_index, Record{msg.id, "", true});
    pending_it->second.batch->Complete(Status::Ok());
    pending_.erase(pending_it);
    stats_.noops_created++;
    AdvanceTagIndex();
  } else {
    auto bound = pos_to_local_.find(msg.pos);
    if (bound != pos_to_local_.end()) {
      // A retried no-op can arrive after a recovery flush rebound this position to a
      // different record; the primary's decision only covers its own id.
      const Record* cur = log_.Get(bound->second);
      if (cur != nullptr && cur->id == msg.id) {
        log_.Overwrite(bound->second, Record{msg.id, "", true});
      }
    }
  }
  r.Send(Status::Ok());
}

void ShardServer::HandleRead(Decoder d, Responder r) {
  ShardReadReq req;
  if (!req.Decode(d) || req.ranges.empty()) {
    r.Send(Status::InvalidArgument("bad read"));
    return;
  }
  const LogPos first = req.ranges.front().pos;
  if (req.wait && first >= std::max(stable_gp_, trimmed_below_) && !read_gate_disabled_) {
    // Slow path (§4.4): hold the read until stable-gp passes its first position.
    stats_.slow_reads++;
    waiters_.Park(first, [this, req = std::move(req), r = std::move(r)]() mutable {
      ServeRead(req, std::move(r));
    });
    return;
  }
  stats_.fast_reads++;
  ServeRead(req, std::move(r));
}

void ShardServer::ServeRead(const ShardReadReq& req, Responder r) {
  // A waiting read refuses a trimmed start, whether it was trimmed before the read
  // arrived or while it waited.
  if (req.wait && req.ranges.front().pos < trimmed_below_) {
    r.Send(Status::OutOfRange("position trimmed"));
    return;
  }
  if (!is_primary()) {
    stats_.backup_reads++;
  }
  if (!req.wait) {
    stats_.multirange_reads++;
  }
  // Each range walks the shard-local log from its start, stopping at this replica's
  // stable frontier; a range starting at a trimmed, foreign or unstable position serves
  // nothing. The client re-reads whatever came back short.
  ShardReadResp resp;
  resp.counts.reserve(req.ranges.size());
  uint64_t bytes = 0;
  for (const ReadRange& range : req.ranges) {
    uint32_t served = 0;
    auto it = pos_to_local_.find(range.pos);
    if (it != pos_to_local_.end() && range.pos >= trimmed_below_) {
      uint64_t local = it->second;
      for (; served < range.len; ++served, ++local) {
        if (local >= log_.end_index() || local - local_pos_base_ >= local_pos_.size()) {
          break;
        }
        const LogPos pos = local_pos_[local - local_pos_base_];
        if (pos >= stable_gp_ && !read_gate_disabled_) {
          break;
        }
        const Record* rec = log_.Get(local);
        if (rec == nullptr) {
          break;
        }
        resp.records.push_back(PositionedRecord{pos, *rec});
        bytes += rec->payload.size();
      }
    }
    resp.counts.push_back(served);
    if (served < range.len) {
      stats_.multirange_ranges_clipped++;
    }
  }
  FillReadPiggyback(&resp);
  cpu_.ExecuteFor(bytes, [resp = std::move(resp), r]() mutable {
    Encoder e;
    resp.Encode(e);
    r.Ok(e);
  });
}

void ShardServer::FillReadPiggyback(ShardReadResp* resp) {
  resp->stable_gp = stable_gp_;
  // The leader's durable tail can never trail stable-gp; surface at least that much
  // even before the first extended broadcast arrives.
  resp->durable_tail = std::max(durable_hint_, stable_gp_);
  const SimTime now = endpoint_.loop()->Now();
  resp->queue_ns = cpu_.busy_until() > now ? cpu_.busy_until() - now : 0;
}

void ShardServer::HandleSetStableGp(Decoder d, Responder r) {
  StableGpMsg msg;
  if (!msg.Decode(d)) {
    r.Send(Status::InvalidArgument("bad stable-gp"));
    return;
  }
  if (FencedOff(msg.view)) {
    r.Send(Status::StaleView("fenced: stale stable-gp"));
    return;
  }
  view_ = std::max(view_, msg.view);
  stable_gp_ = std::max(stable_gp_, msg.stable_gp);
  durable_hint_ = std::max(durable_hint_, msg.durable_tail);
  if (stable_gp_observer_) {
    stable_gp_observer_(view_, stable_gp_);
  }
  AdvanceTagIndex();
  waiters_.Wake(stable_gp_);
  r.Send(Status::Ok());
}

void ShardServer::HandlePosMap(Decoder d, Responder r) {
  ShardPosMapReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad posmap"));
    return;
  }
  const LogPos first = std::max(req.from, meta_base_);
  if (req.wait && first >= std::min<LogPos>(meta_base_ + meta_log_.size(), stable_gp_)) {
    // Nothing stable is mapped at or after `from`: park like a waiting read. The wake
    // answers it, even if a position stable there is not mapped here yet.
    waiters_.Park(first,
                  [this, req, r = std::move(r)]() mutable { ServePosMap(req, std::move(r)); });
    return;
  }
  ServePosMap(req, std::move(r));
}

void ShardServer::ServePosMap(const ShardPosMapReq& req, Responder r) {
  ShardPosMapResp resp;
  resp.from = std::max(req.from, meta_base_);
  const LogPos end =
      std::min<LogPos>(meta_base_ + meta_log_.size(), std::min<LogPos>(req.from + req.len,
                                                                       stable_gp_));
  for (LogPos p = resp.from; p < end; ++p) {
    resp.shard_ids.push_back(meta_log_[p - meta_base_]);
  }
  const uint64_t bytes = resp.shard_ids.size() * 8;  // before the lambda moves `resp` out
  cpu_.ExecuteFor(bytes, [resp = std::move(resp), r]() mutable {
    Encoder e;
    resp.Encode(e);
    r.Ok(e);
  });
}

// --- tag index (index tier) -----------------------------------------------------------

void ShardServer::AdvanceTagIndex() {
  // Journal every owned position in [index_pos_frontier_, target): stable, and past any
  // still-pending Erwin-st binding, so the tag recorded here can never change. No-ops
  // and untagged records advance the frontier without a journal entry.
  LogPos target = stable_gp_;
  for (const auto& [id, pb] : pending_) {
    target = std::min(target, pb.pos);
  }
  if (target <= index_pos_frontier_) {
    return;
  }
  auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), index_pos_frontier_);
  for (; it != local_pos_.end() && *it < target; ++it) {
    const uint64_t local = local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin());
    const Record* rec = log_.Get(local);
    if (rec != nullptr && !rec->no_op) {
      if (rec->tag != kNoTag) {
        index_journal_.push_back(TagIndexEntry{rec->log, rec->tag, *it});
      }
      // Named-log records are also journaled under (log, kNoTag): the per-phylog rank
      // list whose i-th entry is the log's position-i record.
      if (rec->log != kDefaultLog) {
        index_journal_.push_back(TagIndexEntry{rec->log, kNoTag, *it});
      }
    }
  }
  index_pos_frontier_ = target;
}

void ShardServer::HandleIndexDelta(Decoder d, Responder r) {
  ShardIndexDeltaReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad index delta"));
    return;
  }
  AdvanceTagIndex();
  ShardIndexDeltaResp resp;
  resp.from_seq = std::min<uint64_t>(req.from_seq, index_journal_.size());
  const uint64_t end =
      std::min<uint64_t>(index_journal_.size(), resp.from_seq + req.max_entries);
  for (uint64_t i = resp.from_seq; i < end; ++i) {
    resp.entries.push_back(index_journal_[i]);
  }
  resp.next_seq = end;
  resp.stable_gp = stable_gp_;
  // Coverage only extends over the prefix actually returned: if the pull was capped by
  // max_entries, the first unreturned entry bounds what the puller may claim covered.
  resp.exported_below = end < index_journal_.size() ? index_journal_[end].pos
                                                    : index_pos_frontier_;
  // Before the lambda moves `resp` out.
  const uint64_t bytes = resp.entries.size() * sizeof(TagIndexEntry);
  cpu_.ExecuteFor(bytes, [resp = std::move(resp), r]() mutable {
    Encoder e;
    resp.Encode(e);
    r.Ok(e);
  });
}

void ShardServer::HandleTrim(Decoder d, Responder r) {
  TrimMsg msg;
  if (!msg.Decode(d)) {
    r.Send(Status::InvalidArgument("bad trim"));
    return;
  }
  trimmed_below_ = std::max(trimmed_below_, msg.up_to);
  while (!local_pos_.empty() && local_pos_.front() < trimmed_below_) {
    pos_to_local_.erase(local_pos_.front());
    local_pos_.pop_front();
    ++local_pos_base_;
  }
  // Segment-granular GC; entries below local_pos_base_ in a partial front segment are
  // unreachable (their pos_to_local_ entries are gone) and vanish with the segment.
  log_.TrimTo(local_pos_base_);
  r.Send(Status::Ok());
}

// --- epoch fencing (§4.5 seal) ---------------------------------------------------------

void ShardServer::HandleSeal(Decoder d, Responder r) {
  ShardSealReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad shard seal"));
    return;
  }
  // Raise the fence to the new epoch: from now on any data-path message stamped with an
  // older view gets STALE_VIEW, so a deposed leader can neither bind positions nor move
  // stable-gp here. The recovery flush (stamped new_view) passes the fence.
  view_ = std::max(view_, req.new_view);
  // Parked windows were stamped by the now-deposed orderer; reject them mid-pipeline so
  // their cursors self-seal instead of waiting out a timeout against a dead leader.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (it->second.req->view < view_) {
      SendWatermarkAck(std::move(it->second.responder),
                       Status::StaleView("fenced: parked window from sealed view"));
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  r.Send(Status::Ok());
}

// --- shard-replica replacement (§5.4) --------------------------------------------------

void ShardServer::HandleCopyState(Decoder d, Responder r) {
  ShardCopyStateReq req;
  if (!req.Decode(d) || req.source == kInvalidNode) {
    r.Send(Status::InvalidArgument("bad copy state"));
    return;
  }
  CopyStateFrom(req.source, [r](Status s) mutable { r.Send(std::move(s)); });
}

void ShardServer::HandleFetchState(Decoder d, Responder r) {
  // Serialize everything a replacement replica needs: the ordered log with positions,
  // the unordered pool, the metadata log, no-op decisions, and the counters.
  Encoder e;
  e.PutU64(view_);
  e.PutU64(stable_gp_);
  e.PutU64(trimmed_below_);
  e.PutU64(meta_base_);
  // Ordering frontiers: a replacement that starts at zero would park every window the
  // cursor sends it (range_lo far ahead of an empty stream). completed_spans_ is not
  // shipped — the orderer re-sends anything above order_durable_ after a retry anyway.
  e.PutU64(order_applied_);
  e.PutU64(order_durable_);
  // Ordered records in local order.
  e.PutU32(static_cast<uint32_t>(local_pos_.size()));
  for (size_t i = 0; i < local_pos_.size(); ++i) {
    const Record* rec = log_.Get(local_pos_base_ + i);
    LL_CHECK(rec != nullptr, "state copy: missing log entry");
    PositionedRecord pr{local_pos_[i], *rec};
    pr.Encode(e);
  }
  // Unordered pool (payload handle + stream tag + phylog).
  e.PutU32(static_cast<uint32_t>(pool_.size()));
  for (const auto& [id, entry] : pool_) {
    EncodeRecordId(e, id);
    e.PutAttached(entry.payload);
    e.PutU64(entry.tag);
    e.PutU64(entry.log);
  }
  // No-op decisions (so late data writes stay rejected on the new replica).
  e.PutU32(static_cast<uint32_t>(rejected_.size()));
  for (const RecordId& id : rejected_) {
    EncodeRecordId(e, id);
  }
  // Metadata log.
  std::vector<uint64_t> meta(meta_log_.begin(), meta_log_.end());
  e.PutU64Vector(meta);
  // Charge for the full snapshot including attachment bytes, matching the old
  // inline encoding size.
  const uint64_t bytes = e.size() + e.atts_size();
  cpu_.ExecuteFor(bytes, [e = std::move(e), r]() mutable { r.Ok(e); });
}

void ShardServer::CopyStateFrom(NodeId live_replica, std::function<void(Status)> done) {
  // Reject replication traffic until the snapshot is installed; the primary's batch
  // acks fail and the orderer retries (idempotently) once we are caught up.
  loading_ = true;
  endpoint_.Call(
      live_replica, kShardFetchState, "",
      [this, done = std::move(done)](Status s, Decoder d) {
        if (!s.ok()) {
          done(std::move(s));
          return;
        }
        uint32_t n_ordered = 0;
        uint64_t view = 0, stable = 0, trimmed = 0, meta_base = 0;
        uint64_t order_applied = 0, order_durable = 0;
        if (!d.GetU64(&view) || !d.GetU64(&stable) || !d.GetU64(&trimmed) ||
            !d.GetU64(&meta_base) || !d.GetU64(&order_applied) ||
            !d.GetU64(&order_durable) || !d.GetU32(&n_ordered)) {
          done(Status::Internal("bad state snapshot"));
          return;
        }
        // Stable-gp broadcasts keep arriving while the snapshot is in flight, so the
        // snapshot's values may already be stale; both are monotone, take the max.
        view_ = std::max(view_, view);
        stable_gp_ = std::max(stable_gp_, stable);
        trimmed_below_ = trimmed;
        meta_base_ = meta_base;
        order_applied_ = std::max(order_applied_, order_applied);
        order_durable_ = std::max(order_durable_, order_durable);
        completed_spans_.clear();
        if (stable_gp_observer_) {
          stable_gp_observer_(view_, stable_gp_);
        }
        uint64_t bytes = 0;
        for (uint32_t i = 0; i < n_ordered; ++i) {
          PositionedRecord pr;
          if (!pr.Decode(d)) {
            done(Status::Internal("bad state snapshot record"));
            return;
          }
          bytes += pr.record.payload.size();
          StoreOrdered(pr.pos, std::move(pr.record), false);
        }
        uint32_t n_pool = 0;
        if (!d.GetU32(&n_pool)) {
          done(Status::Internal("bad state snapshot pool"));
          return;
        }
        for (uint32_t i = 0; i < n_pool; ++i) {
          RecordId id;
          Buf payload;
          StreamTag tag = kNoTag;
          LogId log = kDefaultLog;
          if (!DecodeRecordId(d, &id) || !d.GetAttached(&payload) || !d.GetU64(&tag) ||
              !d.GetU64(&log)) {
            done(Status::Internal("bad state snapshot pool entry"));
            return;
          }
          bytes += payload.size();
          pool_.emplace(id, PoolEntry{std::move(payload), tag, log});
          pool_arrival_[id] = endpoint_.loop()->Now();
        }
        uint32_t n_rejected = 0;
        if (!d.GetU32(&n_rejected)) {
          done(Status::Internal("bad state snapshot rejects"));
          return;
        }
        for (uint32_t i = 0; i < n_rejected; ++i) {
          RecordId id;
          if (!DecodeRecordId(d, &id)) {
            done(Status::Internal("bad state snapshot reject entry"));
            return;
          }
          rejected_.insert(id);
        }
        std::vector<uint64_t> meta;
        if (!d.GetU64Vector(&meta)) {
          done(Status::Internal("bad state snapshot meta log"));
          return;
        }
        meta_log_.assign(meta.begin(), meta.end());
        loading_ = false;
        AdvanceTagIndex();  // rebuild the tag journal over the copied stable prefix
        // Persist the copied state; completion waits for the disk like any bulk load.
        disk_.Write(bytes, [done = std::move(done)]() { done(Status::Ok()); });
      },
      params_.rpc_timeout_ns);
}

void ShardServer::ScrubOrphans() {
  // Orphaned data: written by a client that crashed before writing metadata; no binding
  // will ever reference it. GC after a generous age (§5.4 "periodic scrubbing"). The age
  // must dominate any ordering stall (chained order-push retries under packet loss):
  // evicting data whose append was already acknowledged but whose metadata has not yet
  // been pushed by the orderer turns the record into a no-op at bind time — losing an
  // acked append.
  const SimTime now = endpoint_.loop()->Now();
  for (auto it = pool_arrival_.begin(); it != pool_arrival_.end();) {
    if (now - it->second > kStOrphanScrubAgeNs) {
      pool_.erase(it->first);
      it = pool_arrival_.erase(it);
    } else {
      ++it;
    }
  }
  endpoint_.loop()->Schedule(kScrubIntervalNs, [this]() { ScrubOrphans(); });
}

// --- primary promotion (controller-driven failover) ------------------------------------

bool ShardServer::RejectPrimaryTraffic(NodeId from) const {
  if (fencing_disabled_) {
    return false;  // split-brain fixture: the oracles must catch what this lets through
  }
  if (sealed_for_promotion_) {
    return true;
  }
  return !replicas_.empty() && from != replicas_[0];
}

void ShardServer::HandlePromoSeal(Decoder d, Responder r) {
  ShardPromoSealReq req;
  if (!req.Decode(d)) {
    r.Send(Status::InvalidArgument("bad promo seal"));
    return;
  }
  if (req.promo_epoch > promo_epoch_) {
    promo_epoch_ = req.promo_epoch;
    promo_sealed_at_ = endpoint_.loop()->Now();
    // The current primary is never a seal target; guard anyway so a retried seal that
    // lands after our own promotion cannot fence us against ourselves.
    sealed_for_promotion_ = !is_primary();
  }
  ShardCompletenessResp resp;
  resp.promo_epoch = promo_epoch_;
  resp.order_applied = order_applied_;
  resp.order_durable = order_durable_;
  resp.meta_size = meta_log_.size();
  resp.pending = pending_.size();
  Encoder e;
  resp.Encode(e);
  r.Ok(e);
}

void ShardServer::HandlePromote(Decoder d, Responder r) {
  ShardPromoteReq req;
  if (!req.Decode(d) || req.order.empty() ||
      req.peer_applied.size() != req.order.size()) {
    r.Send(Status::InvalidArgument("bad promote"));
    return;
  }
  if (req.promo_epoch < promo_epoch_) {
    r.Send(Status::StaleView("stale promotion epoch"));
    return;
  }
  promo_epoch_ = req.promo_epoch;
  std::vector<NodeId> order;
  order.reserve(req.order.size());
  for (uint64_t n : req.order) {
    order.push_back(static_cast<NodeId>(n));
  }
  // Compute the flip before installing the order so a retried promote (same epoch,
  // order already installed) is idempotent.
  const bool flip = order[0] == node_id() && !is_primary();
  replicas_ = std::move(order);
  sealed_for_promotion_ = false;
  if (flip) {
    PromoteToPrimary(req);
  }
  // The ack carries our contiguous applied frontier: the controller resets the
  // orderer's cursor here, so the leader re-pushes everything we never saw.
  Encoder e;
  ShardOrderAckResp{order_applied_}.Encode(e);
  r.Ok(e);
}

void ShardServer::PromoteToPrimary(const ShardPromoteReq& req) {
  stats_.promotions++;
  if (promo_sealed_at_ != 0) {
    stats_.seal_to_open_ns = endpoint_.loop()->Now() - promo_sealed_at_;
  }
  // Catch lagging peers up to our applied frontier. The orderer resumes from a single
  // reset point (our frontier); without this a peer whose frontier trails ours would
  // park every re-pushed window behind a gap that nothing ever fills.
  for (size_t i = 1; i < req.order.size() && i < req.peer_applied.size(); ++i) {
    if (req.peer_applied[i] < order_applied_) {
      CatchUpPeer(static_cast<NodeId>(req.order[i]), req.peer_applied[i], 0);
    }
  }
  // Take over no-op timer ownership: our pending bindings still run backup fetch
  // timers aimed at the dead primary. Cancel each and move it to the promoted ladder:
  // try peer back-fill first (a peer may hold the data, or the old primary's no-op
  // decision may have reached it), and only then fall back to the no-op timeout.
  std::vector<RecordId> pending_ids;
  pending_ids.reserve(pending_.size());
  for (const auto& [id, pb] : pending_) {
    pending_ids.push_back(id);
  }
  for (const RecordId& id : pending_ids) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      continue;
    }
    it->second.timeout.Cancel();
    FetchPending(id, 1);
  }
}

void ShardServer::CatchUpPeer(NodeId peer, LogPos from, uint32_t attempt) {
  if (!is_primary() ||
      std::find(replicas_.begin(), replicas_.end(), peer) == replicas_.end()) {
    return;  // deposed again, or the membership changed while retrying
  }
  from = std::max(from, trimmed_below_);  // a peer never needs the trimmed prefix
  if (from >= order_applied_) {
    return;
  }
  ShardWindowReq w;
  w.view = view_;
  w.range_lo = from;
  w.range_hi = order_applied_;
  if (mode_ == ShardMode::kStModified) {
    // Owned positions need their record ids (the peer binds them); still-pending ones
    // are keyed by id on our side, so invert to pos -> id for the unresolved tail.
    std::unordered_map<LogPos, RecordId> pending_by_pos;
    for (const auto& [id, pb] : pending_) {
      pending_by_pos[pb.pos] = id;
    }
    for (LogPos p = std::max(from, meta_base_); p < order_applied_; ++p) {
      const uint64_t idx = p - meta_base_;
      if (idx >= meta_log_.size()) {
        break;
      }
      MetaEntry entry;
      entry.pos = p;
      entry.shard = static_cast<ShardId>(meta_log_[idx]);
      if (entry.shard == shard_id_) {
        const Record* rec = RecordAt(p);
        if (rec != nullptr) {
          entry.id = rec->id;
        } else {
          auto pit = pending_by_pos.find(p);
          if (pit != pending_by_pos.end()) {
            entry.id = pit->second;
          }
        }
      }
      w.entries.push_back(entry);
    }
  } else {
    auto it = std::lower_bound(local_pos_.begin(), local_pos_.end(), from);
    for (; it != local_pos_.end() && *it < order_applied_; ++it) {
      const uint64_t local =
          local_pos_base_ + static_cast<uint64_t>(it - local_pos_.begin());
      const Record* rec = log_.Get(local);
      if (rec != nullptr) {
        w.records.push_back(PositionedRecord{*it, *rec});
      }
    }
  }
  if (attempt == 0) {
    stats_.handoff_records_refetched += w.records.size() + w.entries.size();
  }
  endpoint_.CallMsg(peer, kShardReplicate, w,
                    [this, peer, from, attempt](Status s, Decoder) {
                      if (s.ok() || attempt >= 4) {
                        return;  // a peer that stays unreachable gets its own replacement
                      }
                      endpoint_.loop()->Schedule(kPeerRetryBackoffNs, [this, peer, from, attempt]() {
                        CatchUpPeer(peer, from, attempt + 1);
                      });
                    },
                    params_.rpc_timeout_ns);
}

// --- stats surface --------------------------------------------------------------------

ShardStatsSnapshot ShardServer::StatsSnapshot() const {
  ShardStatsSnapshot snap;
  snap.counters = stats_;
  snap.shard_id = shard_id_;
  snap.stable_gp = stable_gp_;
  snap.order_applied = order_applied_;
  snap.order_durable = order_durable_;
  snap.parked_windows = parked_.size();
  snap.buf = GlobalBufStats();
  return snap;
}

StatsFields ShardStatsSnapshot::Fields() const {
  return {
      {"shard_id", static_cast<double>(shard_id)},
      {"appends", static_cast<double>(counters.appends)},
      {"data_puts", static_cast<double>(counters.data_puts)},
      {"fast_reads", static_cast<double>(counters.fast_reads)},
      {"slow_reads", static_cast<double>(counters.slow_reads)},
      {"backup_reads", static_cast<double>(counters.backup_reads)},
      {"multirange_reads", static_cast<double>(counters.multirange_reads)},
      {"multirange_ranges_clipped",
       static_cast<double>(counters.multirange_ranges_clipped)},
      {"noops_created", static_cast<double>(counters.noops_created)},
      {"rejected_puts", static_cast<double>(counters.rejected_puts)},
      {"windows_applied", static_cast<double>(counters.windows_applied)},
      {"windows_parked", static_cast<double>(counters.windows_parked)},
      {"windows_retransmitted", static_cast<double>(counters.windows_retransmitted)},
      {"promotions", static_cast<double>(counters.promotions)},
      {"handoff_records_refetched", static_cast<double>(counters.handoff_records_refetched)},
      {"seal_to_open_ns", static_cast<double>(counters.seal_to_open_ns)},
      {"stable_gp", static_cast<double>(stable_gp)},
      {"order_applied", static_cast<double>(order_applied)},
      {"order_durable", static_cast<double>(order_durable)},
      {"parked_windows", static_cast<double>(parked_windows)},
      {"payload_bytes_copied", static_cast<double>(buf.payload_bytes_copied)},
      {"payload_bytes_aliased", static_cast<double>(buf.payload_bytes_aliased)},
      {"buf_allocations", static_cast<double>(buf.allocations)},
  };
}

}  // namespace lazylog
