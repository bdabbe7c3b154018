#include "src/lazylog/erwin_st_client.h"

#include <algorithm>

namespace lazylog {

// --- append (§5.1): data to the shard replicas + metadata to the sequencing replicas,
// all in parallel, 1 RTT -------------------------------------------------------------------

void ErwinStClient::SendAppend(std::shared_ptr<PendingAppend> p) {
  if (p->attempts++ == 0) {
    p->shard = static_cast<ShardId>(rr_cursor_++ % view_.num_shards());
  }
  const auto& shard_replicas = view_.shards[p->shard];
  // Once every data replica has acked the payload, resends skip the data writes: an
  // overload refusal is a metadata-tier event, and re-sending the (already durable)
  // payload would multiply shard disk load by the retry count exactly when the system
  // is saturated. The shard dup-filters stale re-puts anyway, so this is purely a
  // load optimization, not a correctness hinge.
  const size_t n_data = p->data_durable ? 0 : shard_replicas.size();
  const size_t n_meta = view_.seq_config.size();
  // The leader's verdict is slot n_data (seq_config[0]).
  auto gather =
      Gather::Create(n_data + n_meta, [this, p, n_data](const std::vector<Status>& ss) {
        if (n_data > 0 && std::all_of(ss.begin(), ss.begin() + n_data,
                                      [](const Status& s) { return s.ok(); })) {
          p->data_durable = true;
        }
        AppendVerdict(p, ss, /*leader=*/n_data);
      });
  // Data writes to every replica of the chosen shard (no coordination, §5.1). The
  // request is encoded once; replicas share the frame and the payload attachment.
  if (n_data > 0) {
    ShardPutDataReq data{p->id, p->payload, p->tag, p->log};
    Encoder denc;
    data.Encode(denc);
    const std::vector<Buf> datts = denc.TakeAtts();
    const Buf dbody = denc.TakeBuf();
    for (size_t i = 0; i < n_data; ++i) {
      endpoint_.Call(shard_replicas[i], kShardPutData, dbody, gather->Slot(i),
                     params_.client_append_timeout_ns, datts);
    }
  }
  // Metadata to every sequencing replica, same RTT.
  SeqAppendReq meta;
  meta.view = view_.view;
  meta.id = p->id;
  meta.target_shard = p->shard;
  meta.is_meta = true;
  // The record's tag rides the data write; the log id must also reach the sequencing
  // leader (quota gate + per-log cursors). Flag-gated: default-log frames unchanged.
  meta.log = p->log;
  Encoder menc;
  meta.Encode(menc);
  const Buf mbody = menc.TakeBuf();
  for (size_t i = 0; i < n_meta; ++i) {
    endpoint_.Call(view_.seq_config[i], kSeqAppendMeta, mbody, gather->Slot(n_data + i),
                   params_.client_append_timeout_ns);
  }
}

// --- read (§5.3): resolve positions to shards via the cached map, then read ---------------

void ErwinStClient::FetchRange(LogPos from, uint64_t len, ReadCallback cb) {
  if (cache_enabled_ && posmap_.size() >= from + len) {
    ReadMapped(from, len, std::move(cb));
    return;
  }
  FetchPosMap(from, len, std::move(cb));
}

void ErwinStClient::FetchPosMap(LogPos from, uint64_t len, ReadCallback cb) {
  // Bulk fetch with read-ahead; amortizes the mapping roundtrip over many reads (§5.3).
  const uint64_t readahead = std::max<uint64_t>(1, params_.client_read.posmap_readahead);
  ShardPosMapReq req;
  req.from = posmap_.size();
  // Park only for positions the caller needs: with the cache off, a fetch of a range
  // already mapped is the ablation's extra round trip and must not wait for new ones.
  req.wait = from + len > req.from;
  req.len = static_cast<uint32_t>(
      std::max<uint64_t>(req.wait ? from + len - req.from : 0, readahead));
  posmap_fetches_++;
  // Shard 0 predates any runtime-added shard, so its metadata log covers all positions.
  // Every replica serves the map gated on its own stable-gp, so successive fetches
  // rotate across shard 0's replicas instead of pinning one.
  const auto& replicas = view_.shards[0];
  const NodeId target = replicas[(client_id_ + posmap_fetches_) % replicas.size()];
  // A cold client's first fetch maps the whole log up to `from + len` in one reply (8 B
  // per position), so the deadline grows with the span it asks for. A parked fetch keeps
  // it too, not rpc_timeout_ns: one parked at a crashed replica would hold the reader
  // for the whole RPC timeout, while a healthy park that outlives it is re-sent with a
  // doubled deadline.
  const uint64_t deadline =
      ReadDeadlineNs(params_, sizeof(uint64_t) * req.len, posmap_misses_);
  endpoint_.CallMsg(
      target, kShardPosMap, req,
      [this, from, len, cb = std::move(cb)](Status s, Decoder d) mutable {
        posmap_misses_ = s.ok() ? 0 : posmap_misses_ + 1;
        // Read once mapped; until then fetch again, which parks while nothing is stable.
        auto next = [this, from, len, cb = std::move(cb)]() mutable {
          if (posmap_.size() >= from + len) {
            ReadMapped(from, len, std::move(cb));
          } else {
            FetchPosMap(from, len, std::move(cb));
          }
        };
        if (!s.ok()) {
          // The mapping server may have been replaced out from under us; refresh the
          // shard membership before the next fetch.
          RefreshShardConfig(std::move(next));
          return;
        }
        ShardPosMapResp resp;
        if (resp.Decode(d) && resp.from == posmap_.size()) {
          for (uint64_t sid : resp.shard_ids) {
            posmap_.push_back(static_cast<uint32_t>(sid));
          }
          // Every mapped position was stable at the serving replica, so the map length
          // is a conservative tail sample.
          tails_.Note(endpoint_.loop()->Now(), posmap_.size(), posmap_.size());
        }
        next();
      },
      deadline);
}

void ErwinStClient::ReadMapped(LogPos from, uint64_t len, ReadCallback cb) {
  // Group the positions into per-shard runs in ONE pass. Each shard's positions within
  // the window form one contiguous run of its local log, so per shard we keep the run's
  // chunk-granular split points; a shard-indexed slot table makes the per-position step
  // O(1). The map server gates on stable-gp, so every run is known-stable.
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  std::vector<ShardRun> runs;
  std::vector<int32_t> slot_of_shard;  // shard id -> index into runs; -1 = unseen
  for (LogPos p = from; p < from + len; ++p) {
    const uint32_t s = posmap_[p];
    if (s >= slot_of_shard.size()) {
      slot_of_shard.resize(s + 1, -1);
    }
    if (slot_of_shard[s] < 0) {
      slot_of_shard[s] = static_cast<int32_t>(runs.size());
      runs.push_back(ShardRun{static_cast<ShardId>(s), {ReadRange{p, 1}}});
      continue;
    }
    ShardRun& run = runs[slot_of_shard[s]];
    if (run.ranges.back().len == chunk) {
      run.ranges.push_back(ReadRange{p, 1});
    } else {
      run.ranges.back().len++;
    }
  }
  FetchRuns(std::move(runs), std::move(cb));
}

// --- test hooks (§5.4) -----------------------------------------------------------------------

void ErwinStClient::AppendMetadataOnly(ShardId shard, AppendCallback cb) {
  // Simulates a client that crashed after the metadata write but before the data write:
  // the shard primary must resolve the position as a no-op after its timeout.
  const RecordId id{client_id_, next_request_id_++};
  SeqAppendReq meta;
  meta.view = view_.view;
  meta.id = id;
  meta.target_shard = shard;
  meta.is_meta = true;
  Encoder enc;
  meta.Encode(enc);
  const Buf body = enc.TakeBuf();
  const size_t n = view_.seq_config.size();
  auto gather = Gather::Create(n, [cb](const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s);
        return;
      }
    }
    cb(Status::Ok());
  });
  for (size_t i = 0; i < n; ++i) {
    endpoint_.Call(view_.seq_config[i], kSeqAppendMeta, body, gather->Slot(i),
                   params_.client_append_timeout_ns);
  }
}

void ErwinStClient::AppendDataOnly(ShardId shard, Buf payload, AppendCallback cb) {
  // Simulates a crash after the data write but before the metadata write: the data is
  // orphaned on the shard and must be garbage-collected by scrubbing.
  const RecordId id{client_id_, next_request_id_++};
  ShardPutDataReq data{id, std::move(payload)};
  Encoder enc;
  data.Encode(enc);
  const std::vector<Buf> atts = enc.TakeAtts();
  const Buf body = enc.TakeBuf();
  const auto& replicas = view_.shards[shard];
  auto gather = Gather::Create(replicas.size(), [cb](const std::vector<Status>& ss) {
    for (const Status& s : ss) {
      if (!s.ok()) {
        cb(s);
        return;
      }
    }
    cb(Status::Ok());
  });
  for (size_t i = 0; i < replicas.size(); ++i) {
    endpoint_.Call(replicas[i], kShardPutData, body, gather->Slot(i),
                   params_.client_append_timeout_ns, atts);
  }
}

}  // namespace lazylog
