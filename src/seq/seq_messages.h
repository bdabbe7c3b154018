// Wire messages for the sequencing layer: client appends, leader->follower GC, and the
// control-plane reconfiguration protocol (seal / flush / start-view, §4.5).
#ifndef SRC_SEQ_SEQ_MESSAGES_H_
#define SRC_SEQ_SEQ_MESSAGES_H_

#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/types.h"

namespace lazylog {

// Wire-encodable RecordId wrapper (for PutVector/GetVector).
struct WireRecordId {
  static constexpr size_t kMinEncodedSize = 16;  // client_id + request_id
  RecordId id;
  void Encode(Encoder& e) const { EncodeRecordId(e, id); }
  bool Decode(Decoder& d) { return DecodeRecordId(d, &id); }
};

// Client -> every sequencing replica, in parallel, no coordination (§4.1 / §5.1).
// Erwin-m carries the record payload (is_meta=false); Erwin-st carries only the metadata
// identifier <record-id, shard-id> (is_meta=true, empty payload).
struct SeqAppendReq {
  ViewId view = 0;
  RecordId id;
  Buf payload;  // rides as an attachment; the replica's ring buffer aliases it
  ShardId target_shard = 0;
  bool is_meta = false;
  StreamTag tag = kNoTag;  // logical stream this record belongs to (index tier)
  LogId log = kDefaultLog;  // phylog this record belongs to (virtual-log layer)

  // The old trailing PutBool(is_meta) byte is reinterpreted as a flags byte: bit 0 is
  // is_meta (so untagged legacy frames decode unchanged), and the record codec's
  // kRecordFlagHasTag / kRecordFlagHasLog say a u64 tag or phylog id follows.
  static constexpr uint8_t kFlagIsMeta = 0x1;

  void Encode(Encoder& e) const {
    e.PutU64(view);
    EncodeRecordId(e, id);
    e.PutAttached(payload);
    e.PutU32(target_shard);
    e.PutU8((is_meta ? kFlagIsMeta : 0) | TagLogFlags(tag, log));
    EncodeTagLog(e, tag, log);
  }
  bool Decode(Decoder& d) {
    uint8_t flags = 0;
    if (!d.GetU64(&view) || !DecodeRecordId(d, &id) || !d.GetAttached(&payload) ||
        !d.GetU32(&target_shard) || !d.GetU8(&flags) ||
        (flags & ~(kFlagIsMeta | kRecordFlagHasTag | kRecordFlagHasLog)) != 0) {
      return false;
    }
    is_meta = (flags & kFlagIsMeta) != 0;
    return DecodeTagLog(d, flags, &tag, &log);
  }
};

// Leader -> follower: garbage-collect the listed (now ordered) entries and advance
// last-ordered-gp (§4.3). Entry identity, not position, because followers may hold
// concurrent entries in a different order.
struct SeqGcReq {
  ViewId view = 0;
  LogPos new_ordered_gp = 0;
  std::vector<WireRecordId> ids;

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutU64(new_ordered_gp);
    e.PutVector(ids);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetU64(&new_ordered_gp) && d.GetVector(&ids);
  }
};

// Controller -> replica: seal the view; the replica rejects all later appends in it.
struct SeqSealReq {
  ViewId view = 0;

  void Encode(Encoder& e) const { e.PutU64(view); }
  bool Decode(Decoder& d) { return d.GetU64(&view); }
};

struct SeqSealResp {
  LogPos ordered_gp = 0;
  uint64_t unordered = 0;  // entries still in the local log

  void Encode(Encoder& e) const {
    e.PutU64(ordered_gp);
    e.PutU64(unordered);
  }
  bool Decode(Decoder& d) { return d.GetU64(&ordered_gp) && d.GetU64(&unordered); }
};

// Controller -> recovery replica: flush your unordered log to the shards, assigning
// positions from your last-ordered-gp, stamped with the new view (§4.5).
struct SeqFlushReq {
  ViewId new_view = 0;

  void Encode(Encoder& e) const { e.PutU64(new_view); }
  bool Decode(Decoder& d) { return d.GetU64(&new_view); }
};

struct SeqFlushResp {
  LogPos new_ordered_gp = 0;
  std::vector<WireRecordId> flushed_ids;

  void Encode(Encoder& e) const {
    e.PutU64(new_ordered_gp);
    e.PutVector(flushed_ids);
  }
  bool Decode(Decoder& d) { return d.GetU64(&new_ordered_gp) && d.GetVector(&flushed_ids); }
};

// Controller -> replicas of the new configuration: adopt the new view. Flushed ids seed
// the duplicate filter so client retries of already-ordered records are rejected.
struct SeqStartViewReq {
  ViewId view = 0;
  std::vector<uint64_t> config;  // replica node ids; config[0] is the leader
  LogPos ordered_gp = 0;
  LogPos stable_gp = 0;
  std::vector<WireRecordId> flushed_ids;

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutU64Vector(config);
    e.PutU64(ordered_gp);
    e.PutU64(stable_gp);
    e.PutVector(flushed_ids);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetU64Vector(&config) && d.GetU64(&ordered_gp) &&
           d.GetU64(&stable_gp) && d.GetVector(&flushed_ids);
  }
};

struct SeqCheckTailResp {
  LogPos durable = 0;  // number of durable records (ordered + not-yet-ordered)
  LogPos stable = 0;   // number of stable (readable) records
  ViewId view = 0;     // view that served the tail (durable may shrink across views)

  void Encode(Encoder& e) const {
    e.PutU64(durable);
    e.PutU64(stable);
    e.PutU64(view);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&durable) && d.GetU64(&stable) && d.GetU64(&view);
  }
};

// Controller -> sequencing replica: a shard replica was replaced; rewire orderer pushes
// and stable-gp broadcasts from the failed server to its replacement.
struct SeqUpdateShardsReq {
  NodeId old_node = kInvalidNode;
  NodeId new_node = kInvalidNode;

  void Encode(Encoder& e) const {
    e.PutU32(old_node);
    e.PutU32(new_node);
  }
  bool Decode(Decoder& d) { return d.GetU32(&old_node) && d.GetU32(&new_node); }
};

// Controller -> sequencing replica: a shard backup was promoted to primary. Beyond the
// node swap of kSeqUpdateShards, the leader resets that shard's ordering cursor to the
// new primary's contiguous applied frontier (`reset_upto`) and re-pushes metadata from
// there — the reconciliation handoff for acked-but-unordered Erwin-st ids the promoted
// replica never saw. Safe because a window is acked to the orderer only after every
// backup replicated it, so ordered_gp <= any survivor's frontier and everything above
// `reset_upto` is still resendable from the leader's ring.
struct SeqShardFailoverReq {
  uint32_t shard = 0;
  NodeId old_primary = kInvalidNode;
  NodeId new_primary = kInvalidNode;
  LogPos reset_upto = 0;

  void Encode(Encoder& e) const {
    e.PutU32(shard);
    e.PutU32(old_primary);
    e.PutU32(new_primary);
    e.PutU64(reset_upto);
  }
  bool Decode(Decoder& d) {
    return d.GetU32(&shard) && d.GetU32(&old_primary) && d.GetU32(&new_primary) &&
           d.GetU64(&reset_upto);
  }
};

// One named virtual log ("phylog") in the cluster's log registry. The registry is
// owned by the controller, persisted to ZooKeeper under "/logs/config" (versioned by
// an epoch like "/shards/config"), and pushed to the sequencing replicas so the
// leader can enforce per-tenant quotas. Deleted logs stay as tombstones: the id is
// never reused and the leader refuses new appends to it.
struct LogRegistryEntry {
  static constexpr size_t kMinEncodedSize = 8 + 4 + 8 + 1;  // id + name marker + quota + deleted
  LogId id = kDefaultLog;
  std::string name;
  uint64_t quota_per_sec = 0;  // admitted appends/s for this phylog; 0 = unlimited
  bool deleted = false;

  void Encode(Encoder& e) const {
    e.PutU64(id);
    e.PutBytes(name);
    e.PutU64(quota_per_sec);
    e.PutBool(deleted);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&id) && d.GetBytes(&name) && d.GetU64(&quota_per_sec) &&
           d.GetBool(&deleted);
  }
};

// Controller -> sequencing replica: install the current log registry (quota table +
// deletion tombstones). Also the payload persisted at "/logs/config".
struct SeqUpdateLogsReq {
  uint64_t epoch = 0;
  std::vector<LogRegistryEntry> entries;

  void Encode(Encoder& e) const {
    e.PutU64(epoch);
    e.PutVector(entries);
  }
  bool Decode(Decoder& d) { return d.GetU64(&epoch) && d.GetVector(&entries); }
};

// Client -> leader: per-phylog tail query. The physical-log CheckTail keeps its
// legacy empty request body (byte-identical for single-log deployments); a non-empty
// body carries the phylog id and the response counts that log's records only.
struct SeqCheckTailReq {
  LogId log = kDefaultLog;

  void Encode(Encoder& e) const { e.PutU64(log); }
  bool Decode(Decoder& d) { return d.GetU64(&log); }
};

// Any replica -> client: current sequencing configuration (clients probe this after
// failed appends to discover the new view).
struct SeqConfigResp {
  ViewId view = 0;
  bool sealed = false;
  std::vector<uint64_t> config;  // config[0] is the leader

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutBool(sealed);
    e.PutU64Vector(config);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetBool(&sealed) && d.GetU64Vector(&config);
  }
};

}  // namespace lazylog

#endif  // SRC_SEQ_SEQ_MESSAGES_H_
