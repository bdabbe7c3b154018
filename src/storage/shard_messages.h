// Wire messages exchanged with shard servers. Shared by the Erwin background orderer,
// the Erwin-m/st clients, and the recovery path.
#ifndef SRC_STORAGE_SHARD_MESSAGES_H_
#define SRC_STORAGE_SHARD_MESSAGES_H_

#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/types.h"

namespace lazylog {

// One globally positioned record, as pushed by the background orderer (Erwin-m) or
// replicated primary->backup.
struct PositionedRecord {
  static constexpr size_t kMinEncodedSize = 8 + WireRecord::kMinEncodedSize;
  LogPos pos = 0;
  Record record;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecord(e, record);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && DecodeRecord(d, &record); }
};

// Erwin-st <record-id, shard-id> tuple: the bytes one metadata entry costs the CPU
// that handles it (sequencing replica append, shard window apply).
constexpr uint64_t kMetaEntryBytes = 32;

// One metadata entry: global position -> (record id, shard that holds the data).
struct MetaEntry {
  static constexpr size_t kMinEncodedSize = 28;  // pos + record id + shard
  LogPos pos = 0;
  RecordId id;
  ShardId shard = 0;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecordId(e, id);
    e.PutU32(shard);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&pos) && DecodeRecordId(d, &id) && d.GetU32(&shard);
  }
};

// One ordering window: orderer -> shard primary, and primary -> backup. `range_lo`/
// `range_hi` delimit the contiguous global-position span it covers. Windows from one
// orderer cursor cover adjacent, non-overlapping spans; the shard applies them in span
// order, parking any window that arrives ahead of a gap, and advances its applied
// watermark over the whole span. `overwrite` is set on the recovery flush, where
// previously pushed (but unstable) tail entries may be logically rewritten (§4.5).
//
// The body depends on the design, and the receiver picks it by its own mode:
// - Erwin-m: `records`, the span's records this shard owns.
// - Erwin-st: `entries`, the span's full metadata. Every shard stores the whole
//   position->shard map and binds the positions it owns (§5.2).
// A window carries at most one non-empty body; an empty body encodes the same either way.
struct ShardWindowReq {
  ViewId view = 0;
  bool overwrite = false;
  LogPos truncate_from = 0;  // valid when overwrite: drop local entries with pos >= this
  LogPos range_lo = 0;       // first global position covered by this window
  LogPos range_hi = 0;       // one past the last global position covered
  std::vector<PositionedRecord> records;  // Erwin-m body
  std::vector<MetaEntry> entries;         // Erwin-st body

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutBool(overwrite);
    e.PutU64(truncate_from);
    e.PutU64(range_lo);
    e.PutU64(range_hi);
    if (entries.empty()) {
      e.PutVector(records);
    } else {
      e.PutVector(entries);
    }
  }
  bool Decode(Decoder& d, bool meta_body) {
    return d.GetU64(&view) && d.GetBool(&overwrite) && d.GetU64(&truncate_from) &&
           d.GetU64(&range_lo) && d.GetU64(&range_hi) &&
           (meta_body ? d.GetVector(&entries) : d.GetVector(&records));
  }
};

// Shard -> orderer: ack body for an ordering window.
// `applied_upto` is the shard's contiguous applied watermark — every position below it
// has been applied (stored, replicated, persisted). The orderer resyncs a cursor from
// this value after a retry instead of re-sending the whole batch to every shard.
struct ShardOrderAckResp {
  LogPos applied_upto = 0;

  void Encode(Encoder& e) const { e.PutU64(applied_upto); }
  bool Decode(Decoder& d) { return d.GetU64(&applied_upto); }
};

// One contiguous read sub-range: up to `len` consecutive records *local to the target
// shard* starting at global position `pos`.
struct ReadRange {
  static constexpr size_t kMinEncodedSize = 12;  // pos + len
  LogPos pos = 0;
  uint32_t len = 1;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    e.PutU32(len);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && d.GetU32(&len); }
};

// Client -> any shard replica: the one read verb. Each range is walked in request
// order and clipped at the serving replica's stable-gp; a range starting at a trimmed,
// foreign or unstable position serves nothing. With `wait` the replica holds the
// request until the first range's start is stable (§4.4 slow path) and refuses a
// trimmed start with OUT_OF_RANGE; without it the reply is immediate and may be short.
struct ShardReadReq {
  std::vector<ReadRange> ranges;
  bool wait = false;

  void Encode(Encoder& e) const {
    e.PutVector(ranges);
    e.PutBool(wait);
  }
  bool Decode(Decoder& d) { return d.GetVector(&ranges) && d.GetBool(&wait); }
};

// Read reply: `records` is the concatenation of the per-range record runs in request
// order, and `counts[i]` says how many of them belong to range i — the partition is
// explicit because ranges from different callers may overlap or abut. Every reply also
// piggybacks the serving replica's view of the log tail (count-semantics stable
// frontier, durable tail learned from the orderer's broadcasts) so tail pollers can
// skip a CheckTail round trip, and its CPU queue depth, which feeds the client-side
// load-aware replica router.
struct ShardReadResp {
  std::vector<uint32_t> counts;
  std::vector<PositionedRecord> records;
  LogPos stable_gp = 0;     // serving replica's stable frontier at reply time
  LogPos durable_tail = 0;  // serving replica's last-heard durable tail (may lag)
  uint64_t queue_ns = 0;    // serving replica's CPU backlog when the request was handled

  void Encode(Encoder& e) const {
    e.PutU32(static_cast<uint32_t>(counts.size()));
    for (uint32_t c : counts) {
      e.PutU32(c);
    }
    e.PutVector(records);
    e.PutU64(stable_gp);
    e.PutU64(durable_tail);
    e.PutU64(queue_ns);
  }
  bool Decode(Decoder& d) {
    uint32_t n = 0;
    if (!d.GetU32(&n) || static_cast<size_t>(n) * sizeof(uint32_t) > d.Remaining()) {
      return false;
    }
    counts.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!d.GetU32(&counts[i])) {
        return false;
      }
    }
    return d.GetVector(&records) && d.GetU64(&stable_gp) && d.GetU64(&durable_tail) &&
           d.GetU64(&queue_ns);
  }
};

// Erwin-st client data write: durable-on-arrival record data, not yet ordered. The
// payload attachment is the one allocation the record ever gets: the shard's unordered
// pool, the bound log entry, and read replies all alias it.
struct ShardPutDataReq {
  RecordId id;
  Buf payload;
  StreamTag tag = kNoTag;  // carried with the data so the bound record keeps its stream
  LogId log = kDefaultLog;  // carried with the data so the bound record keeps its phylog

  // Trailing flags byte mirroring the record codec (kRecordFlagHasTag /
  // kRecordFlagHasLog). Untagged default-log frames stay byte-identical to the pre-tag
  // format plus one zero byte.
  void Encode(Encoder& e) const {
    EncodeRecordId(e, id);
    e.PutAttached(payload);
    e.PutU8(TagLogFlags(tag, log));
    EncodeTagLog(e, tag, log);
  }
  bool Decode(Decoder& d) {
    uint8_t flags = 0;
    if (!DecodeRecordId(d, &id) || !d.GetAttached(&payload) || !d.GetU8(&flags) ||
        (flags & ~(kRecordFlagHasTag | kRecordFlagHasLog)) != 0) {
      return false;
    }
    return DecodeTagLog(d, flags, &tag, &log);
  }
};

// Client -> any shard server (Erwin-st): fetch position->shard mappings for caching.
// The reply maps the stable positions in [from, from + len). With `wait` a fetch whose
// reply would be empty parks until stable-gp passes `from`, like a waiting read.
struct ShardPosMapReq {
  LogPos from = 0;
  uint32_t len = 0;
  bool wait = false;

  void Encode(Encoder& e) const {
    e.PutU64(from);
    e.PutU32(len);
    e.PutBool(wait);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from) && d.GetU32(&len) && d.GetBool(&wait); }
};

struct ShardPosMapResp {
  LogPos from = 0;
  std::vector<uint64_t> shard_ids;  // shard id per position, dense from `from`

  void Encode(Encoder& e) const {
    e.PutU64(from);
    e.PutU64Vector(shard_ids);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from) && d.GetU64Vector(&shard_ids); }
};

// One (log, tag, global position) entry exported by a shard's stream/phylog index
// journal. Tagged records journal under their (log, tag); every named-log record
// additionally journals under (log, kNoTag) — that list, sorted by position, IS the
// phylog's dense position space (rank i = per-log position i). Default-log untagged
// records are never journaled, so single-log untagged runs export nothing, exactly as
// before the virtual-log layer.
struct TagIndexEntry {
  static constexpr size_t kMinEncodedSize = 24;  // log + tag + pos
  LogId log = kDefaultLog;
  StreamTag tag = kNoTag;
  LogPos pos = 0;

  void Encode(Encoder& e) const {
    e.PutU64(log);
    e.PutU64(tag);
    e.PutU64(pos);
  }
  bool Decode(Decoder& d) { return d.GetU64(&log) && d.GetU64(&tag) && d.GetU64(&pos); }
};

// Index node -> shard primary: pull tag-index entries starting at shard-local export
// sequence `from_seq`. The export sequence numbers this shard's stable positions in
// local order, so a crashed/restarted index node resumes exactly where it left off.
struct ShardIndexDeltaReq {
  uint64_t from_seq = 0;
  uint32_t max_entries = 4096;

  void Encode(Encoder& e) const {
    e.PutU64(from_seq);
    e.PutU32(max_entries);
  }
  bool Decode(Decoder& d) { return d.GetU64(&from_seq) && d.GetU32(&max_entries); }
};

struct ShardIndexDeltaResp {
  uint64_t from_seq = 0;      // echo of the request cursor
  uint64_t next_seq = 0;      // cursor for the next pull (from_seq + entries.size())
  LogPos stable_gp = 0;       // shard's stable frontier at export time (lag accounting)
  LogPos exported_below = 0;  // every position this shard owns below here is covered by
                              // the returned prefix (journal entries ascend in pos)
  std::vector<TagIndexEntry> entries;

  void Encode(Encoder& e) const {
    e.PutU64(from_seq);
    e.PutU64(next_seq);
    e.PutU64(stable_gp);
    e.PutU64(exported_below);
    e.PutVector(entries);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&from_seq) && d.GetU64(&next_seq) && d.GetU64(&stable_gp) &&
           d.GetU64(&exported_below) && d.GetVector(&entries);
  }
};

// Orderer/controller -> shard server: advance the stable global position. `stable_gp`
// uses count semantics: positions < stable_gp are stable and readable. `durable_tail`
// is the sequencing leader's durable frontier at broadcast time (ordered_gp + unordered
// ring size); replicas cache it so read replies can piggyback a recent durable tail.
struct StableGpMsg {
  ViewId view = 0;
  LogPos stable_gp = 0;
  LogPos durable_tail = 0;

  void Encode(Encoder& e) const {
    e.PutU64(view);
    e.PutU64(stable_gp);
    e.PutU64(durable_tail);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&view) && d.GetU64(&stable_gp) && d.GetU64(&durable_tail);
  }
};

// Controller -> shard server: fence the epoch. After this, any orderer/data-path message
// stamped with a view < `new_view` is rejected with STALE_VIEW, so a deposed sequencing
// leader can neither bind positions nor advance stable-gp on this shard (§4.5 seal).
struct ShardSealReq {
  ViewId new_view = 0;

  void Encode(Encoder& e) const { e.PutU64(new_view); }
  bool Decode(Decoder& d) { return d.GetU64(&new_view); }
};

// Controller -> replacement shard replica: pull ordered + unordered state from `source`
// (the shard's primary) via the existing kShardFetchState path.
struct ShardCopyStateReq {
  NodeId source = kInvalidNode;

  void Encode(Encoder& e) const { e.PutU32(source); }
  bool Decode(Decoder& d) { return d.GetU32(&source); }
};

// Client -> shard: garbage-collect positions < up_to.
struct TrimMsg {
  LogPos up_to = 0;

  void Encode(Encoder& e) const { e.PutU64(up_to); }
  bool Decode(Decoder& d) { return d.GetU64(&up_to); }
};

// Controller -> surviving shard replica: fence the shard for primary promotion under a
// bumped promotion epoch. While sealed-for-promotion the replica refuses
// primary-originated traffic (window replication and replicate-no-op), which keeps
// an isolated-but-alive old primary from mutating survivors mid-handoff. The response is
// the replica's completeness report, from which the controller picks the new primary.
struct ShardPromoSealReq {
  uint64_t promo_epoch = 0;

  void Encode(Encoder& e) const { e.PutU64(promo_epoch); }
  bool Decode(Decoder& d) { return d.GetU64(&promo_epoch); }
};

// Replica -> controller: how complete this replica's Erwin-st state is. `order_applied`
// is the contiguous metadata frontier (the promotion comparison key — everything below
// it is bound or mapped locally); `pending` counts owned positions whose payload is
// still unresolved (back-fill work for the new primary).
struct ShardCompletenessResp {
  uint64_t promo_epoch = 0;
  LogPos order_applied = 0;
  LogPos order_durable = 0;
  uint64_t meta_size = 0;
  uint64_t pending = 0;

  void Encode(Encoder& e) const {
    e.PutU64(promo_epoch);
    e.PutU64(order_applied);
    e.PutU64(order_durable);
    e.PutU64(meta_size);
    e.PutU64(pending);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&promo_epoch) && d.GetU64(&order_applied) && d.GetU64(&order_durable) &&
           d.GetU64(&meta_size) && d.GetU64(&pending);
  }
};

// Controller -> surviving shard replica: adopt the promoted replica order (order[0] is
// the new primary). A receiver that finds itself at order[0] runs the full role flip:
// meta catch-up of lagging peers (peer_applied[i] is order[i]'s contiguous frontier),
// payload back-fill of its own pending bindings from peers, and conversion of its
// backup fetch timers into primary no-op timers. Everyone else just installs the order,
// which re-points their repair path at the new primary and un-seals them.
struct ShardPromoteReq {
  uint64_t promo_epoch = 0;
  std::vector<uint64_t> order;         // replica node ids, order[0] = new primary
  std::vector<uint64_t> peer_applied;  // parallel to order: each replica's order_applied

  void Encode(Encoder& e) const {
    e.PutU64(promo_epoch);
    e.PutU64Vector(order);
    e.PutU64Vector(peer_applied);
  }
  bool Decode(Decoder& d) {
    return d.GetU64(&promo_epoch) && d.GetU64Vector(&order) && d.GetU64Vector(&peer_applied);
  }
};

// Shard replica -> peer replica (Erwin-st): fetch whatever the peer has bound at `pos`,
// a real record or a no-op decision. A backup asks its primary to repair a binding whose
// data never reached it; a freshly promoted primary asks its peers to back-fill bindings
// the dead primary left unresolved. Unbound or still-pending positions answer
// UNAVAILABLE and the asker moves on down its retry ladder.
struct FetchRecordReq {
  LogPos pos = 0;

  void Encode(Encoder& e) const { e.PutU64(pos); }
  bool Decode(Decoder& d) { return d.GetU64(&pos); }
};

// Primary -> backup (Erwin-st): position `pos` resolved as a no-op for record `id`.
struct NoOpMsg {
  LogPos pos = 0;
  RecordId id;

  void Encode(Encoder& e) const {
    e.PutU64(pos);
    EncodeRecordId(e, id);
  }
  bool Decode(Decoder& d) { return d.GetU64(&pos) && DecodeRecordId(d, &id); }
};

}  // namespace lazylog

#endif  // SRC_STORAGE_SHARD_MESSAGES_H_
