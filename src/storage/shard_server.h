// Storage shard server. In Erwin-m ("black-box") mode it is a plain primary-backup
// replicated log: the background orderer appends globally positioned records, replicas
// persist them, and reads are gated on stable-gp (§4.3-4.4). In Erwin-st ("modified")
// mode it additionally accepts unordered durable data writes straight from clients and
// binds them to positions when the ordered metadata arrives, resolving missing data with
// no-op records after a timeout (§5). One class serves both primary and backup roles.
#ifndef SRC_STORAGE_SHARD_SERVER_H_
#define SRC_STORAGE_SHARD_SERVER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/params.h"
#include "src/common/status.h"
#include "src/rpc/rpc.h"
#include "src/rpc/rpc_methods.h"
#include "src/sim/resources.h"
#include "src/storage/segmented_log.h"
#include "src/storage/shard_messages.h"
#include "src/storage/stable_gp_waiters.h"

namespace lazylog {

enum class ShardMode { kBlackBox, kStModified };

// Runtime statistics exposed to benches and tests.
struct ShardStats {
  uint64_t appends = 0;         // ordered records stored
  uint64_t data_puts = 0;       // Erwin-st unordered data writes
  uint64_t fast_reads = 0;      // served immediately (pos <= stable-gp)
  uint64_t slow_reads = 0;      // had to wait for stable-gp to advance
  uint64_t backup_reads = 0;    // reads served while not the shard primary
  uint64_t multirange_reads = 0;          // non-waiting reads served (routed, index)
  uint64_t multirange_ranges_clipped = 0; // ranges served short (the client re-reads)
  uint64_t noops_created = 0;   // Erwin-st missing-data resolutions
  uint64_t rejected_puts = 0;   // late data after no-op
  uint64_t windows_applied = 0; // ordering windows applied in span order
  uint64_t windows_parked = 0;  // windows that arrived ahead of a gap and waited
  uint64_t windows_retransmitted = 0;  // fully durable windows re-acked immediately
  // Primary-failover counters (promotion handoff).
  uint64_t promotions = 0;                  // times this replica was promoted to primary
  uint64_t handoff_records_refetched = 0;   // peer back-fills + catch-up entries shipped
  uint64_t seal_to_open_ns = 0;             // last promotion: promo-seal -> role flip open
};

// Point-in-time copy of the counters plus the ordering-stream frontiers; the single
// stats surface consumed by benches/tests (no friend/field poking).
struct ShardStatsSnapshot {
  ShardStats counters;
  ShardId shard_id = 0;
  LogPos stable_gp = 0;
  LogPos order_applied = 0;  // contiguous apply frontier of the orderer stream
  LogPos order_durable = 0;  // contiguous fully-durable frontier (reported in acks)
  uint64_t parked_windows = 0;
  BufStats buf;  // global record-path copy/alias counters at capture time
  StatsFields Fields() const;
};

class ShardServer {
 public:
  // Erwin-st missing-data no-op timeout (§5.4).
  static constexpr uint64_t kStDataTimeoutNs = 2 * kMs;
  // Age after which unmatched data in the Erwin-st unordered pool is scrubbed as a
  // client-crash orphan (§5.4). Must dominate the worst-case ordering stall (chained
  // order-push retries): data of an acked-but-not-yet-ordered record that gets
  // scrubbed here is later no-op'ed at bind time — losing an acknowledged append.
  static constexpr uint64_t kStOrphanScrubAgeNs = 400 * kMs;

  ShardServer(Network* net, const SimParams& params, ShardMode mode, ShardId shard_id);

  NodeId node_id() const { return endpoint_.node_id(); }
  ShardId shard_id() const { return shard_id_; }

  // Wires up the replica set; `replicas[0]` is the primary. Must be called on every
  // replica before traffic starts.
  void SetReplicaSet(std::vector<NodeId> replicas);
  bool is_primary() const { return !replicas_.empty() && replicas_[0] == node_id(); }

  // Used when shards are added at runtime (Erwin-st §6.9): adopt the current stable-gp
  // and metadata offset so the new shard starts consistent.
  void Bootstrap(LogPos stable_gp, LogPos meta_next_pos);

  // Shard-replica replacement (§5.4): copies both ordered and unordered records (plus
  // the metadata log and no-op decisions) from a live replica of the same shard into
  // this fresh server. `done` fires with the outcome once the state is installed.
  void CopyStateFrom(NodeId live_replica, std::function<void(Status)> done);

  // --- introspection (tests / benches; no wire latency) ---
  LogPos stable_gp() const { return stable_gp_; }
  LogPos order_durable() const { return order_durable_; }
  ShardStatsSnapshot StatsSnapshot() const;
  const ShardStats& stats() const { return stats_; }
  uint64_t ordered_records() const { return log_.size(); }
  const Record* RecordAt(LogPos pos) const;
  size_t unordered_pool_size() const { return pool_.size(); }
  uint64_t meta_log_size() const { return meta_log_.size(); }
  ViewId view() const { return view_; }
  uint64_t promo_epoch() const { return promo_epoch_; }
  bool sealed_for_promotion() const { return sealed_for_promotion_; }

  // Observer fired whenever this shard's stable-gp advances (broadcast, bootstrap, or
  // state copy). The chaos oracles subscribe to check per-node monotonicity.
  using StableGpObserver = std::function<void(ViewId view, LogPos stable_gp)>;
  void SetStableGpObserver(StableGpObserver observer) { stable_gp_observer_ = std::move(observer); }

  // The simulated disk backing this shard (chaos disk-slowdown windows).
  Disk& disk() { return disk_; }

  // Test hook (chaos weakened-invariant fixtures): serve reads without the stable-gp
  // gate, returning whatever is locally bound. Violates §4.4 by design; the chaos
  // read-gating oracle must catch it.
  void SetReadGateDisabledForTest(bool disabled) { read_gate_disabled_ = disabled; }

  // Test hook (chaos weakened-invariant fixtures): ignore the epoch fence, accepting
  // orderer pushes and stable-gp advances stamped with sealed-off views. Lets a deposed
  // sequencing leader keep binding positions; the binding/exactly-once oracles must
  // catch the resulting split-brain.
  void SetFencingDisabledForTest(bool disabled) { fencing_disabled_ = disabled; }

 private:
  struct BatchAck;

  // A position bound before its data arrived (Erwin-st); resolved by data arrival, the
  // primary's no-op timeout, or the fetch ladder (FetchPending).
  struct PendingBinding {
    LogPos pos = 0;
    uint64_t local_index = 0;
    EventHandle timeout;
    std::shared_ptr<BatchAck> batch;  // the window ack this binding holds open
  };

  // Tracks one in-flight ordered window: responds to the orderer once replication,
  // disk persistence, and (Erwin-st) all pending bindings resolve. On success the
  // covered span [span_lo, span_hi) is folded into the durable frontier, and the ack
  // body carries the shard's contiguous durable watermark (ShardOrderAckResp) so the
  // orderer cursor can resync after retries.
  struct BatchAck {
    ShardServer* server = nullptr;
    Responder responder;
    int waits = 0;
    bool failed = false;
    LogPos span_lo = 0;
    LogPos span_hi = 0;
    void Complete(const Status& s);
  };

  // An ordering window parked because it arrived ahead of a gap in the span stream
  // (pipelined cursors can reorder in flight).
  struct OrderedWindow {
    std::shared_ptr<ShardWindowReq> req;
    Responder responder;
  };

  // Handlers.
  void HandleWindow(Decoder d, Responder r);        // orderer -> primary
  void HandleReplicate(NodeId from, Decoder d, Responder r);  // primary -> backup
  void HandleRead(Decoder d, Responder r);          // the one read verb (ShardReadReq)
  void HandleSetStableGp(Decoder d, Responder r);
  void HandlePutData(Decoder d, Responder r);       // client -> replica (Erwin-st)
  void HandleReplicateNoOp(NodeId from, Decoder d, Responder r);  // primary -> backup
  // Peer fetch: answer with whatever is bound at a position (record or no-op).
  void HandleFetchRecord(Decoder d, Responder r);
  void HandlePosMap(Decoder d, Responder r);
  void ServePosMap(const ShardPosMapReq& req, Responder r);
  void HandleIndexDelta(Decoder d, Responder r);  // index node -> primary: tag index pull
  void HandleTrim(Decoder d, Responder r);
  void HandleFetchState(Decoder d, Responder r);
  void HandleSeal(Decoder d, Responder r);        // controller -> shard: fence the epoch
  void HandleCopyState(Decoder d, Responder r);   // controller -> replacement replica

  // --- primary promotion (controller-driven failover) ---
  // Seal-for-promotion: record the bumped promotion epoch, refuse primary-originated
  // replication traffic until the new order is installed, and answer with this
  // replica's completeness report (the controller's selection input).
  void HandlePromoSeal(Decoder d, Responder r);
  // Adopt the promoted replica order; a receiver that finds itself first runs the full
  // role flip (PromoteToPrimary), everyone else just re-points at the new primary.
  void HandlePromote(Decoder d, Responder r);
  // The backup -> primary role flip: catch lagging peers up to our contiguous applied
  // frontier, move our pending bindings from the backup fetch ladder onto the promoted
  // one (peer back-fill, then the primary no-op timer), and take over no-op timer
  // ownership.
  void PromoteToPrimary(const ShardPromoteReq& req);
  // Ships [from, order_applied_) to one lagging peer as a replication window.
  void CatchUpPeer(NodeId peer, LogPos from, uint32_t attempt);
  // The fetch ladder: resolves one pending binding from a peer's copy. A backup asks its
  // current primary and, on failure, retries after kStDataTimeoutNs until the binding
  // resolves. A primary (freshly promoted) asks replicas_[peer] and on failure moves to
  // the next peer; past the last peer it falls back to the no-op timer.
  void FetchPending(const RecordId& id, size_t peer);
  // True for primary-originated traffic that must be refused: we are sealed for an
  // in-flight promotion, or the sender is not our current primary (a deposed, possibly
  // isolated, old primary).
  bool RejectPrimaryTraffic(NodeId from) const;

  // True if a message stamped `view` must be rejected as fenced-off.
  bool FencedOff(ViewId view) const { return view < view_ && !fencing_disabled_; }

  // --- ordering-window admission (per-shard cursor pipeline) ---
  // Windows cover adjacent global-position spans and must be applied in span order
  // (StoreOrdered requires ascending positions). Admission acks fully durable
  // retransmits immediately, parks ahead-of-gap arrivals, applies in-order windows,
  // and then drains any parked successors. Both roles and both modes share this path.
  void AdmitWindow(std::shared_ptr<ShardWindowReq> req, Responder r);
  // Stores the window's records (m) or extends the metadata log and binds the owned
  // positions (st); a primary then replicates the window to its backups.
  void ApplyWindow(std::shared_ptr<ShardWindowReq> req, Responder r);
  void DrainParkedWindows();
  // Folds a durably completed span into completed_spans_ and advances order_durable_
  // over the contiguous prefix.
  void OnWindowDurable(LogPos lo, LogPos hi);
  // Responds with `s` plus a ShardOrderAckResp carrying the durable watermark (error
  // responses deliver the body too, so the orderer resyncs even on failure).
  void SendWatermarkAck(Responder r, const Status& s);
  // The admission decision. kApply also covers re-applies of applied-but-not-yet-durable
  // retransmits (idempotent via pos_to_local_).
  enum class Admit { kApply, kAckDurable, kPark, kOverflow };
  Admit DecideAdmit(LogPos lo, LogPos hi, bool overwrite) const;
  // Flush/overwrite windows reset the ordering frontiers: the unstable tail is being
  // rewritten, so parked windows and completed spans from the old view are dropped.
  void ResetOrderFrontiersForOverwrite(LogPos truncate_from, LogPos range_hi);

  // Stores one ordered record locally (append or recovery overwrite).
  void StoreOrdered(LogPos pos, Record record, bool overwrite_tail_done);
  // Truncates everything with position >= pos (recovery overwrite path).
  void TruncateOrderedFrom(LogPos pos);
  // Erwin-st: binds position -> record data from the unordered pool, or parks a
  // PendingBinding that holds one wait on `batch`.
  void BindPosition(const MetaEntry& entry, const std::shared_ptr<BatchAck>& batch);
  void ResolvePendingWithData(const RecordId& id, Buf payload, StreamTag tag, LogId log);
  void FinalizeNoOp(const RecordId& id);
  // Replicates a primary no-op decision to one backup, retrying until acked: a backup
  // whose data copy arrived binds the real record, and a dropped no-op would leave the
  // replicas permanently disagreeing on the binding.
  void SendReplicateNoOp(NodeId backup, NoOpMsg msg);

  void ServeRead(const ShardReadReq& req, Responder r);
  // Stamps a read reply with this replica's stable/durable tails and current CPU
  // backlog (the router/tail-cache feedback every read reply carries).
  void FillReadPiggyback(ShardReadResp* resp);
  uint64_t DiskAdmissionDelay() const;
  void ScrubOrphans();
  // Appends (tag, pos) journal entries for owned positions that became stable since the
  // last advance. Stops short of any still-pending binding so a journaled tag is final.
  void AdvanceTagIndex();

  RpcEndpoint endpoint_;
  ServerCpu cpu_;
  Disk disk_;
  SimParams params_;
  ShardMode mode_;
  ShardId shard_id_;
  std::vector<NodeId> replicas_;

  ViewId view_ = 0;
  LogPos stable_gp_ = 0;  // positions < stable_gp_ are readable (count semantics)
  // Last durable tail heard from the orderer's stable-gp broadcasts; advertised on read
  // replies so tail pollers can skip CheckTail. May lag the leader, never exceeds it.
  LogPos durable_hint_ = 0;

  // Ordering-stream frontiers (global positions, count semantics). order_applied_ is
  // the contiguous span frontier of applied windows; order_durable_ is the contiguous
  // frontier whose replication + disk persistence (+ st bindings) completed — this is
  // what acks report. applied can run ahead of durable while windows are in flight.
  LogPos order_applied_ = 0;
  LogPos order_durable_ = 0;
  std::map<LogPos, LogPos> completed_spans_;  // durably completed spans ahead of the frontier
  std::map<LogPos, OrderedWindow> parked_;    // ahead-of-gap windows keyed by range_lo
  bool loading_ = false;  // replacement replica: state copy still in flight
  // Primary-promotion fence (distinct from the ViewId fence: bumping view_ above the
  // live sequencing view would stale-view the healthy leader's pushes and self-seal
  // it). The promotion epoch versions promotion rounds; sealed_for_promotion_ refuses
  // primary-originated replication between the promo-seal and the order install.
  uint64_t promo_epoch_ = 0;
  bool sealed_for_promotion_ = false;
  SimTime promo_sealed_at_ = 0;
  bool read_gate_disabled_ = false;  // test hook; see SetReadGateDisabledForTest
  bool fencing_disabled_ = false;    // test hook; see SetFencingDisabledForTest
  StableGpObserver stable_gp_observer_;

  // Ordered storage: dense local log + position bookkeeping. local_pos_[i] is the
  // global position of local index local_pos_base_ + i.
  SegmentedLog log_;
  std::deque<LogPos> local_pos_;
  uint64_t local_pos_base_ = 0;
  std::unordered_map<LogPos, uint64_t> pos_to_local_;  // global pos -> local index
  LogPos trimmed_below_ = 0;

  // Erwin-st state. Pool entries are handles onto the client's payload backing (the
  // PutData attachment); binding moves the handle into the log, never the bytes. The
  // stream tag rides alongside so the bound record keeps its stream.
  struct PoolEntry {
    Buf payload;
    StreamTag tag = kNoTag;
    LogId log = kDefaultLog;
  };
  std::unordered_map<RecordId, PoolEntry, RecordIdHash> pool_;  // unordered durable data
  std::unordered_map<RecordId, SimTime, RecordIdHash> pool_arrival_;
  std::unordered_map<RecordId, PendingBinding, RecordIdHash> pending_;
  std::unordered_set<RecordId, RecordIdHash> rejected_;  // no-op'ed ids
  std::vector<uint64_t> meta_log_;                       // pos -> shard id (dense)
  LogPos meta_base_ = 0;                                 // position of meta_log_[0]

  // Tag index (index tier). The journal lists (log, tag, pos) for tagged records this
  // shard owns, appended in ascending position order as positions become stable; index
  // nodes pull it by sequence number (kShardIndexDelta). A named-log record is
  // additionally journaled under (log, kNoTag) — the per-phylog rank list that backs
  // per-log reads. index_pos_frontier_ is the coverage mark: every owned position below
  // it is journaled (no-ops and default-log untagged records are covered but not
  // listed). Segment rollover/trim never disturbs the journal — it is keyed by export
  // sequence, not local index.
  std::deque<TagIndexEntry> index_journal_;
  LogPos index_pos_frontier_ = 0;

  StableGpWaiters waiters_;  // waiting reads and posmap fetches parked past stable-gp
  ShardStats stats_;
};

}  // namespace lazylog

#endif  // SRC_STORAGE_SHARD_SERVER_H_
