// Calibration constants for the simulated testbed. Values are derived from the paper's
// CloudLab x1170 cluster (Intel E5-2640v4, 25 Gb ConnectX-4, SATA SSD) and from the
// absolute numbers the paper reports; see DESIGN.md §8 for the derivations. Each
// experiment copies and tweaks a SimParams, so nothing here is globally mutable.
#ifndef SRC_COMMON_PARAMS_H_
#define SRC_COMMON_PARAMS_H_

#include <cstdint>

namespace lazylog {

// Nanosecond helpers for readability at call sites.
constexpr uint64_t kUs = 1'000;
constexpr uint64_t kMs = 1'000'000;
constexpr uint64_t kSec = 1'000'000'000;

// Network model: per-message delivery time = one-way propagation + size/bandwidth
// (serialized on the sender NIC, so concurrent sends queue) + uniform jitter.
struct NetworkParams {
  uint64_t propagation_ns = 3'500;           // one-way incl. switch + eRPC stack
  double bandwidth_bytes_per_sec = 3.125e9;  // 25 Gb/s NIC
  uint64_t jitter_ns = 600;                  // uniform [0, jitter)
  uint64_t per_message_overhead_bytes = 256;  // headers + DMA descriptors
};

// Server CPU model: requests at a node are serviced FIFO by a single simulated core;
// each request charges fixed_ns + bytes / copy_bandwidth. The copy bandwidth on the
// sequencing replicas is what makes Erwin-m flatten with big records (Fig 12).
struct CpuParams {
  uint64_t fixed_ns = 950;                      // fits ~1M x 100B appends/s (Fig 12)
  double copy_bandwidth_bytes_per_sec = 1.6e9;  // flattens Erwin-m near ~280K x 4KB
};

// Shard storage model: appends consume disk bandwidth (long-term durability);
// the effective ~300 MB/s cap yields ~30K x 4KB appends/s per shard (§6.1) and
// isolation latencies of ~700-800 us under load.
struct DiskParams {
  double write_bandwidth_bytes_per_sec = 300e6;
  uint64_t write_latency_ns = 500 * kUs;  // SATA-SSD-class durable write latency
};

// Sequencing layer + background ordering.
struct SeqParams {
  int num_replicas = 3;                    // 1 leader + 2 followers (f=2 with f+1... paper: f+1)
  uint64_t ordering_interval_ns = 30 * kUs;  // background ordering cadence
  // Per-shard ordering pipeline (§4.3 redesign): each shard cursor keeps up to this
  // many ordering windows in flight independently of the other shards, so a slow shard
  // no longer stalls the others and retries are per shard instead of whole-batch.
  uint32_t order_pipeline_depth = 4;
  // Maximum positions covered by one ordering window pushed to a shard.
  uint64_t max_order_batch = 16384;

  // --- Adaptive group commit (AIMD controller over the ordering cadence) ---
  // When enabled, the leader scales the effective ordering interval, per-window batch
  // size, and pipeline depth with backlog: coalescing grows proportionally to ring
  // occupancy on the way up, and the interval halves back toward the floor once the
  // ring drains. Disabled = the static knobs above are used verbatim.
  bool adaptive_ordering = true;
  // Ceiling for the adaptive ordering interval. 16x the 30us floor: wide enough that
  // per-tick batches amortize orderer overhead deep into overload, narrow enough that
  // admitted appends still order well inside the 8ms client append timeout.
  uint64_t max_ordering_interval_ns = 480 * kUs;
  // Floor for the adaptive per-window batch size (ceiling is max_order_batch). Keeps
  // windows large enough that shard pushes stay amortized even when the ring is empty.
  uint64_t min_order_batch = 2048;

  // --- Admission control (bounded unordered ring) ---
  // When enabled, appends arriving while ring occupancy (unordered entries + appends
  // queued for the sequencer CPU) is at or above the high watermark are refused with
  // kOverloaded before they consume sequencer CPU; admission resumes only once the
  // ring drains below the low watermark (hysteresis, so the gate does not flap).
  bool admission_control = true;
  // High watermark: at ~1us of sequencer CPU per metadata append, a full ring adds
  // ~4ms of queueing delay — safely under the 8ms client append timeout, so admitted
  // appends never time out merely because they queued behind a full ring.
  uint64_t ring_high_watermark = 4096;
  uint64_t ring_low_watermark = 2048;

  // --- Multi-tenant fairness (virtual-log layer) ---
  // Deficit-round-robin fairness across phylogs inside the admission gate: each
  // ordering tick replenishes every active log's deficit with an equal share of the
  // tick's effective batch budget; once ring occupancy reaches the low watermark, an
  // append from a log with no deficit left is refused kOverloaded while logs within
  // their share keep being admitted.
  // Deficit accumulation cap, in multiples of the per-tick share: lets a trickling
  // tenant bank a small burst allowance without hoarding unbounded credit.
  uint32_t fairness_burst_quanta = 4;
};

// Control plane (ZooKeeperLite + controller). The paper attributes most of the ~15 ms
// reconfiguration outage to ZK-based detection and new-view persistence (Fig 17b).
struct ControlParams {
  uint64_t session_heartbeat_ns = 2 * kMs;
  uint64_t session_timeout_ns = 8 * kMs;    // detection cost ~ timeout
  uint64_t zk_write_latency_ns = 3 * kMs;   // quorum write to the ZK ensemble
  uint64_t zk_read_latency_ns = 300 * kUs;
};

// Scalog baseline knobs (§6.1): interleaving interval 0.1 ms as in the paper; the
// artifact uses gRPC, which we charge as extra per-request handling cost.
struct ScalogParams {
  uint64_t interleave_interval_ns = 100 * kUs;
  uint64_t grpc_overhead_ns = 15 * kUs;  // gRPC-vs-eRPC per-request handling penalty
};

// KafkaLite knobs: producer linger + acks=all replication give the ms-scale standalone
// latencies of Fig 15.
struct KafkaParams {
  uint64_t linger_ns = 12 * kMs;
  uint64_t broker_fixed_ns = 20 * kUs;  // JVM-ish per-batch handling cost
};

// Client read path (§5.3 read scale-out): replica routing, request coalescing,
// and tail readahead. Stable reads (strictly below the client's cached stable-gp)
// may be served by any replica of a shard because every replica gates reads on its
// own stable-gp broadcast; reads at/above stable still go to the primary, whose
// waiter queue provides the wait-for-stability semantics. Concurrent same-replica
// sub-reads issued at the same simulated instant are coalesced into one RPC.
struct ClientReadParams {
  // true = load-aware power-of-two-choices over per-replica EWMA of observed read
  //        RTT plus server-piggybacked CPU queue depth (default);
  // false = always primary (pinned baseline).
  bool route_stable_reads = true;
  // Max records packed into one multi-range read RPC; larger ranges are split into
  // chunks issued as independent pipelined RPCs so shard-side response serialization
  // CPU overlaps NIC transmission of earlier chunks.
  uint32_t read_chunk_records = 256;
  // Sequential-reader speculative prefetch: on a fully-served read, fetch up to this
  // many records of the stable region past the cursor into a client cache. 0 = off.
  uint32_t readahead_records = 64;
  // Erwin-st position-map prefetch span per kShardPosMap fetch (was a hardcoded 1024).
  uint64_t posmap_readahead = 1024;
};

// Everything bundled; experiments copy one of these and override fields.
struct SimParams {
  NetworkParams net;
  CpuParams seq_cpu;      // sequencing replicas
  // Storage-server request handling (flash-path bookkeeping); on Corfu's critical path
  // three times per append, but only on Erwin's background path.
  CpuParams shard_cpu{.fixed_ns = 3'000, .copy_bandwidth_bytes_per_sec = 2.0e9};
  DiskParams disk;
  SeqParams seq;
  ControlParams control;
  ScalogParams scalog;
  KafkaParams kafka;
  uint64_t rpc_timeout_ns = 50 * kMs;
  // Client append timeout: short enough that a sequencing-replica crash pushes clients
  // into config re-resolution on the same timescale as the control plane's recovery.
  uint64_t client_append_timeout_ns = 8 * kMs;
  ClientReadParams client_read;
  uint64_t seed = 1;
};

}  // namespace lazylog

#endif  // SRC_COMMON_PARAMS_H_
