// The benchmark's workloads and one measured pass over each. A pass builds a fresh
// Erwin cluster, warms it up, measures a fixed window of simulated time, injects the
// workload's faults, drains, and (optionally) reads the whole log back to check it.
// Everything simulated is a pure function of the workload and the seed.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/seq/sequencing_replica.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

enum class FaultKind { kSeqFollower, kShardPrimary };

struct Fault {
  FaultKind kind = FaultKind::kSeqFollower;
  uint64_t at_ns = 0;  // offset from the start of the measured window
};

struct WorkloadSpec {
  std::string name;
  lazylog::ErwinMode mode = lazylog::ErwinMode::kSt;
  uint32_t shards = 1;
  uint32_t replication = 2;
  uint32_t appenders = 1;
  double rate = 0;  // total offered appends/s
  size_t record_bytes = 4096;
  uint32_t streams = 0;  // > 0: appends round-robin over this many stream tags
  uint32_t tail_readers = 1;
  bool sample_tail = false;  // tail readers sample the newest record instead of following
  uint32_t scanners = 0;
  uint32_t stream_readers = 0;
  uint64_t warmup_ns = 0;
  uint64_t window_ns = 0;
  std::vector<Fault> faults;
  // Bracket of offered rates searched for the append SLO rate.
  double ladder_lo = 0;
  double ladder_hi = 0;
};

// nullptr if `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

// Simulated observations of one pass, kept raw so several passes can be pooled.
struct SimSamples {
  std::vector<double> append_us;   // send -> ack of appends sent in the window
  std::vector<double> read_us;     // every Read/ReadNext call issued in the window
  std::vector<double> visible_us;  // send -> tail-reader delivery, appends sent in the window
  uint64_t window_acks = 0;        // acked appends sent in the window ...
  double window_ack_span_s = 0;    // ... and the time from window start to the last ack
  uint64_t window_records = 0;     // records handed to readers inside the window
  double window_s = 0;
  double unavail_ms = 0;           // fig17 dip rule, summed over the pass's faults
};

struct PassResult {
  SimSamples sim;
  std::vector<Metric> layer;  // per-layer metrics (traced passes only)
  double setup_cpu_s = 0;     // host CPU seconds: cluster build + warm-up
  double host_us_per_op = 0;  // process CPU per completed op in the window
  double host_allocs_per_op = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;  // hash of every simulated observation (determinism witness)
  std::vector<std::string> violations;  // output-check failures (checked passes only)
};

// The simulated end-to-end metrics of pooled passes.
std::vector<Metric> SimMetrics(const std::vector<const SimSamples*>& passes);

// One pass. `traced` attaches observers and samplers for the per-layer metrics;
// `check` reads the log back and runs the output checks.
PassResult RunPass(const WorkloadSpec& w, uint64_t seed, bool traced, bool check);

// Highest offered append rate (K/s) on this workload's cluster at which the append
// p99 stays within 100 us, >= 99% of offered appends are acked and the backlog does
// not grow. Bisects the workload's rate bracket, then interpolates the p99 crossing
// inside the final bracket. Appenders only: no readers and no faults.
double SloRateKops(const WorkloadSpec& w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
