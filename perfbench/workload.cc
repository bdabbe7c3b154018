#include "perfbench/workload.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/checks.h"
#include "perfbench/drivers.h"
#include "perfbench/host.h"
#include "src/lazylog/erwin_cluster.h"

namespace perfbench {

using lazylog::ErwinCluster;
using lazylog::ErwinClusterOptions;
using lazylog::ErwinMode;
using lazylog::kMs;
using lazylog::kUs;

namespace {

// perfbench/README.md explains each workload in full.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // Fig 13's ingest regime, the heaviest event load per simulated second: engine,
    // network, sequencer admission and shard disk do the work. The log is too fast to
    // follow in full, so one reader samples its tail.
    WorkloadSpec ingest;
    ingest.name = "st-ingest";
    ingest.mode = ErwinMode::kSt;
    ingest.shards = 16;
    ingest.replication = 2;
    ingest.appenders = 24;
    ingest.rate = 300e3;
    ingest.record_bytes = 4096;
    ingest.tail_readers = 1;
    ingest.sample_tail = true;
    ingest.warmup_ns = 20 * kMs;
    ingest.window_ns = 100 * kMs;
    ingest.faults = {{FaultKind::kSeqFollower, 105 * kMs}};
    ingest.ladder_lo = 300e3;
    ingest.ladder_hi = 1400e3;
    v.push_back(ingest);

    // Reads beside writes on Erwin-m: tail readers pay the lazy-ordering cost, scanners
    // exercise routing, coalescing and readahead, stream readers the index tier. A
    // change that speeds appends by delaying ordering shows up in visible_* and read_*.
    WorkloadSpec mix;
    mix.name = "m-read-mix";
    mix.mode = ErwinMode::kM;
    mix.shards = 4;
    mix.replication = 3;
    mix.appenders = 8;
    mix.rate = 30e3;
    mix.record_bytes = 4096;
    mix.streams = 16;
    mix.tail_readers = 4;
    mix.scanners = 8;
    mix.stream_readers = 2;
    mix.warmup_ns = 50 * kMs;
    mix.window_ns = 150 * kMs;
    mix.faults = {{FaultKind::kSeqFollower, 155 * kMs}};
    mix.ladder_lo = 30e3;
    mix.ladder_hi = 400e3;
    v.push_back(mix);

    // Failover under load: a sequencing follower and shard 0's primary crash inside the
    // window, putting the controller, ZooKeeperLite, seal/promotion and the client retry
    // ladders on the measured path.
    WorkloadSpec failover;
    failover.name = "st-failover";
    failover.mode = ErwinMode::kSt;
    failover.shards = 4;
    failover.replication = 3;
    failover.appenders = 8;
    failover.rate = 50e3;
    failover.record_bytes = 1024;
    failover.tail_readers = 1;
    failover.warmup_ns = 20 * kMs;
    failover.window_ns = 300 * kMs;
    failover.faults = {{FaultKind::kSeqFollower, 50 * kMs},
                       {FaultKind::kShardPrimary, 150 * kMs}};
    failover.ladder_lo = 50e3;
    failover.ladder_hi = 1400e3;
    v.push_back(failover);
    return v;
  }();
  return specs;
}

constexpr uint64_t kTailIdleNs = 30 * kUs;     // tail reader re-poll when caught up
constexpr uint64_t kTailMaxBatch = 256;        // records per tail Read call
constexpr uint64_t kTailSampleNs = 100 * kUs;  // mean gap between tail samples
constexpr uint64_t kScanBatch = 16;            // records per scanner Read call
constexpr uint64_t kScanThinkNs = 500 * kUs;   // scanner pause between reads
constexpr uint32_t kReadNextMax = 64;          // records per ReadNext call
constexpr uint64_t kStreamIdleNs = 200 * kUs;  // ReadNext re-poll (index pull cadence)
constexpr uint64_t kFaultHorizonNs = 60 * kMs; // stall search span after a fault
constexpr uint64_t kSampleNs = 100 * kUs;      // traced-run gauge sampling period
constexpr uint64_t kDipWindowNs = 5 * kMs;     // fig17's dip_ms window
constexpr double kSloP99Us = 100;
// Appender rates are spread by up to +-1% (seeded; the total is unchanged). Exactly
// equal periods would lock the appenders' phases against the servers' periodic work
// for a whole run, making each seed's tail latency a property of its start phases.
constexpr double kRateSpread = 0.01;

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) {
    return a;
  }
  const double b = *std::min_element(v.begin() + lo + 1, v.end());
  return a + (b - a) * (idx - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// A client owned by the benchmark, with the mode-specific surface it reads.
struct BenchClient {
  std::unique_ptr<SharedLogClient> owner;
  ClientId id = 0;
  const lazylog::RpcStats* rpc = nullptr;
};

BenchClient MakeClient(ErwinCluster& cluster) {
  BenchClient c;
  if (cluster.mode() == ErwinMode::kM) {
    auto m = cluster.MakeMClient();
    c.id = m->client_id();
    c.rpc = &m->rpc_stats();
    c.owner = std::move(m);
  } else {
    auto s = cluster.MakeStClient();
    c.id = s->client_id();
    c.rpc = &s->rpc_stats();
    c.owner = std::move(s);
  }
  return c;
}

ErwinClusterOptions ClusterOptions(const WorkloadSpec& w, uint64_t seed, bool control_plane) {
  ErwinClusterOptions opt;
  opt.mode = w.mode;
  opt.num_shards = w.shards;
  opt.shard_replication = w.replication;
  opt.num_index_nodes = w.stream_readers > 0 ? 1 : 0;
  opt.with_control_plane = control_plane;
  opt.params.seed = seed;
  return opt;
}

std::vector<std::unique_ptr<Appender>> MakeAppenders(const WorkloadSpec& w, ErwinCluster& cluster,
                                                     std::vector<BenchClient>& clients,
                                                     double rate, uint64_t seed) {
  const lazylog::Buf payload = lazylog::Buf::FromString(std::string(w.record_bytes, 'x'));
  std::vector<std::unique_ptr<Appender>> out;
  lazylog::Rng rng(seed ^ 0x61707065ULL);
  std::vector<double> share(w.appenders);
  double total = 0;
  for (double& f : share) {
    f = 1 + kRateSpread * (2 * rng.NextDouble() - 1);
    total += f;
  }
  for (uint32_t i = 0; i < w.appenders; ++i) {
    clients.push_back(MakeClient(cluster));
    out.push_back(std::make_unique<Appender>(
        &cluster.loop(), clients.back().owner->log(), clients.back().id,
        rate * share[i] / total, payload, w.streams, i, seed * 1000003 + i));
  }
  return out;
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Counter snapshot taken at both edges of the measured window.
struct Counters {
  double cpu = 0;
  uint64_t allocs = 0;
  uint64_t events = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  lazylog::BufStats buf;
  uint64_t rpc_calls = 0;
  uint64_t rpc_timeouts = 0;
  lazylog::ReadPathStats read;
  uint64_t tail_rpcs = 0;
  lazylog::OrdererStats seq;
  uint64_t cursor_retries = 0;
  lazylog::ShardStats shard;
};

// Gauges sampled every kSampleNs of simulated time in traced passes.
struct Samples {
  std::vector<double> ring_occupancy;
  uint64_t watermark_lag_max = 0;
  std::vector<double> disk_queue_us;
  std::vector<uint64_t> disk_busy;  // per disk: samples with queued work
  uint64_t n = 0;
  uint64_t queued_events_max = 0;
  std::vector<double> frontier_lag;
};

// Monotone (time, frontier) steps of a growing log frontier.
struct Timeline {
  std::vector<std::pair<SimTime, LogPos>> steps;
  void Observe(SimTime at, LogPos gp) {
    if (steps.empty() || gp > steps.back().second) {
      steps.emplace_back(at, gp);
    }
  }
  // First time the frontier passed `pos`, or UINT64_MAX.
  SimTime Crossing(LogPos pos) const {
    auto it = std::upper_bound(
        steps.begin(), steps.end(), pos,
        [](LogPos p, const std::pair<SimTime, LogPos>& s) { return p < s.second; });
    return it == steps.end() ? UINT64_MAX : it->first;
  }
};

// Longest span in [from, from + horizon] with no delivery (times sorted).
double LongestStallMs(const std::vector<SimTime>& times, SimTime from, uint64_t horizon) {
  SimTime last = from;
  uint64_t worst = 0;
  auto it = std::upper_bound(times.begin(), times.end(), from);
  for (; it != times.end() && *it <= from + horizon; ++it) {
    worst = std::max<uint64_t>(worst, *it - last);
    last = *it;
  }
  worst = std::max<uint64_t>(worst, from + horizon - last);
  return static_cast<double>(worst) / 1e6;
}

// Simulated ms in [from, from + horizon) during which fewer than `threshold` acks fell
// in the trailing kDipWindowNs: fig17's dip_ms rule with a sliding instead of a
// tumbling window, so the result is not quantized to whole windows. `acks` is sorted.
double SlidingDipMs(const std::vector<SimTime>& acks, SimTime from, uint64_t horizon,
                    double threshold) {
  const uint64_t w = kDipWindowNs;
  size_t in = std::upper_bound(acks.begin(), acks.end(), from) - acks.begin();
  size_t out = from >= w ? std::upper_bound(acks.begin(), acks.end(), from - w) - acks.begin()
                         : 0;
  double count = static_cast<double>(in - out);  // acks in (t - w, t]
  const SimTime end = from + horizon;
  uint64_t below = 0;
  for (SimTime t = from; t < end;) {
    const SimTime next_in = in < acks.size() ? acks[in] : UINT64_MAX;
    const SimTime next_out = out < acks.size() ? acks[out] + w : UINT64_MAX;
    const SimTime next = std::min({next_in, next_out, end});
    if (count < threshold) {
      below += next - t;
    }
    t = next;
    for (; in < acks.size() && acks[in] == t; ++in) {
      count += 1;
    }
    for (; out < acks.size() && acks[out] + w == t; ++out) {
      count -= 1;
    }
  }
  return static_cast<double>(below) / 1e6;
}

}  // namespace

std::vector<Metric> SimMetrics(const std::vector<const SimSamples*>& passes) {
  std::vector<double> append_us, read_us, visible_us;
  uint64_t acks = 0;
  uint64_t records = 0;
  double ack_span_s = 0;
  double window_s = 0;
  double unavail_ms = 0;
  for (const SimSamples* p : passes) {
    append_us.insert(append_us.end(), p->append_us.begin(), p->append_us.end());
    read_us.insert(read_us.end(), p->read_us.begin(), p->read_us.end());
    visible_us.insert(visible_us.end(), p->visible_us.begin(), p->visible_us.end());
    acks += p->window_acks;
    records += p->window_records;
    ack_span_s += p->window_ack_span_s;
    window_s += p->window_s;
    unavail_ms += p->unavail_ms;
  }
  const double n = static_cast<double>(std::max<size_t>(passes.size(), 1));
  std::fprintf(stderr, "perfbench: pooled samples over %zu passes: append=%zu read=%zu "
               "visible=%zu\n", passes.size(), append_us.size(), read_us.size(),
               visible_us.size());
  return {
      {"append_p50_us", Percentile(append_us, 0.50), "us"},
      {"append_p99_us", Percentile(append_us, 0.99), "us"},
      {"read_p50_us", Percentile(read_us, 0.50), "us"},
      {"read_p99_us", Percentile(read_us, 0.99), "us"},
      {"visible_p50_us", Percentile(visible_us, 0.50), "us"},
      {"visible_p99_us", Percentile(visible_us, 0.99), "us"},
      {"append_kops", Ratio(static_cast<double>(acks), ack_span_s) / 1e3, "kops"},
      {"read_krecs", Ratio(static_cast<double>(records), window_s) / 1e3, "krecs"},
      {"unavail_ms", unavail_ms / n, "ms"},
  };
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

// Everything one pass builds, runs and measures. Members are declared so that the
// drivers (whose callbacks the event loop holds) are destroyed before the clients and
// the cluster.
class Pass {
 public:
  Pass(const WorkloadSpec& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), traced_(traced),
        cluster_(ClusterOptions(w, seed, /*control_plane=*/true)), loop_(cluster_.loop()),
        shard_stable_(w.shards) {}

  PassResult Run(bool check) {
    const double cpu_start = ProcessCpuSeconds();
    Build();
    StartLoad();
    w0_ = loop_.Now();
    w1_ = w0_ + w_.window_ns;
    PassResult res;
    res.setup_cpu_s = ProcessCpuSeconds() - cpu_start;
    const Counters c0 = Snapshot();
    RunTo(w1_);
    const Counters c1 = Snapshot();
    for (auto& s : scanners_) {
      s->Stop();
    }
    for (auto& s : streams_) {
      s->Stop();
    }
    if (!w_.faults.empty()) {
      RunTo(std::max(w1_, w0_ + w_.faults.back().at_ns + kFaultHorizonNs));
    }
    Drain();

    Measure(c0, c1, &res);
    CheckFaults(&res);
    CheckReplies(&res);
    if (check) {
      CheckReadBack(&res);
    }
    if (traced_) {
      res.layer = LayerMetrics(c0, c1, &res);
    }
    return res;
  }

 private:
  void Build() {
    clients_.reserve(w_.appenders + w_.tail_readers + w_.scanners + w_.stream_readers + 1);
    appenders_ = MakeAppenders(w_, cluster_, clients_, w_.rate, seed_);
    for (uint32_t i = 0; i < w_.tail_readers; ++i) {
      clients_.push_back(MakeClient(cluster_));
      SharedLogClient* c = clients_.back().owner.get();
      if (w_.sample_tail) {
        tails_.push_back(
            std::make_unique<TailSampler>(&loop_, c, kTailSampleNs, seed_ * 1000003 + 999 - i));
      } else {
        tails_.push_back(std::make_unique<TailReader>(&loop_, c, kTailIdleNs, kTailMaxBatch));
      }
    }
    for (uint32_t i = 0; i < w_.stream_readers; ++i) {
      clients_.push_back(MakeClient(cluster_));
      streams_.push_back(std::make_unique<StreamReader>(
          &loop_, clients_.back().owner->log(), static_cast<StreamTag>(1 + i), kReadNextMax,
          kStreamIdleNs));
    }
    first_scanner_client_ = clients_.size();
    for (uint32_t i = 0; i < w_.scanners; ++i) {
      clients_.push_back(MakeClient(cluster_));
    }
    if (traced_) {
      // Frontier timelines for the stage ledger. The observers only record.
      for (uint32_t i = 0; i < cluster_.num_seq_replicas(); ++i) {
        cluster_.seq_replica(i).SetGpObserver(
            [this](lazylog::ViewId, LogPos ordered, LogPos) {
              ordered_.Observe(loop_.Now(), ordered);
            });
      }
      for (uint32_t s = 0; s < w_.shards; ++s) {
        for (uint32_t r = 0; r < cluster_.shard_size(s); ++r) {
          cluster_.shard(s, r).SetStableGpObserver([this, s](lazylog::ViewId, LogPos gp) {
            shard_stable_[s].Observe(loop_.Now(), gp);
          });
        }
      }
    }
  }

  void StartLoad() {
    for (auto& a : appenders_) {
      a->Start();
    }
    for (auto& t : tails_) {
      t->Start();
    }
    for (auto& s : streams_) {
      s->Start();
    }
    cluster_.RunFor(w_.warmup_ns);
    // Scanners read the stable prefix built during warm-up.
    const LogPos prefix = cluster_.leader().StatsSnapshot().stable_gp;
    for (uint32_t i = 0; i < w_.scanners; ++i) {
      scanners_.push_back(std::make_unique<Scanner>(
          &loop_, clients_[first_scanner_client_ + i].owner->log(),
          std::max<LogPos>(prefix, 1), prefix * i / w_.scanners, kScanBatch, kScanThinkNs));
      scanners_.back()->Start();
    }
    // Server objects are captured now: a failover retires the deposed primary, but its
    // counters still belong to the window.
    leader_ = &cluster_.leader();
    for (uint32_t s = 0; s < cluster_.num_shards(); ++s) {
      for (uint32_t r = 0; r < cluster_.shard_size(s); ++r) {
        servers_.push_back(&cluster_.shard(s, r));
      }
    }
    samples_.disk_busy.assign(servers_.size(), 0);
  }

  // Runs the loop to `until`, injecting due faults and, in traced passes, sampling the
  // gauges. A chunked RunUntil is event-for-event identical to one call, so tracing
  // does not perturb the simulation.
  void RunTo(SimTime until) {
    while (loop_.Now() < until) {
      SimTime stop = until;
      const bool fault_due = next_fault_ < w_.faults.size();
      if (fault_due) {
        stop = std::min(stop, w0_ + w_.faults[next_fault_].at_ns);
      }
      if (traced_ && loop_.Now() < w1_) {
        stop = std::min(stop, loop_.Now() + kSampleNs);
      }
      loop_.RunUntil(stop);
      if (traced_ && loop_.Now() <= w1_) {
        Sample();
      }
      if (fault_due && loop_.Now() == w0_ + w_.faults[next_fault_].at_ns) {
        fault_at_.push_back(loop_.Now());
        if (w_.faults[next_fault_].kind == FaultKind::kSeqFollower) {
          cluster_.CrashSeqReplica(cluster_.num_seq_replicas() - 1);
        } else {
          cluster_.CrashShardPrimary(0);
        }
        next_fault_++;
      }
    }
  }

  // Stops offering load and lets every append resolve and the tail readers catch up.
  void Drain() {
    for (auto& a : appenders_) {
      a->Stop();
    }
    auto unresolved = [&]() {
      uint64_t n = 0;
      for (const auto& a : appenders_) {
        n += std::count(a->state.begin(), a->state.end(), AppendState::kPending);
      }
      return n;
    };
    for (int i = 0; i < 100 && unresolved() > 0; ++i) {
      cluster_.RunFor(5 * kMs);
    }
    cluster_.RunFor(30 * kMs);
    for (auto& t : tails_) {
      t->Stop();
    }
  }

  Counters Snapshot() {
    Counters c;
    c.cpu = ProcessCpuSeconds();
    c.allocs = HostAllocs();
    c.events = loop_.events_run();
    c.net_msgs = cluster_.network().messages_sent();
    c.net_bytes = cluster_.network().bytes_sent();
    c.buf = lazylog::GlobalBufStats();
    for (const BenchClient& bc : clients_) {
      c.rpc_calls += bc.rpc->calls_issued;
      c.rpc_timeouts += bc.rpc->timeouts;
      const lazylog::ReadPathStats r = bc.owner->ReadPathSnapshot().counters;
      c.read.routed_reads += r.routed_reads;
      c.read.backup_routed += r.backup_routed;
      c.read.coalesced_batches += r.coalesced_batches;
      c.read.coalesced_subs += r.coalesced_subs;
      c.read.tail_cache_hits += r.tail_cache_hits;
      c.read.readahead_hits += r.readahead_hits;
      c.read.readahead_fetched += r.readahead_fetched;
    }
    for (const auto& t : tails_) {
      c.tail_rpcs += t->tail_rpcs;
    }
    const lazylog::OrdererStatsSnapshot seq = leader_->StatsSnapshot();
    c.seq = seq.counters;
    for (const auto& ps : seq.shards) {
      c.cursor_retries += ps.retries;
    }
    for (const lazylog::ShardServer* sv : servers_) {
      const lazylog::ShardStats& st = sv->stats();
      c.shard.fast_reads += st.fast_reads;
      c.shard.slow_reads += st.slow_reads;
      c.shard.noops_created += st.noops_created;
      c.shard.windows_applied += st.windows_applied;
      c.shard.windows_parked += st.windows_parked;
    }
    return c;
  }

  void Sample() {
    const lazylog::OrdererStatsSnapshot seq = leader_->StatsSnapshot();
    samples_.ring_occupancy.push_back(static_cast<double>(seq.ring_occupancy));
    for (const auto& ps : seq.shards) {
      samples_.watermark_lag_max = std::max<uint64_t>(samples_.watermark_lag_max, ps.watermark_lag);
    }
    for (size_t i = 0; i < servers_.size(); ++i) {
      const uint64_t q = servers_[i]->disk().QueueDepthNs();
      samples_.disk_queue_us.push_back(static_cast<double>(q) / 1e3);
      samples_.disk_busy[i] += q > 0 ? 1 : 0;
    }
    samples_.queued_events_max = std::max<uint64_t>(samples_.queued_events_max,
                                                    loop_.QueuedEvents());
    if (cluster_.num_index_nodes() > 0) {
      samples_.frontier_lag.push_back(
          static_cast<double>(cluster_.index_node(0).StatsSnapshot().lag_vs_stable_gp));
    }
    samples_.n++;
  }

  // The appender behind a record id, or nullptr if the id is not from this workload.
  const Appender* AppenderOf(const RecordId& id) const {
    for (const auto& a : appenders_) {
      if (a->client_id() == id.client_id) {
        return id.request_id >= 1 && id.request_id <= a->sched.size() ? a.get() : nullptr;
      }
    }
    return nullptr;
  }

  bool InWindow(SimTime t) const { return t >= w0_ && t < w1_; }

  // Simulated samples, host numbers, the digest and the op counts.
  void Measure(const Counters& c0, const Counters& c1, PassResult* res) {
    SimSamples& sim = res->sim;
    uint64_t digest = 0xcbf29ce484222325ULL;
    uint64_t acked_in_window = 0;
    SimTime last_window_ack = w0_;
    for (const auto& a : appenders_) {
      res->attempted += a->sched.size();
      for (size_t k = 0; k < a->sched.size(); ++k) {
        digest = Fnv(Fnv(digest, a->acked[k]), static_cast<uint64_t>(a->state[k]));
        if (a->state[k] != AppendState::kAcked) {
          res->failed++;
          continue;
        }
        ack_times_.push_back(a->acked[k]);
        acked_in_window += InWindow(a->acked[k]) ? 1 : 0;
        if (InWindow(a->sched[k])) {
          sim.append_us.push_back(static_cast<double>(a->acked[k] - a->sched[k]) / 1e3);
          sim.window_acks++;
          last_window_ack = std::max(last_window_ack, a->acked[k]);
        }
      }
    }
    std::sort(ack_times_.begin(), ack_times_.end());

    uint64_t reads_done_in_window = 0;
    auto add_calls = [&](const std::vector<ReadCall>& calls, uint64_t failed_reads,
                         std::vector<double>* extra) {
      res->attempted += calls.size() + failed_reads;
      res->failed += failed_reads;
      for (const ReadCall& c : calls) {
        digest = Fnv(Fnv(digest, c.issued), c.done);
        if (InWindow(c.issued)) {
          sim.read_us.push_back(static_cast<double>(c.done - c.issued) / 1e3);
          if (extra != nullptr) {
            extra->push_back(sim.read_us.back());
          }
        }
        reads_done_in_window += InWindow(c.done) ? 1 : 0;
      }
    };
    auto add_records = [&](const std::vector<Delivery>& got) {
      for (const Delivery& d : got) {
        digest = Fnv(Fnv(digest, d.pos), d.at);
        sim.window_records += InWindow(d.at) ? 1 : 0;
      }
    };
    for (const auto& t : tails_) {
      add_calls(t->calls, t->failed_reads, nullptr);
      add_records(t->got);
      for (const Delivery& d : t->got) {
        tail_delivery_times_.push_back(d.at);
        const Appender* app = d.no_op ? nullptr : AppenderOf(d.id);
        if (app != nullptr && InWindow(app->sched[d.id.request_id - 1])) {
          sim.visible_us.push_back(
              static_cast<double>(d.at - app->sched[d.id.request_id - 1]) / 1e3);
        }
      }
    }
    std::sort(tail_delivery_times_.begin(), tail_delivery_times_.end());
    for (const auto& s : scanners_) {
      add_calls(s->calls, s->failed_reads, nullptr);
      add_records(s->got);
    }
    for (const auto& s : streams_) {
      add_calls(s->calls, s->failed_reads, &readnext_us_);
      for (size_t i = 0; i < s->windows.size(); ++i) {
        add_records(s->windows[i].records);
        if (InWindow(s->calls[i].issued)) {
          stream_calls_++;
          stream_empty_ += s->windows[i].next_from == s->windows[i].from ? 1 : 0;
        }
      }
    }

    // fig17's dip rule compares against the ack rate before the first fault.
    const SimTime base_end = fault_at_.empty() ? w1_ : std::min(w1_, fault_at_.front());
    const auto lo = std::lower_bound(ack_times_.begin(), ack_times_.end(), w0_);
    const auto hi = std::lower_bound(ack_times_.begin(), ack_times_.end(), base_end);
    base_per_window_ = static_cast<double>(hi - lo) * static_cast<double>(kDipWindowNs) /
                       static_cast<double>(std::max<SimTime>(base_end - w0_, 1));
    for (SimTime f : fault_at_) {
      sim.unavail_ms += SlidingDipMs(ack_times_, f, kFaultHorizonNs, 0.5 * base_per_window_);
    }
    sim.window_ack_span_s = static_cast<double>(last_window_ack - w0_) / 1e9;
    sim.window_s = static_cast<double>(w_.window_ns) / 1e9;

    ops_ = acked_in_window + reads_done_in_window;
    res->host_us_per_op = Ratio((c1.cpu - c0.cpu) * 1e6, static_cast<double>(ops_));
    res->host_allocs_per_op =
        Ratio(static_cast<double>(c1.allocs - c0.allocs), static_cast<double>(ops_));
    res->digest = digest;
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu samples: append=%zu read=%zu visible=%zu ops=%llu\n",
                 w_.name.c_str(), static_cast<unsigned long long>(seed_), sim.append_us.size(),
                 sim.read_us.size(), sim.visible_us.size(),
                 static_cast<unsigned long long>(ops_));
  }

  // Every fault's reconfiguration or promotion must complete; their timings feed the
  // control-plane layer metrics.
  void CheckFaults(PassResult* res) {
    for (size_t i = 0; i < fault_at_.size(); ++i) {
      const SimTime f = fault_at_[i];
      SimTime detected = 0;
      SimTime sealed = 0;
      SimTime opened = 0;
      bool complete = false;
      if (w_.faults[i].kind == FaultKind::kSeqFollower) {
        const lazylog::ReconfigTiming& t = cluster_.controller()->last_timing();
        complete = t.complete;
        detected = t.detected_at;
        sealed = t.sealed_at;
        opened = t.new_view_at;
      } else {
        const lazylog::ShardFailoverTiming& t = cluster_.controller()->last_failover_timing();
        complete = t.complete;
        detected = t.detected_at;
        sealed = t.sealed_at;
        opened = t.opened_at;
      }
      if (!complete || detected < f) {
        res->violations.push_back("failover: the reconfiguration after fault " +
                                  std::to_string(i) + " did not complete");
        continue;
      }
      detect_ms_ += static_cast<double>(detected - f) / 1e6;
      seal_to_open_ms_ += static_cast<double>(opened - sealed) / 1e6;
    }
  }

  void CheckReplies(PassResult* res) const {
    for (const auto& t : tails_) {
      if (t->order_violations > 0) {
        res->violations.push_back("tail-order: a tail reader got " +
                                  std::to_string(t->order_violations) +
                                  " replies that were not its requested positions in order");
      }
    }
    for (const auto& s : scanners_) {
      if (s->range_violations > 0) {
        res->violations.push_back("read-range: a scanner got " +
                                  std::to_string(s->range_violations) +
                                  " replies that were not its requested positions in order");
      }
    }
  }

  // Reads the whole log [0, tail) back once stable has caught up with durable, and
  // runs the output checks against it.
  void CheckReadBack(PassResult* res) {
    BenchClient reader = MakeClient(cluster_);
    LogPos durable = 0;
    LogPos stable = 0;
    for (int i = 0; i < 100; ++i) {
      bool done = false;
      reader.owner->log().CheckTail([&](Status s, LogPos d, LogPos st) {
        durable = s.ok() ? d : 0;
        stable = s.ok() ? st : 0;
        done = true;
      });
      while (!done) {
        cluster_.RunFor(1 * kMs);
      }
      if (stable == durable && durable > 0) {
        break;
      }
      cluster_.RunFor(5 * kMs);
    }
    if (stable != durable) {
      res->violations.push_back("read-back: stable tail " + std::to_string(stable) +
                                " never reached durable tail " + std::to_string(durable));
    }
    std::vector<FinalRecord> final_log;
    bool read_ok = true;
    for (LogPos from = 0; from < stable && read_ok;) {
      const uint64_t n = std::min<uint64_t>(256, stable - from);
      bool done = false;
      reader.owner->log().Read(from, n, [&](Status s, std::vector<PositionedRecord> recs) {
        read_ok = s.ok() && recs.size() == n;
        for (const PositionedRecord& pr : recs) {
          final_log.push_back({pr.pos, pr.record.id, pr.record.no_op, pr.record.tag});
        }
        done = true;
      });
      while (!done) {
        cluster_.RunFor(1 * kMs);
      }
      from += n;
    }
    if (!read_ok) {
      res->violations.push_back("read-back: reading [0, " + std::to_string(stable) +
                                ") failed or came back short");
    }
    Observed obs;
    for (const auto& a : appenders_) {
      obs.appenders.push_back(a.get());
    }
    for (const auto& t : tails_) {
      obs.deliveries.push_back(&t->got);
    }
    for (const auto& s : scanners_) {
      obs.deliveries.push_back(&s->got);
    }
    for (const auto& s : streams_) {
      obs.windows.push_back(&s->windows);
    }
    for (std::string& v : CheckOutputs(final_log, obs)) {
      res->violations.push_back(std::move(v));
    }
  }

  std::vector<Metric> LayerMetrics(const Counters& c0, const Counters& c1, PassResult* res) {
    const double ops = static_cast<double>(ops_);
    auto per_op = [&](uint64_t a, uint64_t b) { return Ratio(static_cast<double>(b - a), ops); };
    auto share = [](uint64_t part_a, uint64_t part_b, uint64_t all_a, uint64_t all_b) {
      return Ratio(static_cast<double>(part_b - part_a), static_cast<double>(all_b - all_a));
    };

    // Stage ledger over every (record, tail reader) delivery of an append sent in the
    // window. Boundaries are clamped into [previous boundary, delivery], so the four
    // stages sum exactly to each sample's visible latency.
    auto owner_of = [&](LogPos pos) -> int {
      for (uint32_t s = 0; s < cluster_.num_shards(); ++s) {
        for (uint32_t r = 0; r < cluster_.shard_size(s); ++r) {
          if (cluster_.shard(s, r).RecordAt(pos) != nullptr) {
            return static_cast<int>(s);
          }
        }
      }
      return -1;
    };
    std::vector<double> st_append, st_order, st_stable, st_gate, st_visible;
    uint64_t unresolved = 0;
    for (const auto& t : tails_) {
      for (const Delivery& d : t->got) {
        const Appender* app = d.no_op ? nullptr : AppenderOf(d.id);
        const uint64_t k = d.id.request_id - 1;
        if (app == nullptr || !InWindow(app->sched[k]) ||
            app->state[k] != AppendState::kAcked) {
          continue;
        }
        const SimTime sent = app->sched[k];
        const SimTime ord = ordered_.Crossing(d.pos);
        const int shard = owner_of(d.pos);
        const SimTime stab = shard >= 0 ? shard_stable_[shard].Crossing(d.pos) : UINT64_MAX;
        unresolved += (ord == UINT64_MAX) + (stab == UINT64_MAX);
        auto clamp = [&](SimTime x, SimTime lo) { return std::min(std::max(x, lo), d.at); };
        const SimTime b1 = clamp(app->acked[k], sent);
        const SimTime b2 = clamp(ord, b1);
        const SimTime b3 = clamp(stab, b2);
        st_append.push_back(static_cast<double>(b1 - sent) / 1e3);
        st_order.push_back(static_cast<double>(b2 - b1) / 1e3);
        st_stable.push_back(static_cast<double>(b3 - b2) / 1e3);
        st_gate.push_back(static_cast<double>(d.at - b3) / 1e3);
        st_visible.push_back(static_cast<double>(d.at - sent) / 1e3);
      }
    }
    const double visible_mean = Mean(st_visible);
    const double gap =
        std::abs(Mean(st_append) + Mean(st_order) + Mean(st_stable) + Mean(st_gate) -
                 visible_mean);
    if (gap > 1e-6 * std::max(1.0, visible_mean)) {
      res->violations.push_back("stage-ledger: stage means do not sum to the visible mean");
    }
    if (unresolved > 0) {
      std::fprintf(stderr, "perfbench: %llu stage boundaries never crossed (clamped)\n",
                   static_cast<unsigned long long>(unresolved));
    }

    double dip_ms = 0;
    double reader_stall_ms = 0;
    for (SimTime f : fault_at_) {
      for (SimTime t = f; t < f + kFaultHorizonNs; t += kDipWindowNs) {
        const auto lo = std::lower_bound(ack_times_.begin(), ack_times_.end(), t);
        const auto hi = std::lower_bound(ack_times_.begin(), ack_times_.end(), t + kDipWindowNs);
        if (static_cast<double>(hi - lo) < 0.5 * base_per_window_) {
          dip_ms += static_cast<double>(kDipWindowNs) / 1e6;
        }
      }
      reader_stall_ms += LongestStallMs(tail_delivery_times_, f, kFaultHorizonNs);
    }
    uint64_t busiest_disk = 0;
    for (uint64_t b : samples_.disk_busy) {
      busiest_disk = std::max(busiest_disk, b);
    }
    const lazylog::ControllerStatsSnapshot ctrl = cluster_.controller()->StatsSnapshot();
    return {
        {"lazylog.rpc_calls_per_op", per_op(c0.rpc_calls, c1.rpc_calls), "calls/op"},
        {"lazylog.rpc_timeouts_per_op", per_op(c0.rpc_timeouts, c1.rpc_timeouts), "1/op"},
        {"lazylog.backup_read_share",
         share(c0.read.backup_routed, c1.read.backup_routed, c0.read.routed_reads,
               c1.read.routed_reads),
         "ratio"},
        {"lazylog.coalesce_ratio",
         share(c0.read.coalesced_subs, c1.read.coalesced_subs, c0.read.coalesced_batches,
               c1.read.coalesced_batches),
         "subs/batch"},
        {"lazylog.readahead_useful_ratio",
         share(c0.read.readahead_hits, c1.read.readahead_hits, c0.read.readahead_fetched,
               c1.read.readahead_fetched),
         "ratio"},
        {"lazylog.tail_cache_hit_ratio",
         share(c0.read.tail_cache_hits, c1.read.tail_cache_hits,
               c0.read.tail_cache_hits + c0.tail_rpcs, c1.read.tail_cache_hits + c1.tail_rpcs),
         "ratio"},
        {"lazylog.reader_stall_ms", reader_stall_ms, "ms"},
        {"seq.batch_avg",
         share(c0.seq.batch_entries, c1.seq.batch_entries, c0.seq.batches, c1.seq.batches),
         "records"},
        {"seq.ring_occupancy_p99", Percentile(samples_.ring_occupancy, 0.99), "entries"},
        {"seq.shed_per_op", per_op(c0.seq.overload_rejected, c1.seq.overload_rejected),
         "1/op"},
        {"seq.watermark_lag_max", static_cast<double>(samples_.watermark_lag_max),
         "positions"},
        {"seq.dup_filtered_per_op",
         per_op(c0.seq.duplicates_filtered, c1.seq.duplicates_filtered), "1/op"},
        {"seq.cursor_retries", static_cast<double>(c1.cursor_retries - c0.cursor_retries),
         "count"},
        {"storage.slow_read_share",
         share(c0.shard.slow_reads, c1.shard.slow_reads,
               c0.shard.slow_reads + c0.shard.fast_reads,
               c1.shard.slow_reads + c1.shard.fast_reads),
         "ratio"},
        {"storage.disk_busy_max",
         Ratio(static_cast<double>(busiest_disk), static_cast<double>(samples_.n)), "ratio"},
        {"storage.disk_queue_p99_us", Percentile(samples_.disk_queue_us, 0.99), "us"},
        {"storage.parked_window_share",
         share(c0.shard.windows_parked, c1.shard.windows_parked, c0.shard.windows_applied,
               c1.shard.windows_applied),
         "ratio"},
        {"storage.noops_per_op", per_op(c0.shard.noops_created, c1.shard.noops_created),
         "1/op"},
        {"index.readnext_p50_us", Percentile(readnext_us_, 0.50), "us"},
        {"index.readnext_p99_us", Percentile(readnext_us_, 0.99), "us"},
        {"index.empty_poll_share",
         Ratio(static_cast<double>(stream_empty_), static_cast<double>(stream_calls_)),
         "ratio"},
        {"index.frontier_lag", Mean(samples_.frontier_lag), "positions"},
        {"control.detect_ms", detect_ms_, "ms"},
        {"control.seal_to_open_ms", seal_to_open_ms_, "ms"},
        {"control.reconfigurations", static_cast<double>(ctrl.reconfigurations), "count"},
        {"control.promotions", static_cast<double>(ctrl.promotions), "count"},
        {"control.dip_ms_fig17", dip_ms, "ms"},
        {"sim.events_per_op", per_op(c0.events, c1.events), "events/op"},
        {"sim.queued_events_max", static_cast<double>(samples_.queued_events_max), "events"},
        {"sim.net_msgs_per_op", per_op(c0.net_msgs, c1.net_msgs), "msgs/op"},
        {"sim.net_bytes_per_op", per_op(c0.net_bytes, c1.net_bytes), "B/op"},
        {"common.buf_allocs_per_op", per_op(c0.buf.allocations, c1.buf.allocations),
         "allocs/op"},
        {"common.copied_bytes_per_op",
         per_op(c0.buf.payload_bytes_copied, c1.buf.payload_bytes_copied), "B/op"},
        {"stage.append_us.mean", Mean(st_append), "us"},
        {"stage.append_us.p99", Percentile(st_append, 0.99), "us"},
        {"stage.order_wait_us.mean", Mean(st_order), "us"},
        {"stage.order_wait_us.p99", Percentile(st_order, 0.99), "us"},
        {"stage.stable_bcast_us.mean", Mean(st_stable), "us"},
        {"stage.stable_bcast_us.p99", Percentile(st_stable, 0.99), "us"},
        {"stage.read_gate_us.mean", Mean(st_gate), "us"},
        {"stage.read_gate_us.p99", Percentile(st_gate, 0.99), "us"},
        {"stage.visible_us.mean", visible_mean, "us"},
        {"stage.telescope_gap_us", gap, "us"},
    };
  }

  const WorkloadSpec& w_;
  const uint64_t seed_;
  const bool traced_;
  ErwinCluster cluster_;
  EventLoop& loop_;
  std::vector<BenchClient> clients_;
  size_t first_scanner_client_ = 0;
  std::vector<std::unique_ptr<Appender>> appenders_;
  std::vector<std::unique_ptr<TailObserver>> tails_;
  std::vector<std::unique_ptr<StreamReader>> streams_;
  std::vector<std::unique_ptr<Scanner>> scanners_;
  lazylog::SequencingReplica* leader_ = nullptr;
  std::vector<lazylog::ShardServer*> servers_;
  Timeline ordered_;
  std::vector<Timeline> shard_stable_;
  Samples samples_;
  SimTime w0_ = 0;
  SimTime w1_ = 0;
  size_t next_fault_ = 0;
  std::vector<SimTime> fault_at_;
  // Filled by Measure() and CheckFaults() for the layer metrics.
  uint64_t ops_ = 0;
  std::vector<SimTime> ack_times_;
  std::vector<SimTime> tail_delivery_times_;
  double base_per_window_ = 0;  // acks per dip window before the first fault
  std::vector<double> readnext_us_;
  uint64_t stream_calls_ = 0;
  uint64_t stream_empty_ = 0;
  double detect_ms_ = 0;
  double seal_to_open_ms_ = 0;
};

}  // namespace

PassResult RunPass(const WorkloadSpec& w, uint64_t seed, bool traced, bool check) {
  return Pass(w, seed, traced).Run(check);
}

double SloRateKops(const WorkloadSpec& w, uint64_t seed) {
  // A rung's score is its worst SLO condition as a fraction of that condition's limit,
  // so the rung passes iff score <= 1 and the crossing can be interpolated whichever
  // condition fails first.
  auto score_at = [&](double rate) {
    constexpr uint64_t kWarm = 5 * kMs;
    constexpr uint64_t kWindow = 15 * kMs;
    ErwinCluster cluster(ClusterOptions(w, seed, /*control_plane=*/false));
    std::vector<BenchClient> clients;
    auto appenders = MakeAppenders(w, cluster, clients, rate, seed);
    for (auto& a : appenders) {
      a->Start();
    }
    auto outstanding = [&]() {
      uint64_t n = 0;
      for (const auto& a : appenders) {
        n += std::count(a->state.begin(), a->state.end(), AppendState::kPending);
      }
      return n;
    };
    cluster.RunFor(kWarm + kWindow / 2);
    const uint64_t out_mid = outstanding();
    cluster.RunFor(kWindow / 2);
    const uint64_t out_end = outstanding();
    for (auto& a : appenders) {
      a->Stop();
    }
    cluster.RunFor(20 * kMs);
    std::vector<double> lat;
    uint64_t offered = 0;
    for (const auto& a : appenders) {
      for (size_t k = 0; k < a->sched.size(); ++k) {
        if (a->sched[k] < kWarm || a->sched[k] >= kWarm + kWindow) {
          continue;
        }
        offered++;
        if (a->state[k] == AppendState::kAcked) {
          lat.push_back(static_cast<double>(a->acked[k] - a->sched[k]) / 1e3);
        }
      }
    }
    const double p99 = Percentile(lat, 0.99);
    const double unacked = 1 - Ratio(static_cast<double>(lat.size()), static_cast<double>(offered));
    // Backlog growth over the second half of the window, against 100 us of arrivals.
    const double growth = (static_cast<double>(out_end) - static_cast<double>(out_mid)) /
                          (rate * 100e-6);
    const double score = std::max({p99 / kSloP99Us, unacked / 0.01, growth});
    std::fprintf(stderr, "perfbench: slo rung %.0f/s p99=%.1fus acked=%zu/%llu score=%.3f\n",
                 rate, p99, lat.size(), static_cast<unsigned long long>(offered), score);
    return score;
  };

  double lo = w.ladder_lo;
  double hi = w.ladder_hi;
  double s_lo = score_at(lo);
  if (s_lo > 1) {
    return 0;
  }
  double s_hi = score_at(hi);
  if (s_hi <= 1) {
    return hi / 1e3;
  }
  constexpr int kBisections = 5;
  for (int i = 0; i < kBisections; ++i) {
    const double mid = (lo + hi) / 2;
    const double s = score_at(mid);
    (s <= 1 ? lo : hi) = mid;
    (s <= 1 ? s_lo : s_hi) = s;
  }
  const double f = (1 - s_lo) / (s_hi - s_lo);
  return (lo + (hi - lo) * std::clamp(f, 0.0, 1.0)) / 1e3;
}

}  // namespace perfbench
