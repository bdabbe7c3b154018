// Figure 14: reads in Erwin-st at a high matched rate (~200K ops/s, 10 shards),
// reading 25 records at a time, with lag 1s / lag 3ms / no lag. No read takes the shard's
// slow path. The no-lag reader asks for each batch as soon as its 25 appends are acked,
// so its mean is the time one batch takes to arrive at the append rate (125 us at
// 200K/s), not read-path cost. A second table repeats the single-record no-lag read
// with and without the client's position-map cache (§6.7: with caching, Erwin-st read
// latency matches Erwin-m).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/lazylog/erwin_cluster.h"

namespace lazylog {
namespace {

constexpr uint64_t kWarmup = 100 * kMs;
constexpr uint64_t kRun = 500 * kMs;
constexpr size_t kRecordBytes = 4096;

struct StReadResult {
  Histogram read;
  uint64_t slow_reads = 0;
};

StReadResult Run(uint64_t lag_ns, uint64_t batch, bool cache_enabled, double rate) {
  ErwinClusterOptions opt;
  opt.mode = ErwinMode::kSt;
  opt.num_shards = 10;
  opt.shard_replication = 2;
  opt.with_control_plane = false;
  ErwinCluster cluster(opt);
  std::vector<std::unique_ptr<SharedLogClient>> clients;
  for (size_t i = 0; i < 16; ++i) {
    clients.push_back(cluster.MakeStClient());
  }
  AppenderFleet fleet(&cluster.loop(), std::move(clients), rate, kRecordBytes, kWarmup);
  auto reader_client = cluster.MakeStClient();
  reader_client->SetPosMapCacheEnabled(cache_enabled);
  SequentialReader::Options ropt;
  ropt.batch = batch;
  ropt.lag_ns = lag_ns;
  ropt.warmup_ns = kWarmup;
  SequentialReader reader(&cluster.loop(), reader_client->log(), ropt);
  uint64_t acked = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    fleet.appender(i).OnAck([&](uint64_t, SimTime t) { reader.NotifyAcked(acked++, t); });
  }
  reader.Start();
  fleet.Start();
  // The run must outlast the warmup plus the read lag, or the reader never samples.
  cluster.RunFor(kRun + lag_ns);
  fleet.Stop();
  reader.Stop();
  StReadResult res;
  res.read = reader.latency();
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    for (uint32_t r = 0; r < 2; ++r) {
      res.slow_reads += cluster.shard(s, r).StatsSnapshot().counters.slow_reads;
    }
  }
  return res;
}

}  // namespace
}  // namespace lazylog

int main() {
  using namespace lazylog;
  PrintHeader("Figure 14: Erwin-st reads at ~200K ops/s, 25 records per read");
  struct Case {
    const char* label;
    uint64_t lag;
  };
  for (const Case& c :
       {Case{"lag 1s", kSec}, Case{"lag 3ms", 3 * kMs}, Case{"no lag", 0}}) {
    StReadResult r = Run(c.lag, /*batch=*/25, /*cache=*/true, 200'000);
    std::printf("  %-10s read mean=%-10s p99=%-10s (slow-path shard reads: %llu)\n", c.label,
                FormatNanos(r.read.Mean()).c_str(),
                FormatNanos(r.read.Percentile(0.99)).c_str(),
                static_cast<unsigned long long>(r.slow_reads));
  }
  PrintPaperNote("lag-1s takes no slow paths; no-lag is only slightly worse (Fig 14).");

  std::printf("\n-- position-map cache ablation (single-record reads, no lag, §5.3/§6.7) --\n");
  for (bool cache : {true, false}) {
    StReadResult r = Run(0, 1, cache, 100'000);
    std::printf("  cache %-4s read mean=%-10s p99=%-10s\n", cache ? "on" : "off",
                FormatNanos(r.read.Mean()).c_str(),
                FormatNanos(r.read.Percentile(0.99)).c_str());
  }
  PrintPaperNote("With the cached position map, Erwin-st single-record reads match Erwin-m;");
  PrintPaperNote("without it every read pays an extra mapping roundtrip.");
  return 0;
}
