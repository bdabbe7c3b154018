// The repo benchmark: runs one workload on a simulated Erwin cluster, checks its
// outputs, and prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <st-ingest|m-read-mix|st-failover> --seed <n> --seconds <s>
//             --trace <0|1>
//
// Simulated metrics are a pure function of (workload, seed): they pool the first four
// passes, each a fresh cluster on a sub-seed derived from --seed. Passes then repeat
// those sub-seeds for `--seconds` of wall time; each repeat must reproduce its
// sub-seed's simulation, and the host metrics are medians over all passes.
// --trace 1 follows every repeat with a traced pass of sub-seed 0 and prints the
// per-layer metrics instead, plus the tracing overhead.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/host.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

constexpr size_t kPooled = 4;      // sub-seeds pooled into the simulated metrics
constexpr size_t kMinRepeats = 3;  // repeats after the pooled passes, at least
// CalibrationSeconds() on an idle machine of the kind the benchmark was tuned on (a
// 4-core x86 container). It only sets the scale of the machine-speed correction.
constexpr double kReferenceCalibrationS = 0.034;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

bool SameSim(const PassResult& a, const PassResult& b) {
  return a.digest == b.digest && a.sim.append_us == b.sim.append_us &&
         a.sim.read_us == b.sim.read_us && a.sim.visible_us == b.sim.visible_us &&
         a.sim.unavail_ms == b.sim.unavail_ms && a.sim.window_records == b.sim.window_records;
}

// Host numbers of one pass, corrected for how fast the machine ran at the time: the
// reference kernel is timed right before and after the pass, and the pass's CPU time
// is scaled by kReferenceCalibrationS / (their mean). A machine-wide slowdown (other
// tenants, frequency changes) stretches both and cancels; a change to the simulator
// moves only the pass.
struct HostSample {
  double us_per_op = 0;
  double setup_s = 0;
  double raw_us_per_op = 0;
  double allocs_per_op = 0;
};

std::vector<double> Column(const std::vector<HostSample>& v, double HostSample::*field) {
  std::vector<double> out;
  for (const HostSample& h : v) {
    out.push_back(h.*field);
  }
  return out;
}

void PrintList(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %s:", what);
  for (double x : v) {
    std::fprintf(stderr, " %.3g", x);
  }
  std::fprintf(stderr, "\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <st-ingest|m-read-mix|st-failover> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || argc % 2 == 0) {
    return Usage();
  }

  std::vector<std::string> violations;
  std::vector<HostSample> untraced_host;
  std::vector<HostSample> traced_host;
  auto run = [&](uint64_t sub_seed, bool traced, bool check) {
    const double before = CalibrationSeconds();
    PassResult p = RunPass(*spec, sub_seed, traced, check);
    const double scale = 2 * kReferenceCalibrationS / (before + CalibrationSeconds());
    (traced ? traced_host : untraced_host)
        .push_back({p.host_us_per_op * scale, p.setup_cpu_s * scale, p.host_us_per_op,
                    p.host_allocs_per_op});
    violations.insert(violations.end(), p.violations.begin(), p.violations.end());
    p.violations.clear();
    return p;
  };

  // Pass j simulates sub-seed seed * kPooled + j: the simulated metrics pool these
  // kPooled independent clusters, each read back and checked.
  std::vector<PassResult> pooled;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (size_t j = 0; j < kPooled; ++j) {
    pooled.push_back(run(seed * kPooled + j, /*traced=*/false, /*check=*/true));
    attempted += pooled.back().attempted;
    failed += pooled.back().failed;
  }
  double slo_kops = 0;
  std::vector<Metric> layer;
  if (trace) {
    PassResult p = run(seed * kPooled, /*traced=*/true, /*check=*/false);
    if (!SameSim(p, pooled[0])) {
      violations.push_back("tracing: observers changed the simulation");
    }
    layer = std::move(p.layer);
  } else {
    slo_kops = SloRateKops(*spec, seed * kPooled);
  }

  // Repeats cycle through the pooled sub-seeds for the host medians; each must
  // reproduce its sub-seed's simulation. Only their host numbers are kept.
  const double measure_start = WallSeconds();
  for (size_t i = 0; WallSeconds() - measure_start < seconds || i < kMinRepeats; ++i) {
    const size_t j = i % kPooled;
    if (!SameSim(run(seed * kPooled + j, /*traced=*/false, /*check=*/false), pooled[j])) {
      violations.push_back("determinism: a repeat at the same seed changed the simulation");
    }
    if (trace && !SameSim(run(seed * kPooled, /*traced=*/true, /*check=*/false), pooled[0])) {
      violations.push_back("tracing: observers changed the simulation");
    }
  }
  std::sort(violations.begin(), violations.end());
  violations.erase(std::unique(violations.begin(), violations.end()), violations.end());

  const double us_per_op = Median(Column(untraced_host, &HostSample::us_per_op));
  std::vector<Metric> metrics;
  if (!trace) {
    std::vector<const SimSamples*> samples;
    for (const PassResult& p : pooled) {
      samples.push_back(&p.sim);
    }
    metrics = SimMetrics(samples);
    metrics.push_back({"slo_rate_kops", slo_kops, "kops"});
    metrics.push_back({"host_us_per_op", us_per_op, "us"});
    // The allocation count is exact, so it is averaged over the pooled passes only and
    // repeats at a fixed seed.
    double allocs = 0;
    for (size_t j = 0; j < kPooled; ++j) {
      allocs += untraced_host[j].allocs_per_op / kPooled;
    }
    metrics.push_back({"host_allocs_per_op", allocs, "allocs/op"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
    metrics.push_back({"setup_s", Median(Column(untraced_host, &HostSample::setup_s)), "s"});
  } else {
    metrics = std::move(layer);
    metrics.push_back({"trace.overhead_ratio",
                       Median(Column(traced_host, &HostSample::us_per_op)) / us_per_op,
                       "ratio"});
  }

  std::fprintf(stderr, "perfbench: %s seed=%llu passes=%zu traced=%zu\n", spec->name.c_str(),
               static_cast<unsigned long long>(seed), untraced_host.size(),
               traced_host.size());
  PrintList("host us/op per pass, raw CPU", Column(untraced_host, &HostSample::raw_us_per_op));
  PrintList("host us/op per pass, speed-corrected",
            Column(untraced_host, &HostSample::us_per_op));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                 m.unit.c_str());
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "perfbench: VIOLATION %s\n", v.c_str());
  }

  const bool correct = violations.empty();
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
