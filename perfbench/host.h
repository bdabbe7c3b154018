// Host-side measurements of the simulator process itself: CPU time, heap allocation
// count, peak resident memory and wall time. They measure the benchmark binary from
// outside the simulated cluster and never feed back into simulated time.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>

namespace perfbench {

// Global operator new calls since process start (counted by the replacement
// operator new in host.cc; deterministic for a deterministic run).
uint64_t HostAllocs();
// User + system CPU seconds consumed by this process.
double ProcessCpuSeconds();
// Monotonic wall-clock seconds.
double WallSeconds();
// Peak resident set size (VmHWM) in MiB; 0 if /proc is unavailable.
double PeakRssMb();
// CPU seconds of one run of a fixed reference workload shaped like the simulator's
// hot path (a timer heap, a hash map of pending entries, small heap objects). It does
// not touch the code under test, so its time tracks only how fast the machine is
// running at the moment.
double CalibrationSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
