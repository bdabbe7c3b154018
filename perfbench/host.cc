#include "perfbench/host.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>
#include <new>

namespace {
// The simulator is single-threaded; the atomic only keeps the counter well-defined if
// a library ever allocates from another thread.
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t HostAllocs() { return g_allocs.load(std::memory_order_relaxed); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double CalibrationSeconds() {
  constexpr uint64_t kOps = 150000;
  const double start = ProcessCpuSeconds();
  using Entry = std::pair<uint64_t, uint64_t>;  // (due time, id)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> timers;
  std::unordered_map<uint64_t, std::unique_ptr<std::vector<uint64_t>>> pending;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t now = 0;
  uint64_t sink = 0;
  for (uint64_t id = 0; id < kOps; ++id) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    timers.emplace(now + (x & 0xffff), id);
    pending.emplace(id, std::make_unique<std::vector<uint64_t>>(1 + (x & 7), x));
    if (timers.size() > 4096) {
      const Entry e = timers.top();
      timers.pop();
      now = e.first;
      auto it = pending.find(e.second);
      std::function<void()> fire = [&sink, v = it->second.get()]() { sink += v->front(); };
      fire();
      pending.erase(it);
    }
  }
  const double elapsed = ProcessCpuSeconds() - start;
  return sink == 42 ? elapsed + 1e-12 : elapsed;  // keeps the work observable
}

}  // namespace perfbench
