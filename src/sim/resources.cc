#include "src/sim/resources.h"

#include <algorithm>

namespace lazylog {

SimTime Disk::Admit(uint64_t bytes) {
  const SimTime start = std::max(loop_->Now(), busy_until_);
  const uint64_t xfer_ns = static_cast<uint64_t>(
      static_cast<double>(bytes) / params_.write_bandwidth_bytes_per_sec * 1e9 * slowdown_);
  busy_until_ = start + xfer_ns;
  return busy_until_ + params_.write_latency_ns;
}

uint64_t Disk::QueueDepthNs() const {
  const SimTime now = loop_->Now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

}  // namespace lazylog
