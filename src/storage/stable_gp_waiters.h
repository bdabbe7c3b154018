// The read path's one wait rule (§4.4): a request asking past stable-gp parks until
// stable-gp passes its first position. Wake serves, in park order, every entry whose
// first position is below the new stable-gp and keeps the rest in order.
#ifndef SRC_STORAGE_STABLE_GP_WAITERS_H_
#define SRC_STORAGE_STABLE_GP_WAITERS_H_

#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/types.h"

namespace lazylog {

class StableGpWaiters {
 public:
  // Holds a parked request, its responder and the server's `this` without allocating.
  using Serve = InlineFunction<void(), 64>;

  void Park(LogPos first, Serve serve) { parked_.emplace_back(first, std::move(serve)); }

  void Wake(LogPos stable_gp) {
    std::vector<std::pair<LogPos, Serve>> parked = std::move(parked_);
    parked_.clear();
    for (auto& [first, serve] : parked) {
      if (first < stable_gp) {
        serve();
      } else {
        parked_.emplace_back(first, std::move(serve));
      }
    }
  }

 private:
  std::vector<std::pair<LogPos, Serve>> parked_;
};

}  // namespace lazylog

#endif  // SRC_STORAGE_STABLE_GP_WAITERS_H_
