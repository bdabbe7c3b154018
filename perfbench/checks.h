// Output checks of the repo benchmark, run against a post-run read-back of the whole
// log [0, tail). A non-empty result fails the run.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "perfbench/drivers.h"

namespace perfbench {

// One position of the final read-back.
struct FinalRecord {
  LogPos pos = 0;
  RecordId id;
  bool no_op = false;
  StreamTag tag = lazylog::kNoTag;
};

// What the workload observed, by reference into the drivers.
struct Observed {
  std::vector<const Appender*> appenders;
  std::vector<const std::vector<Delivery>*> deliveries;  // every record any reader got
  std::vector<const std::vector<StreamWindow>*> windows;  // every ReadNext result
};

// Checks, each reported as one line per violation (capped per check):
//  - the read-back is dense: position i holds the i-th record;
//  - every acked append appears exactly once, by RecordId; no record appears twice and
//    none comes from outside the workload;
//  - a no-op stands only where an append failed;
//  - every record a reader received equals the read-back record at its position;
//  - every ReadNext window is the exact tag projection of the read-back over
//    [from, next_from).
std::vector<std::string> CheckOutputs(const std::vector<FinalRecord>& final_log,
                                      const Observed& observed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
