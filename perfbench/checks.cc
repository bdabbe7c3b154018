#include "perfbench/checks.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {
namespace {

constexpr size_t kMaxReportsPerCheck = 5;

class Report {
 public:
  explicit Report(std::vector<std::string>* out) : out_(out) {}
  void Add(const std::string& check, const std::string& detail) {
    if (counts_[check]++ < kMaxReportsPerCheck) {
      out_->push_back(check + ": " + detail);
    }
  }
  void Flush() {
    for (const auto& [check, n] : counts_) {
      if (n > kMaxReportsPerCheck) {
        out_->push_back(check + ": " + std::to_string(n - kMaxReportsPerCheck) +
                        " more violations");
      }
    }
  }

 private:
  std::vector<std::string>* out_;
  std::map<std::string, size_t> counts_;
};

std::string IdStr(const RecordId& id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "(%llu,%llu)", static_cast<unsigned long long>(id.client_id),
                static_cast<unsigned long long>(id.request_id));
  return buf;
}

}  // namespace

std::vector<std::string> CheckOutputs(const std::vector<FinalRecord>& final_log,
                                      const Observed& observed) {
  std::vector<std::string> out;
  Report report(&out);

  // RecordId -> (appender, append index): client ids are small dense integers.
  std::vector<int> appender_of;
  for (size_t a = 0; a < observed.appenders.size(); ++a) {
    const ClientId c = observed.appenders[a]->client_id();
    if (appender_of.size() <= c) {
      appender_of.resize(c + 1, -1);
    }
    appender_of[c] = static_cast<int>(a);
  }
  auto lookup = [&](const RecordId& id, const Appender** app) -> bool {
    if (id.client_id >= appender_of.size() || appender_of[id.client_id] < 0) {
      return false;
    }
    *app = observed.appenders[appender_of[id.client_id]];
    return id.request_id >= 1 && id.request_id <= (*app)->state.size();
  };

  std::vector<std::vector<uint32_t>> seen(observed.appenders.size());
  for (size_t a = 0; a < observed.appenders.size(); ++a) {
    seen[a].assign(observed.appenders[a]->state.size(), 0);
  }
  for (size_t i = 0; i < final_log.size(); ++i) {
    const FinalRecord& r = final_log[i];
    if (r.pos != i) {
      report.Add("dense", "read-back position " + std::to_string(i) + " holds pos " +
                              std::to_string(r.pos));
    }
    const Appender* app = nullptr;
    if (!lookup(r.id, &app)) {
      report.Add("foreign-record", "pos " + std::to_string(i) + " id " + IdStr(r.id));
      continue;
    }
    const uint64_t k = r.id.request_id - 1;
    const AppendState st = app->state[k];
    if (r.no_op) {
      if (st == AppendState::kAcked) {
        report.Add("noop-rule", "acked append " + IdStr(r.id) + " resolved to a no-op at " +
                                    std::to_string(i));
      } else if (st == AppendState::kPending) {
        report.Add("noop-rule", "no-op at " + std::to_string(i) + " for append " +
                                    IdStr(r.id) + " that never completed");
      }
      continue;
    }
    if (r.tag != app->TagOf(k)) {
      report.Add("binding", "pos " + std::to_string(i) + " carries tag " +
                                std::to_string(r.tag) + " but its append used " +
                                std::to_string(app->TagOf(k)));
    }
    if (++seen[appender_of[r.id.client_id]][k] > 1) {
      report.Add("exactly-once", "record " + IdStr(r.id) + " appears twice");
    }
  }
  for (size_t a = 0; a < observed.appenders.size(); ++a) {
    const Appender* app = observed.appenders[a];
    for (size_t k = 0; k < app->state.size(); ++k) {
      if (app->state[k] == AppendState::kAcked && seen[a][k] == 0) {
        report.Add("durability", "acked append " +
                                     IdStr(RecordId{app->client_id(), k + 1}) +
                                     " missing from the read-back");
      }
    }
    if (app->double_completions > 0) {
      report.Add("single-completion", std::to_string(app->double_completions) +
                                          " appends completed twice");
    }
  }

  for (const std::vector<Delivery>* got : observed.deliveries) {
    for (const Delivery& d : *got) {
      if (d.pos >= final_log.size() || final_log[d.pos].id != d.id ||
          final_log[d.pos].no_op != d.no_op) {
        report.Add("binding", "reader got " + IdStr(d.id) + " at pos " +
                                  std::to_string(d.pos) + ", read-back differs");
      }
    }
  }

  std::map<StreamTag, std::vector<LogPos>> by_tag;
  for (const FinalRecord& r : final_log) {
    if (!r.no_op && r.tag != lazylog::kNoTag) {
      by_tag[r.tag].push_back(r.pos);
    }
  }
  for (const std::vector<StreamWindow>* windows : observed.windows) {
    for (const StreamWindow& w : *windows) {
      if (w.next_from > final_log.size() || w.next_from < w.from) {
        report.Add("stream-projection", "window [" + std::to_string(w.from) + "," +
                                            std::to_string(w.next_from) +
                                            ") outside the log");
        continue;
      }
      const std::vector<LogPos>& all = by_tag[w.tag];
      auto lo = std::lower_bound(all.begin(), all.end(), w.from);
      auto hi = std::lower_bound(all.begin(), all.end(), w.next_from);
      bool same = static_cast<size_t>(hi - lo) == w.records.size();
      for (size_t j = 0; same && j < w.records.size(); ++j) {
        const Delivery& d = w.records[j];
        same = d.pos == *(lo + j) && final_log[d.pos].id == d.id;
      }
      if (!same) {
        report.Add("stream-projection",
                   "tag " + std::to_string(w.tag) + " window [" + std::to_string(w.from) +
                       "," + std::to_string(w.next_from) + ") returned " +
                       std::to_string(w.records.size()) + " records, expected " +
                       std::to_string(hi - lo));
      }
    }
  }
  report.Flush();
  return out;
}

}  // namespace perfbench
