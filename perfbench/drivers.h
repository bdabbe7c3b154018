// Load generators and readers of the repo benchmark. They talk to the cluster only
// through the public SharedLogClient/LogHandle surface and record what they observe
// (per-append send and ack times, every record handed to a reader, every ReadNext
// window) for the metrics and the output checks. Recording appends to vectors only, so
// the benchmark's own heap traffic stays negligible next to the simulator's. The
// drivers in src/workload keep only counts and bucketed histograms, which can neither
// match a record to its append nor give exact percentiles.
#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/lazylog/shared_log_client.h"
#include "src/sim/event_loop.h"

namespace perfbench {

using lazylog::Buf;
using lazylog::ClientId;
using lazylog::EventHandle;
using lazylog::EventLoop;
using lazylog::LogHandle;
using lazylog::LogPos;
using lazylog::PositionedRecord;
using lazylog::RecordId;
using lazylog::SharedLogClient;
using lazylog::SimTime;
using lazylog::Status;
using lazylog::StreamTag;

// One record as handed to a reader.
struct Delivery {
  LogPos pos = 0;
  RecordId id;
  SimTime at = 0;
  bool no_op = false;
};

// One read call (Read or ReadNext): issue and completion times.
struct ReadCall {
  SimTime issued = 0;
  SimTime done = 0;
};

// One completed ReadNext(tag, from) window.
struct StreamWindow {
  StreamTag tag = lazylog::kNoTag;
  LogPos from = 0;
  LogPos next_from = 0;
  std::vector<Delivery> records;
};

enum class AppendState : uint8_t { kPending, kAcked, kFailed };

// Open-loop appender at a fixed rate with a seeded start phase. Append k of this
// client carries RecordId{client_id, k + 1} (the Erwin clients number requests from
// 1), which is how reads are matched back to the append that produced them. Latency
// is timed from the append's scheduled send time.
class Appender {
 public:
  Appender(EventLoop* loop, LogHandle log, ClientId client_id, double rate, Buf payload,
           uint32_t num_streams, uint32_t tag_offset, uint64_t seed)
      : loop_(loop),
        log_(log),
        client_id_(client_id),
        interval_ns_(static_cast<uint64_t>(1e9 / rate)),
        payload_(std::move(payload)),
        num_streams_(num_streams),
        tag_offset_(tag_offset),
        rng_(seed) {}

  void Start() {
    running_ = true;
    next_ = loop_->Now() + rng_.Uniform(std::max<uint64_t>(interval_ns_, 1));
    tick_ = loop_->ScheduleAt(next_, [this]() { Tick(); });
  }
  void Stop() {
    running_ = false;
    tick_.Cancel();
  }

  ClientId client_id() const { return client_id_; }
  StreamTag TagOf(uint64_t k) const {
    return num_streams_ == 0 ? lazylog::kNoTag
                             : static_cast<StreamTag>(1 + (k + tag_offset_) % num_streams_);
  }

  std::vector<SimTime> sched;  // scheduled send time of append k
  std::vector<SimTime> acked;  // ack time of append k (valid when state[k] == kAcked)
  std::vector<AppendState> state;
  uint64_t double_completions = 0;

 private:
  void Tick() {
    while (running_ && next_ <= loop_->Now()) {
      Issue(next_);
      next_ += interval_ns_;
    }
    if (running_) {
      tick_ = loop_->ScheduleAt(next_, [this]() { Tick(); });
    }
  }

  void Issue(SimTime due) {
    const uint64_t k = sched.size();
    sched.push_back(due);
    acked.push_back(0);
    state.push_back(AppendState::kPending);
    log_.Append(TagOf(k), payload_, [this, k](Status s) {
      if (state[k] != AppendState::kPending) {
        double_completions++;
        return;
      }
      state[k] = s.ok() ? AppendState::kAcked : AppendState::kFailed;
      acked[k] = loop_->Now();
    });
  }

  EventLoop* loop_;
  LogHandle log_;
  ClientId client_id_;
  uint64_t interval_ns_;
  Buf payload_;
  uint32_t num_streams_;
  uint32_t tag_offset_;
  lazylog::Rng rng_;
  bool running_ = false;
  SimTime next_ = 0;
  EventHandle tick_;
};

// What a tail reader records; the workload treats followers and samplers alike.
class TailObserver {
 public:
  virtual ~TailObserver() = default;
  virtual void Start() = 0;
  virtual void Stop() = 0;

  std::vector<Delivery> got;
  std::vector<ReadCall> calls;
  uint64_t tail_rpcs = 0;  // CheckTail round trips issued
  uint64_t failed_reads = 0;
  uint64_t order_violations = 0;  // replies that were not exactly the requested positions
};

// No-lag tail reader: learns the tail from the client's tail cache or, failing that, a
// CheckTail round trip, and reads as soon as a record is durable. The known-stable
// prefix is read in batches; past it the reader follows Figure 9's pattern, one record
// per Read, which waits until ordering reaches the record (where LazyLog pays for lazy
// ordering). Polls again after `idle_ns` when there is nothing new.
class TailReader : public TailObserver {
 public:
  TailReader(EventLoop* loop, SharedLogClient* client, uint64_t idle_ns, uint64_t max_batch)
      : loop_(loop), client_(client), idle_ns_(idle_ns), max_batch_(max_batch) {}

  void Start() override {
    running_ = true;
    Poll();
  }
  void Stop() override { running_ = false; }

 private:
  void Poll() {
    if (!running_) {
      return;
    }
    LogPos durable = 0;
    LogPos stable = 0;
    if (client_->CachedTail(&durable, &stable) && durable > cursor_) {
      ReadFrom(stable);
      return;
    }
    tail_rpcs++;
    client_->log().CheckTail([this](Status s, LogPos durable, LogPos stable) {
      if (!s.ok() || durable <= cursor_) {
        Idle();
        return;
      }
      ReadFrom(stable);
    });
  }

  void Idle() {
    if (running_) {
      loop_->Schedule(idle_ns_, [this]() { Poll(); });
    }
  }

  // Called when a record past the cursor is durable; `stable` is the known-stable tail.
  void ReadFrom(LogPos stable) {
    const uint64_t n =
        stable > cursor_ ? std::min<uint64_t>(stable - cursor_, max_batch_) : 1;
    const SimTime t0 = loop_->Now();
    const LogPos from = cursor_;
    client_->log().Read(from, n, [this, t0, from, n](Status s,
                                                     std::vector<PositionedRecord> recs) {
      if (!s.ok()) {
        failed_reads++;
        Idle();
        return;
      }
      const SimTime now = loop_->Now();
      calls.push_back({t0, now});
      if (recs.size() != n) {
        order_violations++;
      }
      for (size_t i = 0; i < recs.size(); ++i) {
        const PositionedRecord& pr = recs[i];
        if (pr.pos != from + i) {
          order_violations++;
        }
        got.push_back({pr.pos, pr.record.id, now, pr.record.no_op});
        cursor_ = std::max(cursor_, pr.pos + 1);
      }
      Poll();
    });
  }

  EventLoop* loop_;
  SharedLogClient* client_;
  uint64_t idle_ns_;
  uint64_t max_batch_;
  bool running_ = false;
  LogPos cursor_ = 0;
};

// Tail sampler: at Poisson-distributed instants (mean `period_ns`) reads the newest
// stable record it knows of, one record per Read. It measures the append-to-visible
// delay of a log too fast to follow in full while adding only a sliver of read load.
// Reading at stable rather than past it means no read waits for ordering; on Erwin-st
// that wait is quantized by the position-map poll cadence.
class TailSampler : public TailObserver {
 public:
  TailSampler(EventLoop* loop, SharedLogClient* client, uint64_t period_ns, uint64_t seed)
      : loop_(loop), client_(client), period_ns_(period_ns), rng_(seed) {}

  void Start() override {
    running_ = true;
    Next();
  }
  void Stop() override {
    running_ = false;
    tick_.Cancel();
  }

 private:
  void Next() {
    const auto gap = static_cast<uint64_t>(rng_.Exponential(static_cast<double>(period_ns_)));
    tick_ = loop_->Schedule(gap, [this]() {
      Sample();
      Next();
    });
  }

  void Sample() {
    LogPos durable = 0;
    LogPos stable = 0;
    if (client_->CachedTail(&durable, &stable)) {
      ReadAt(stable);
      return;
    }
    tail_rpcs++;
    client_->log().CheckTail([this](Status s, LogPos, LogPos stable) {
      if (s.ok()) {
        ReadAt(stable);
      }
    });
  }

  void ReadAt(LogPos stable) {
    if (!running_ || stable == 0) {
      return;
    }
    const LogPos pos = stable - 1;
    const SimTime t0 = loop_->Now();
    client_->log().Read(pos, 1, [this, t0, pos](Status s, std::vector<PositionedRecord> recs) {
      if (!s.ok()) {
        failed_reads++;
        return;
      }
      const SimTime now = loop_->Now();
      calls.push_back({t0, now});
      if (recs.size() != 1 || recs[0].pos != pos) {
        order_violations++;
      }
      for (const PositionedRecord& pr : recs) {
        got.push_back({pr.pos, pr.record.id, now, pr.record.no_op});
      }
    });
  }

  EventLoop* loop_;
  SharedLogClient* client_;
  uint64_t period_ns_;
  lazylog::Rng rng_;
  bool running_ = false;
  EventHandle tick_;
};

// Closed-loop scanner of a fixed stable prefix [0, limit): Read(pos, batch), think,
// advance, wrap. Sequential reads exercise the client's replica routing, coalescing
// and readahead.
class Scanner {
 public:
  Scanner(EventLoop* loop, LogHandle log, LogPos limit, LogPos start, uint64_t batch,
          uint64_t think_ns)
      : loop_(loop), log_(log), limit_(limit), pos_(start % limit), batch_(batch),
        think_ns_(think_ns) {}

  void Start() {
    running_ = true;
    Issue();
  }
  void Stop() { running_ = false; }

  std::vector<Delivery> got;
  std::vector<ReadCall> calls;
  uint64_t failed_reads = 0;
  uint64_t range_violations = 0;  // replies that were not exactly the requested positions

 private:
  void Issue() {
    if (!running_) {
      return;
    }
    const uint64_t n = std::min<uint64_t>(batch_, limit_ - pos_);
    const SimTime t0 = loop_->Now();
    const LogPos from = pos_;
    log_.Read(from, n, [this, t0, from, n](Status s, std::vector<PositionedRecord> recs) {
      if (!s.ok()) {
        failed_reads++;
      } else {
        const SimTime now = loop_->Now();
        calls.push_back({t0, now});
        range_violations += recs.size() != n ? 1 : 0;
        for (size_t i = 0; i < recs.size(); ++i) {
          const PositionedRecord& pr = recs[i];
          range_violations += pr.pos != from + i ? 1 : 0;
          got.push_back({pr.pos, pr.record.id, now, pr.record.no_op});
        }
        pos_ += recs.size();
        if (recs.empty() || pos_ >= limit_) {
          pos_ = 0;
        }
      }
      if (running_) {
        loop_->Schedule(think_ns_, [this]() { Issue(); });
      }
    });
  }

  EventLoop* loop_;
  LogHandle log_;
  LogPos limit_;
  LogPos pos_;
  uint64_t batch_;
  uint64_t think_ns_;
  bool running_ = false;
};

// Follows one stream tag through the index tier with ReadNext, polling again after
// `idle_ns` when a call makes no progress.
class StreamReader {
 public:
  StreamReader(EventLoop* loop, LogHandle log, StreamTag tag, uint32_t max, uint64_t idle_ns)
      : loop_(loop), log_(log), tag_(tag), max_(max), idle_ns_(idle_ns) {}

  void Start() {
    running_ = true;
    Issue();
  }
  void Stop() { running_ = false; }

  std::vector<StreamWindow> windows;
  std::vector<ReadCall> calls;
  uint64_t empty_polls = 0;
  uint64_t failed_reads = 0;

 private:
  void Issue() {
    if (!running_) {
      return;
    }
    const SimTime t0 = loop_->Now();
    const LogPos from = cursor_;
    log_.ReadNext(tag_, from, max_,
                  [this, t0, from](Status s, std::vector<PositionedRecord> recs, LogPos next) {
                    bool progressed = false;
                    if (!s.ok()) {
                      failed_reads++;
                    } else {
                      const SimTime now = loop_->Now();
                      calls.push_back({t0, now});
                      StreamWindow w{tag_, from, next, {}};
                      for (const PositionedRecord& pr : recs) {
                        w.records.push_back({pr.pos, pr.record.id, now, pr.record.no_op});
                      }
                      windows.push_back(std::move(w));
                      progressed = next > from;
                      empty_polls += progressed ? 0 : 1;
                      cursor_ = std::max(cursor_, next);
                    }
                    if (!running_) {
                      return;
                    }
                    if (progressed) {
                      Issue();
                    } else {
                      loop_->Schedule(idle_ns_, [this]() { Issue(); });
                    }
                  });
  }

  EventLoop* loop_;
  LogHandle log_;
  StreamTag tag_;
  uint32_t max_;
  uint64_t idle_ns_;
  bool running_ = false;
  LogPos cursor_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
