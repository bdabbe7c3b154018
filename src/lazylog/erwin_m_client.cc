#include "src/lazylog/erwin_m_client.h"

#include <algorithm>

namespace lazylog {

void ErwinMClient::SendAppend(std::shared_ptr<PendingAppend> p) {
  p->attempts++;
  SeqAppendReq req;
  req.view = view_.view;
  req.id = p->id;
  req.payload = p->payload;
  req.is_meta = false;
  req.tag = p->tag;
  req.log = p->log;
  // Encoded once; every sequencing replica shares the frame and the payload
  // attachment, so an n-way append fans out refcounts rather than bytes.
  Encoder enc;
  req.Encode(enc);
  const std::vector<Buf> atts = enc.TakeAtts();
  const Buf body = enc.TakeBuf();
  const size_t n = view_.seq_config.size();
  // The leader's verdict is slot 0 (seq_config[0]).
  auto gather = Gather::Create(n, [this, p](const std::vector<Status>& ss) {
    AppendVerdict(p, ss, /*leader=*/0);
  });
  for (size_t i = 0; i < n; ++i) {
    endpoint_.Call(view_.seq_config[i], kSeqAppend, body, gather->Slot(i),
                   params_.client_append_timeout_ns, atts);
  }
}

// --- read (p mod n placement, §4.4) -------------------------------------------------------

void ErwinMClient::FetchRange(LogPos from, uint64_t len, ReadCallback cb) {
  // One run per shard that owns at least one position in [from, from+len): the shard's
  // positions are from+offset, from+offset+n, ..., consecutive in its local log. A run
  // whose last position is below the cached stable tail is a known-stable read; one
  // reaching at or above it waits at the shard primary.
  const uint32_t n = view_.num_shards();
  const uint32_t chunk = std::max<uint32_t>(1, params_.client_read.read_chunk_records);
  const LogPos known_stable = tails_.stable();
  std::vector<ShardRun> runs;
  for (ShardId s = 0; s < n; ++s) {
    const uint64_t offset = (s + n - static_cast<uint32_t>(from % n)) % n;
    if (offset >= len) {
      continue;
    }
    const LogPos first = from + offset;
    const auto count = static_cast<uint32_t>((len - offset + n - 1) / n);
    ShardRun run{s, {}, first + static_cast<uint64_t>(count - 1) * n < known_stable};
    for (uint32_t j0 = 0; j0 < count; j0 += chunk) {
      run.ranges.push_back(
          ReadRange{first + static_cast<uint64_t>(j0) * n, std::min(chunk, count - j0)});
    }
    runs.push_back(std::move(run));
  }
  FetchRuns(std::move(runs), std::move(cb));
}

// --- appendSync (§5.5 extension) ------------------------------------------------------------

void ErwinMClient::AppendSync(Buf payload, AppendCallback cb) {
  Append(AppendOptions{}, std::move(payload), [this, cb](Status st) {
    if (!st.ok()) {
      cb(std::move(st));
      return;
    }
    // The record is durable; now wait until the stable prefix has passed the durable
    // tail observed at ack time, i.e. the record's binding is final.
    CheckTail([this, cb](Status s, LogPos durable_count, LogPos) {
      if (!s.ok()) {
        cb(std::move(s));
        return;
      }
      PollStable(durable_count, cb);
    });
  });
}

void ErwinMClient::PollStable(LogPos target, AppendCallback cb) {
  CheckTail([this, target, cb](Status s, LogPos, LogPos stable) {
    if (!s.ok()) {
      cb(std::move(s));
      return;
    }
    if (stable >= target) {
      cb(Status::Ok());
      return;
    }
    endpoint_.loop()->Schedule(params_.seq.ordering_interval_ns,
                               [this, target, cb]() { PollStable(target, cb); });
  });
}

}  // namespace lazylog
