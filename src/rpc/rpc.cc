#include "src/rpc/rpc.h"

#include <memory>

#include "src/common/logging.h"

namespace lazylog {

namespace {
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;
// kind + method + rpc id + body length; an OK response's header is kFrameHeadroom.
static_assert(1 + 4 + 8 + 4 <= Encoder::kFrameHeadroom);
static_assert(1 + 8 + 1 + 4 + 4 == Encoder::kFrameHeadroom);
}  // namespace

// Free list of send-once tokens. Process-wide (the simulator is single-threaded) so a
// responder may outlive the endpoint and cluster it answers for, and never destroyed
// so responders released during static teardown stay safe.
struct Responder::TokenPool {
  static constexpr size_t kChunk = 256;
  std::vector<std::unique_ptr<Token[]>> chunks;
  Token* free = nullptr;

  static TokenPool& Get() {
    static auto* pool = new TokenPool();
    return *pool;
  }
};

Responder::Responder(RpcEndpoint* endpoint, NodeId caller, uint64_t rpc_id) {
  TokenPool& pool = TokenPool::Get();
  if (pool.free == nullptr) {
    pool.chunks.push_back(std::make_unique<Token[]>(TokenPool::kChunk));
    for (size_t i = 0; i < TokenPool::kChunk; ++i) {
      pool.chunks.back()[i].next_free = pool.free;
      pool.free = &pool.chunks.back()[i];
    }
  }
  token_ = pool.free;
  pool.free = token_->next_free;
  *token_ = Token{endpoint, caller, rpc_id, 1, nullptr};
}

void Responder::Release() noexcept {
  if (token_ != nullptr && --token_->refs == 0) {
    TokenPool& pool = TokenPool::Get();
    token_->next_free = pool.free;
    pool.free = token_;
  }
  token_ = nullptr;
}

RpcEndpoint* Responder::Claim() {
  LL_CHECK(valid(), "responding twice or with an empty Responder");
  return std::exchange(token_->endpoint, nullptr);
}

void Responder::Send(const Status& status, Buf body, std::vector<Buf> atts) {
  Encoder enc(body.size());
  enc.PutRaw(body.data(), body.size());
  enc.PutAttachments(std::move(atts));
  Send(status, enc);
}

void Responder::Send(const Status& status, Encoder& body) {
  Claim()->SendResponse(token_->caller, token_->rpc_id, status, body);
}

RpcEndpoint::RpcEndpoint(Network* net) : net_(net) {
  node_id_ = net_->AddNode([this](NetMessage&& m) { OnMessage(std::move(m)); });
}

void RpcEndpoint::Register(MethodId method, Handler handler) {
  handlers_[method] = std::move(handler);
}

RpcEndpoint::Pending& RpcEndpoint::AddPending(uint64_t rpc_id, uint64_t timeout_ns) {
  if (ring_count_ == 0) {
    ring_base_ = rpc_id;
  }
  const size_t need = static_cast<size_t>(rpc_id - ring_base_) + 1;
  if (need > ring_.size()) {
    size_t cap = ring_.empty() ? 16 : ring_.size();
    while (cap < need) {
      cap *= 2;
    }
    std::vector<Pending> grown(cap);
    for (size_t k = 0; k < ring_count_; ++k) {
      grown[k] = std::move(ring_[(ring_head_ + k) & (ring_.size() - 1)]);
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  // Ids skipped since the last entry were fire-and-forget. Their entries are not live:
  // an entry only leaves the ring once it is dead, and new ones start dead.
  ring_count_ = need;
  Pending& p = At(rpc_id);
  p.live = true;
  if (timeout_ns > 0) {
    p.timeout = loop()->Schedule(timeout_ns, [this, rpc_id]() {
      Pending* timed_out = Find(rpc_id);
      if (timed_out == nullptr) {
        return;
      }
      ResponseCallback cb = Finish(*timed_out);
      stats_.timeouts++;
      if (cb) {
        cb(Status::Timeout(), Decoder());
      }
    });
  } else {
    p.timeout = EventHandle();
  }
  return p;
}

RpcEndpoint::Pending* RpcEndpoint::Find(uint64_t rpc_id) {
  if (rpc_id < ring_base_ || rpc_id - ring_base_ >= ring_count_) {
    return nullptr;
  }
  Pending& p = At(rpc_id);
  return p.live ? &p : nullptr;
}

RpcEndpoint::ResponseCallback RpcEndpoint::Finish(Pending& p) {
  ResponseCallback cb = std::move(p.cb);
  p.live = false;
  while (ring_count_ > 0 && !ring_[ring_head_].live) {
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    ++ring_base_;
    --ring_count_;
  }
  return cb;
}

void RpcEndpoint::CancelAll() {
  std::vector<Pending> ring = std::move(ring_);
  const size_t head = ring_head_;
  const size_t count = ring_count_;
  ring_.clear();
  ring_head_ = 0;
  ring_count_ = 0;
  for (size_t k = 0; k < count; ++k) {
    Pending& p = ring[(head + k) & (ring.size() - 1)];
    if (!p.live) {
      continue;
    }
    p.timeout.Cancel();
    stats_.cancelled++;
    if (p.cb) {
      p.cb(Status::Unavailable("call cancelled"), Decoder());
    }
  }
}

void RpcEndpoint::SendRequest(NodeId dest, MethodId method, uint64_t rpc_id, Encoder& body) {
  // The frame holds only the header and the (attachment-stripped) body; payload bytes
  // ride as separate segments, so framing never re-touches record data. The NIC still
  // charges frame + attachment bytes (Network::Send default), which equals the old
  // inline encoding byte-for-byte.
  body.PrependU32(static_cast<uint32_t>(body.size()));
  body.PrependU64(rpc_id);
  body.PrependU32(method);
  body.PrependU8(kKindRequest);
  auto atts = body.TakeAtts();
  net_->Send(node_id_, dest, body.TakeBuf(), 0, std::move(atts));
}

void RpcEndpoint::SendResponse(NodeId dest, uint64_t rpc_id, const Status& status,
                               Encoder& body) {
  body.PrependU32(static_cast<uint32_t>(body.size()));
  const std::string& message = status.message();
  body.PrependRaw(message.data(), message.size());
  body.PrependU32(static_cast<uint32_t>(message.size()));
  body.PrependU8(static_cast<uint8_t>(status.code()));
  body.PrependU64(rpc_id);
  body.PrependU8(kKindResponse);
  auto atts = body.TakeAtts();
  net_->Send(node_id_, dest, body.TakeBuf(), 0, std::move(atts));
}

void RpcEndpoint::OnMessage(NetMessage&& msg) {
  // The frame decoder owns the message backing; the body is sliced out of it (no copy)
  // and handed to the handler/callback together with the attachment handles.
  Decoder d(std::move(msg.payload));
  uint8_t kind = 0;
  if (!d.GetU8(&kind)) {
    LLOG(kWarn) << "malformed rpc frame from node " << msg.from;
    return;
  }
  if (kind == kKindRequest) {
    uint32_t method = 0;
    uint64_t rpc_id = 0;
    Buf body;
    if (!d.GetU32(&method) || !d.GetU64(&rpc_id) || !d.GetBufView(&body)) {
      LLOG(kWarn) << "malformed rpc request from node " << msg.from;
      return;
    }
    auto it = handlers_.find(static_cast<MethodId>(method));
    Responder responder(this, msg.from, rpc_id);
    if (it == handlers_.end()) {
      responder.Send(Status::Unavailable("no handler for method"));
      return;
    }
    it->second(msg.from, Decoder(std::move(body), std::move(msg.atts)), std::move(responder));
    return;
  }
  if (kind == kKindResponse) {
    uint64_t rpc_id = 0;
    uint8_t code = 0;
    std::string message;
    Buf body;
    if (!d.GetU64(&rpc_id) || !d.GetU8(&code) || !d.GetBytes(&message) || !d.GetBufView(&body)) {
      LLOG(kWarn) << "malformed rpc response from node " << msg.from;
      return;
    }
    Pending* p = Find(rpc_id);
    if (p == nullptr) {
      return;  // late response after timeout, or a fire-and-forget reply; drop
    }
    p->timeout.Cancel();
    ResponseCallback cb = Finish(*p);
    stats_.responses_received++;
    if (cb) {
      cb(Status(static_cast<StatusCode>(code), std::move(message)),
         Decoder(std::move(body), std::move(msg.atts)));
    }
    return;
  }
  LLOG(kWarn) << "unknown rpc frame kind " << static_cast<int>(kind);
}

}  // namespace lazylog
