// Request/response RPC over the simulated network, mirroring eRPC's role in the paper's
// implementation: method dispatch, per-call ids, response matching, and timeouts.
// Server handlers may respond asynchronously (slow-path reads hold the responder until
// stable-gp advances past the requested position).
#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/codec.h"
#include "src/common/inline_function.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"

namespace lazylog {

// Identifies a server method. Each subsystem owns a disjoint range (see rpc_methods.h).
using MethodId = uint16_t;

class RpcEndpoint;

// Capability to answer one inbound request. Copies share one send-once token (handlers
// routinely capture responders into deferred work); responding twice is a checked bug.
// Dropping all copies without responding leaves the caller to time out (used when a
// sealed replica must stay silent). Tokens are refcounted cells from a process-wide
// free list, so creating, copying and answering a responder does not allocate in
// steady state.
class Responder {
 public:
  Responder() = default;
  Responder(const Responder& o) : token_(o.token_) {
    if (token_ != nullptr) {
      ++token_->refs;
    }
  }
  Responder(Responder&& o) noexcept : token_(o.token_) { o.token_ = nullptr; }
  Responder& operator=(Responder o) noexcept {
    std::swap(token_, o.token_);
    return *this;
  }
  ~Responder() { Release(); }

  // Sends the response. `body` is the encoded reply payload (empty allowed); `atts`
  // are zero-copy payload segments produced by Encoder::PutAttached.
  void Send(const Status& status, Buf body = {}, std::vector<Buf> atts = {});
  // Sends the encoder's body and attachments. The frame header goes into the
  // encoder's headroom, so the body bytes are sent where they were encoded.
  void Send(const Status& status, Encoder& body);
  void Ok(Encoder& enc) { Send(Status::Ok(), enc); }

  bool valid() const { return token_ != nullptr && token_->endpoint != nullptr; }
  NodeId caller() const { return token_ != nullptr ? token_->caller : kInvalidNode; }

 private:
  friend class RpcEndpoint;
  struct Token {
    RpcEndpoint* endpoint = nullptr;  // null once answered
    NodeId caller = kInvalidNode;
    uint64_t rpc_id = 0;
    uint32_t refs = 0;
    Token* next_free = nullptr;
  };
  Responder(RpcEndpoint* endpoint, NodeId caller, uint64_t rpc_id);
  struct TokenPool;
  // Returns the endpoint to answer through and marks the token answered.
  RpcEndpoint* Claim();
  void Release() noexcept;

  Token* token_ = nullptr;
};

// Outcome counters per endpoint. Fault-injection tests (src/chaos/) read these to see
// how much of a run was absorbed by timeouts rather than clean responses.
struct RpcStats {
  uint64_t calls_issued = 0;
  uint64_t responses_received = 0;
  uint64_t timeouts = 0;
  uint64_t cancelled = 0;
};

// One endpoint == one simulated node. Servers register handlers; clients Call().
//
// Request frame:  u8 kind=1, u32 method, u64 rpc id, u32 body length, body.
// Response frame: u8 kind=2, u64 rpc id, u8 status code, u32 message length, message,
//                 u32 body length, body.
// Record payloads ride beside the frame as attachments (see codec.h).
class RpcEndpoint {
 public:
  // Handler receives the caller id, a decoder over the request body, and the responder.
  // The decoder owns its backing buffer and the message attachments, so it (and any Buf
  // decoded out of it) stays valid if the handler defers work to the event loop.
  using Handler = std::function<void(NodeId caller, Decoder body, Responder responder)>;
  // Client completion: status (OK / Timeout / server-provided error) and a decoder over
  // the reply body (owning the backing + attachments; empty on timeout/cancel). Stored
  // inline in the pending-call ring; larger captures cost one heap block.
  static constexpr size_t kCallbackCapture = 56;
  using ResponseCallback = InlineFunction<void(Status, Decoder), kCallbackCapture>;

  explicit RpcEndpoint(Network* net);

  NodeId node_id() const { return node_id_; }
  Network* network() const { return net_; }
  EventLoop* loop() const { return net_->loop(); }

  // Registers the handler for `method` (replacing any existing one).
  void Register(MethodId method, Handler handler);

  // Issues a call whose body the caller encoded into `body` (consumed: its bytes become
  // the frame and its attachments ride along). `cb` is any callable accepted by
  // ResponseCallback, or nullptr. `timeout_ns` == 0 means no timeout (the callback may
  // never fire if the destination is down; callers that pass 0 must handle that
  // themselves). A fire-and-forget call (no callback, no timeout) registers nothing:
  // its reply is dropped like a late one.
  template <typename F>
  void Call(NodeId dest, MethodId method, Encoder& body, F&& cb, uint64_t timeout_ns) {
    const uint64_t rpc_id = next_rpc_id_++;
    stats_.calls_issued++;
    if (!IsNullCallable(cb) || timeout_ns > 0) {
      AddPending(rpc_id, timeout_ns).cb = std::forward<F>(cb);
    }
    SendRequest(dest, method, rpc_id, body);
  }

  // Same, for a body encoded once and sent to several destinations: each call copies
  // `body` into an exact-size frame. `atts` are zero-copy payload segments referenced
  // by length markers in `body`.
  template <typename F>
  void Call(NodeId dest, MethodId method, const Buf& body, F&& cb, uint64_t timeout_ns,
            std::vector<Buf> atts = {}) {
    Encoder enc(body.size());
    enc.PutRaw(body.data(), body.size());
    enc.PutAttachments(std::move(atts));
    Call(dest, method, enc, std::forward<F>(cb), timeout_ns);
  }

  // Encodes `req` (must provide Encode(Encoder&)) and issues the call.
  template <typename Req, typename F>
  void CallMsg(NodeId dest, MethodId method, const Req& req, F&& cb, uint64_t timeout_ns) {
    Encoder enc;
    req.Encode(enc);
    Call(dest, method, enc, std::forward<F>(cb), timeout_ns);
  }

  // Cancels all outstanding calls with Status::Unavailable (client teardown), in id
  // order.
  void CancelAll();

  const RpcStats& stats() const { return stats_; }

 private:
  friend class Responder;

  struct Pending {
    ResponseCallback cb;
    EventHandle timeout;
    bool live = false;
  };

  // Adds the ring entry for `rpc_id` (the newest id) and arms its timeout.
  Pending& AddPending(uint64_t rpc_id, uint64_t timeout_ns);
  // The live entry for `rpc_id`, or null if it completed, timed out or never existed.
  Pending* Find(uint64_t rpc_id);
  // Ends `p`'s life: returns its callback and drops completed entries off the front.
  ResponseCallback Finish(Pending& p);
  Pending& At(uint64_t rpc_id) {
    return ring_[(ring_head_ + (rpc_id - ring_base_)) & (ring_.size() - 1)];
  }

  void SendRequest(NodeId dest, MethodId method, uint64_t rpc_id, Encoder& body);
  void SendResponse(NodeId dest, uint64_t rpc_id, const Status& status, Encoder& body);
  void OnMessage(NetMessage&& msg);

  Network* net_;
  NodeId node_id_;
  uint64_t next_rpc_id_ = 1;
  RpcStats stats_;
  std::unordered_map<MethodId, Handler> handlers_;
  // Outstanding calls, indexed by rpc id: entry k of the ring (from ring_head_) is id
  // ring_base_ + k. Ids are sequential, so registering appends and completions pop
  // from the front; ids that registered nothing (fire-and-forget) leave dead entries
  // that pop with the rest. The ring's capacity is a power of two and only grows. A
  // call with no timeout whose reply never comes pins the front, so the ring spans
  // every id issued after it until CancelAll.
  std::vector<Pending> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  uint64_t ring_base_ = 0;
};

// Fan-out helper: issues `n` calls and invokes `done` exactly once when all have
// completed. `done` receives the per-call statuses. Used for the parallel,
// coordination-free writes to all sequencing replicas / shard replicas.
class Gather : public std::enable_shared_from_this<Gather> {
 public:
  using DoneCallback = std::function<void(const std::vector<Status>&)>;

  // Completion callback for one slot: a copyable functor small enough to sit inline
  // in a ResponseCallback. It keeps the Gather alive.
  class SlotFn {
   public:
    void operator()(Status s, Decoder) const { gather_->Complete(i_, std::move(s)); }

   private:
    friend class Gather;
    SlotFn(std::shared_ptr<Gather> gather, size_t i) : gather_(std::move(gather)), i_(i) {}
    std::shared_ptr<Gather> gather_;
    size_t i_;
  };

  static std::shared_ptr<Gather> Create(size_t n, DoneCallback done) {
    return std::make_shared<Gather>(Key(), n, std::move(done));
  }

  // Returns the completion callback for slot `i`; safe to call after *this would
  // otherwise be destroyed because the functor holds a reference.
  SlotFn Slot(size_t i) { return SlotFn(shared_from_this(), i); }

  // Public for make_shared (one allocation for object and refcount); Key keeps
  // construction to Create().
  struct Key {
    explicit Key() = default;
  };
  Gather(Key, size_t n, DoneCallback done)
      : statuses_(n), remaining_(n), done_(std::move(done)) {}

 private:
  void Complete(size_t i, Status s) {
    statuses_[i] = std::move(s);
    if (--remaining_ == 0 && done_) {
      auto d = std::move(done_);
      d(statuses_);
    }
  }

  std::vector<Status> statuses_;
  size_t remaining_;
  DoneCallback done_;
};

}  // namespace lazylog

#endif  // SRC_RPC_RPC_H_
