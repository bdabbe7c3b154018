// The control plane's one retry shape (§4.5): send one encoded request to a list of
// targets and retry each target on its own until a reply is accepted, its attempts run
// out, or the caller stops caring about it. Every controller step that must reach a set
// of servers (seal, fence, flush, start-view, promo-seal, promote, state copy, config
// push) is one Fanout; DESIGN.md §3.1 tabulates their timings.
#ifndef SRC_SEQ_FANOUT_H_
#define SRC_SEQ_FANOUT_H_

#include <functional>
#include <vector>

#include "src/rpc/rpc.h"

namespace lazylog {

struct RetryPolicy {
  uint64_t timeout_ns = 0;  // per attempt
  uint64_t backoff_ns = 0;  // from a failed reply to the next attempt
  uint32_t attempts = 0;    // 0 = unbounded
};

enum class Settled : uint8_t { kAcked, kDropped, kExhausted };

// How each target settled, in target order.
struct FanoutOutcome {
  std::vector<NodeId> targets;
  std::vector<Settled> settled;
  std::vector<NodeId> With(Settled how) const;
};

// Decides whether a reply settles its target as acked; may decode the reply (an OK reply
// it cannot decode is a failed attempt).
using FanoutAccept = std::function<bool(NodeId, const Status&, Decoder&)>;
// Checked before every attempt; false settles the target as dropped.
using FanoutKeep = std::function<bool(NodeId)>;
using FanoutDone = std::function<void(const FanoutOutcome&)>;

// Sends the first attempts synchronously, in target order, so a step adds no event
// before its first RPC. `done` fires once every target has settled (synchronously if
// none is sent). Null `accept` accepts any OK reply; null `keep` keeps every target.
// Only in-flight calls and scheduled retries own the step's state, so it is freed as
// soon as the last target settles.
void Fanout(RpcEndpoint* ep, MethodId method, std::vector<NodeId> targets, Buf body,
            RetryPolicy policy, FanoutAccept accept, FanoutKeep keep, FanoutDone done);

}  // namespace lazylog

#endif  // SRC_SEQ_FANOUT_H_
