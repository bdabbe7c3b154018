#include "src/seq/fanout.h"

#include <memory>

namespace lazylog {

namespace {

struct FanoutState {
  RpcEndpoint* ep;
  MethodId method;
  Buf body;
  RetryPolicy policy;
  FanoutAccept accept;
  FanoutKeep keep;
  FanoutDone done;
  FanoutOutcome outcome;
  std::vector<uint32_t> tries;
  size_t open;
};
using StatePtr = std::shared_ptr<FanoutState>;

void Settle(FanoutState& st, size_t i, Settled how) {
  st.outcome.settled[i] = how;
  if (--st.open == 0 && st.done) {
    const FanoutDone fire = std::move(st.done);
    st.done = nullptr;
    fire(st.outcome);
  }
}

void Attempt(const StatePtr& st, size_t i);

void OnReply(const StatePtr& st, size_t i, const Status& s, Decoder& d) {
  if (st->accept ? st->accept(st->outcome.targets[i], s, d) : s.ok()) {
    Settle(*st, i, Settled::kAcked);
  } else if (st->policy.attempts != 0 && st->tries[i] >= st->policy.attempts) {
    Settle(*st, i, Settled::kExhausted);
  } else {
    st->ep->loop()->Schedule(st->policy.backoff_ns, [st, i]() { Attempt(st, i); });
  }
}

void Attempt(const StatePtr& st, size_t i) {
  const NodeId target = st->outcome.targets[i];
  if (st->keep && !st->keep(target)) {
    Settle(*st, i, Settled::kDropped);
    return;
  }
  ++st->tries[i];
  st->ep->Call(target, st->method, st->body,
               [st, i](Status s, Decoder d) { OnReply(st, i, s, d); }, st->policy.timeout_ns);
}

}  // namespace

std::vector<NodeId> FanoutOutcome::With(Settled how) const {
  std::vector<NodeId> out;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (settled[i] == how) {
      out.push_back(targets[i]);
    }
  }
  return out;
}

void Fanout(RpcEndpoint* ep, MethodId method, std::vector<NodeId> targets, Buf body,
            RetryPolicy policy, FanoutAccept accept, FanoutKeep keep, FanoutDone done) {
  const size_t n = targets.size();
  auto st = std::make_shared<FanoutState>(FanoutState{
      ep, method, std::move(body), policy, std::move(accept), std::move(keep), std::move(done),
      {std::move(targets), std::vector<Settled>(n)}, std::vector<uint32_t>(n), n});
  if (n == 0 && st->done) {
    st->done(st->outcome);
  }
  for (size_t i = 0; i < n; ++i) {
    Attempt(st, i);
  }
}

}  // namespace lazylog
