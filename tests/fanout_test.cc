// Fanout tests: the controller's one retry primitive. Each target retries on its own
// at exactly timeout + backoff steps, settles as acked, exhausted or dropped, an OK
// reply that cannot be decoded is a failure, first attempts go out synchronously, and
// nothing keeps the step's state alive once `done` has fired.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/seq/fanout.h"

namespace lazylog {
namespace {

constexpr MethodId kFlaky = 1;   // parks the first `silent_` calls, then answers OK
constexpr MethodId kEmpty = 2;   // answers OK with an empty body
constexpr MethodId kNumber = 3;  // answers OK with a u64

constexpr RetryPolicy kPolicy{1 * kMs, 500 * kUs, 0};

class FanoutTest : public ::testing::Test {
 protected:
  FanoutTest() : net_(&loop_, NoJitter(), 1), server_(&net_), other_(&net_), client_(&net_) {
    for (RpcEndpoint* ep : {&server_, &other_}) {
      ep->Register(kFlaky, [this](NodeId, Decoder, Responder r) {
        arrivals_.push_back(loop_.Now());
        if (arrivals_.size() <= silent_) {
          parked_.push_back(std::move(r));  // never answered: the caller times out
          return;
        }
        r.Send(Status::Ok());
      });
      ep->Register(kEmpty, [](NodeId, Decoder, Responder r) { r.Send(Status::Ok()); });
      ep->Register(kNumber, [](NodeId, Decoder, Responder r) {
        Encoder e;
        e.PutU64(42);
        r.Ok(e);
      });
    }
  }

  static NetworkParams NoJitter() {
    NetworkParams p;
    p.jitter_ns = 0;
    return p;
  }

  // Runs one Fanout to completion and returns its outcome.
  FanoutOutcome RunFanout(MethodId method, std::vector<NodeId> targets, RetryPolicy policy,
                          FanoutAccept accept = nullptr, FanoutKeep keep = nullptr) {
    FanoutOutcome result;
    bool done = false;
    Fanout(&client_, method, std::move(targets), Buf(), policy, std::move(accept),
           std::move(keep), [&](const FanoutOutcome& out) {
             result = out;
             done_at_ = loop_.Now();
             done = true;
           });
    loop_.RunUntilIdle();
    EXPECT_TRUE(done);
    return result;
  }

  EventLoop loop_;
  Network net_;
  RpcEndpoint server_;
  RpcEndpoint other_;
  RpcEndpoint client_;
  size_t silent_ = 0;
  std::vector<SimTime> arrivals_;
  std::vector<Responder> parked_;
  SimTime done_at_ = 0;
};

// (a) Two timed-out attempts, then an ack: attempts are exactly timeout + backoff apart.
TEST_F(FanoutTest, RetriesAtTimeoutPlusBackoffSteps) {
  silent_ = 2;
  const FanoutOutcome out = RunFanout(kFlaky, {server_.node_id()}, kPolicy);
  ASSERT_EQ(out.settled.size(), 1u);
  EXPECT_EQ(out.settled[0], Settled::kAcked);
  ASSERT_EQ(arrivals_.size(), 3u);
  EXPECT_EQ(arrivals_[1] - arrivals_[0], kPolicy.timeout_ns + kPolicy.backoff_ns);
  EXPECT_EQ(arrivals_[2] - arrivals_[1], kPolicy.timeout_ns + kPolicy.backoff_ns);
}

// (b) A target that never answers is reported exhausted after exactly `attempts` calls.
TEST_F(FanoutTest, TargetOutOfAttemptsIsExhausted) {
  silent_ = 100;
  const FanoutOutcome out = RunFanout(kFlaky, {server_.node_id()}, {1 * kMs, 500 * kUs, 3});
  EXPECT_EQ(out.With(Settled::kExhausted), std::vector<NodeId>{server_.node_id()});
  EXPECT_EQ(arrivals_.size(), 3u);
  EXPECT_EQ(done_at_, 3 * kMs + 2 * 500 * kUs);
}

// (c) `keep` turning false while a target backs off stops it before the next attempt.
TEST_F(FanoutTest, KeepFalseMidRetryDropsTarget) {
  silent_ = 100;
  bool keep = true;
  loop_.Schedule(kPolicy.timeout_ns + kPolicy.backoff_ns / 2, [&keep]() { keep = false; });
  const FanoutOutcome out =
      RunFanout(kFlaky, {server_.node_id()}, kPolicy, nullptr, [&keep](NodeId) { return keep; });
  EXPECT_EQ(out.With(Settled::kDropped), std::vector<NodeId>{server_.node_id()});
  EXPECT_EQ(arrivals_.size(), 1u);
  EXPECT_EQ(done_at_, kPolicy.timeout_ns + kPolicy.backoff_ns);
}

// (d) An OK reply that `accept` cannot decode is a failed attempt, not an ack.
TEST_F(FanoutTest, UndecodableOkReplyIsAFailure) {
  auto decode = [](NodeId, const Status& s, Decoder& d) {
    uint64_t v = 0;
    return s.ok() && d.GetU64(&v) && v == 42;
  };
  const RetryPolicy twice{1 * kMs, 500 * kUs, 2};
  const FanoutOutcome bad = RunFanout(kEmpty, {server_.node_id()}, twice, decode);
  EXPECT_EQ(bad.settled[0], Settled::kExhausted);
  EXPECT_EQ(client_.stats().calls_issued, 2u);
  const FanoutOutcome good = RunFanout(kNumber, {server_.node_id()}, twice, decode);
  EXPECT_EQ(good.settled[0], Settled::kAcked);
}

// First attempts go out synchronously, in target order; an empty target list settles at
// once.
TEST_F(FanoutTest, FirstAttemptsAreSynchronous) {
  Fanout(&client_, kNumber, {server_.node_id(), other_.node_id()}, Buf(), kPolicy, nullptr,
         nullptr, nullptr);
  EXPECT_EQ(client_.stats().calls_issued, 2u);
  EXPECT_EQ(loop_.Now(), 0u);
  bool done = false;
  Fanout(&client_, kNumber, {}, Buf(), kPolicy, nullptr, nullptr,
         [&done](const FanoutOutcome& out) { done = out.targets.empty(); });
  EXPECT_TRUE(done);
}

// (e) Once `done` has fired, no closure keeps the step's state (and what its callbacks
// captured) alive: retry chains own the state, the state does not own itself.
TEST_F(FanoutTest, StateIsFreedOnceDone) {
  silent_ = 2;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> weak = token;
  bool done = false;
  Fanout(&client_, kFlaky, {server_.node_id(), other_.node_id()}, Buf(), kPolicy,
         [token](NodeId, const Status& s, Decoder&) { return s.ok(); },
         [token](NodeId) { return true; }, [token, &done](const FanoutOutcome&) { done = true; });
  token.reset();
  EXPECT_FALSE(weak.expired());  // in flight: the calls own the state
  loop_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace lazylog
