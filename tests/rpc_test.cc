// RPC layer tests: dispatch, async responders, timeouts, late responses, cancellation,
// and the Gather fan-out helper.
#include <gtest/gtest.h>

#include "src/rpc/rpc.h"

namespace lazylog {
namespace {

constexpr MethodId kEcho = 1;
constexpr MethodId kNever = 2;
constexpr MethodId kDeferred = 3;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : net_(&loop_, NetworkParams{}, 1), server_(&net_), client_(&net_) {
    server_.Register(kEcho, [](NodeId, Decoder d, Responder r) {
      std::string s;
      d.GetBytes(&s);
      Encoder e;
      e.PutBytes(s);
      r.Ok(e);
    });
    server_.Register(kNever, [this](NodeId, Decoder, Responder r) {
      parked_.push_back(std::move(r));  // never answered (until test flushes)
    });
    server_.Register(kDeferred, [this](NodeId, Decoder, Responder r) {
      loop_.Schedule(5 * kMs, [r]() mutable { r.Send(Status::Ok(), "late"); });
    });
  }

  EventLoop loop_;
  Network net_;
  RpcEndpoint server_;
  RpcEndpoint client_;
  std::vector<Responder> parked_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  Encoder e;
  e.PutBytes("ping");
  Status status = Status::Internal("unset");
  std::string reply;
  client_.Call(server_.node_id(), kEcho, e,
               [&](Status s, Decoder d) {
                 status = std::move(s);
                 d.GetBytes(&reply);
               },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(reply, "ping");
}

TEST_F(RpcTest, UnknownMethodReturnsError) {
  Status status;
  client_.Call(server_.node_id(), 999, "", [&](Status s, Decoder) { status = s; },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(RpcTest, TimeoutFiresWhenServerSilent) {
  Status status;
  client_.Call(server_.node_id(), kNever, "", [&](Status s, Decoder) { status = s; },
               10 * kMs);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, LateResponseAfterTimeoutIsDropped) {
  int calls = 0;
  client_.Call(server_.node_id(), kNever, "",
               [&](Status, Decoder) { calls++; }, 10 * kMs);
  loop_.RunUntil(20 * kMs);
  EXPECT_EQ(calls, 1);
  // Server finally responds; the client must not invoke the callback again.
  for (auto& r : parked_) {
    r.Send(Status::Ok());
  }
  parked_.clear();
  loop_.RunUntilIdle();
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, DeferredResponderWorks) {
  Status status = Status::Internal("unset");
  std::string body_out;
  client_.Call(server_.node_id(), kDeferred, "",
               [&](Status s, Decoder d) {
                 status = std::move(s);
                 body_out = d.RemainingString();
               },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(body_out, "late");
}

TEST_F(RpcTest, ErrorStatusPropagates) {
  server_.Register(kEcho, [](NodeId, Decoder, Responder r) {
    r.Send(Status::Sealed("try later"));
  });
  Status status;
  client_.Call(server_.node_id(), kEcho, "", [&](Status s, Decoder) { status = s; },
               kSec);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kSealed);
  EXPECT_EQ(status.message(), "try later");
}

TEST_F(RpcTest, CancelAllFailsOutstanding) {
  Status status;
  client_.Call(server_.node_id(), kNever, "", [&](Status s, Decoder) { status = s; },
               0);
  client_.CancelAll();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

// A call with no callback and no timeout registers nothing, so a destination that
// never answers cannot leak a pending entry.
TEST_F(RpcTest, FireAndForgetToCrashedNodeRegistersNothing) {
  net_.Crash(server_.node_id());
  client_.Call(server_.node_id(), kEcho, "", nullptr, 0);
  loop_.RunUntilIdle();
  client_.CancelAll();
  EXPECT_EQ(client_.stats().calls_issued, 1u);
  EXPECT_EQ(client_.stats().cancelled, 0u);
}

TEST_F(RpcTest, FireAndForgetReplyIsDroppedAsLate) {
  client_.Call(server_.node_id(), kEcho, "", nullptr, 0);
  loop_.RunUntilIdle();
  EXPECT_EQ(net_.messages_delivered(), 2u);  // the server still answered
  EXPECT_EQ(client_.stats().responses_received, 0u);
}

TEST_F(RpcTest, CancelAllRunsInIdOrder) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    client_.Call(server_.node_id(), kNever, "", [&order, i](Status, Decoder) {
      order.push_back(i);
    }, 0);
    client_.Call(server_.node_id(), kEcho, "", nullptr, 0);  // leaves a gap in the ids
  }
  client_.CancelAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(client_.stats().cancelled, 5u);
}

// Out-of-order completion across ring growth and wraparound: 50 parked calls answered
// in reverse, interleaved with echo calls that complete first.
TEST_F(RpcTest, OutOfOrderCompletionsMatchTheirCalls) {
  std::vector<int> got(50, -1);
  int echoes = 0;
  for (int i = 0; i < 50; ++i) {
    Encoder e;
    e.PutU32(static_cast<uint32_t>(i));
    client_.Call(server_.node_id(), kNever, e, [&got, i](Status s, Decoder d) {
      if (s.ok()) {
        got[i] = i;
      }
    }, kSec);
    client_.Call(server_.node_id(), kEcho, "", [&echoes](Status, Decoder) { echoes++; },
                 kSec);
  }
  loop_.RunUntil(loop_.Now() + kMs);
  EXPECT_EQ(echoes, 50);
  ASSERT_EQ(parked_.size(), 50u);
  for (auto it = parked_.rbegin(); it != parked_.rend(); ++it) {
    it->Send(Status::Ok());
  }
  parked_.clear();
  loop_.RunUntilIdle();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[i], i);
  }
  EXPECT_EQ(client_.stats().responses_received, 100u);
  EXPECT_EQ(client_.stats().timeouts, 0u);
}

TEST_F(RpcTest, ResponderCopiesShareOneSendOnceToken) {
  server_.Register(kEcho, [this](NodeId, Decoder, Responder r) {
    Responder copy = r;
    EXPECT_TRUE(r.valid());
    copy.Send(Status::Ok());
    EXPECT_FALSE(r.valid());
    EXPECT_FALSE(copy.valid());
    parked_.push_back(std::move(r));  // outlives the request without answering again
  });
  Status status = Status::Internal("unset");
  client_.Call(server_.node_id(), kEcho, "", [&](Status s, Decoder) { status = s; }, kSec);
  loop_.RunUntilIdle();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(client_.stats().responses_received, 1u);
}

// The wire layout of both frame kinds, byte for byte: single-pass framing writes the
// header in front of the body in place, and must produce exactly the sequential
// encoding below (header fields, then the length-prefixed body).
TEST_F(RpcTest, FramesKeepTheirByteLayout) {
  std::vector<NetMessage> seen;
  const NodeId raw = net_.AddNode([&seen](NetMessage&& m) { seen.push_back(std::move(m)); });

  Encoder body;
  body.PutBytes("ping");
  client_.Call(raw, kEcho, body, nullptr, kSec);
  loop_.RunUntil(loop_.Now() + kMs);
  ASSERT_EQ(seen.size(), 1u);
  Encoder want;
  want.PutU8(1);  // request
  want.PutU32(kEcho);
  want.PutU64(1);  // the endpoint's first rpc id
  want.PutBytes(std::string("\x04\x00\x00\x00ping", 8));
  EXPECT_EQ(seen[0].payload.view(), want.data());

  // Hand-built request to the echo server; its response frame must match too.
  Encoder req;
  req.PutU8(1);
  req.PutU32(kEcho);
  req.PutU64(77);
  req.PutBytes(std::string("\x02\x00\x00\x00hi", 6));
  net_.Send(raw, server_.node_id(), req.TakeBuf());
  loop_.RunUntil(loop_.Now() + kMs);
  ASSERT_EQ(seen.size(), 2u);
  Encoder resp;
  resp.PutU8(2);  // response
  resp.PutU64(77);
  resp.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  resp.PutBytes(std::string());
  resp.PutBytes(std::string("\x02\x00\x00\x00hi", 6));
  EXPECT_EQ(seen[1].payload.view(), resp.data());

  // An error status carries its message in the header.
  server_.Register(kEcho, [](NodeId, Decoder, Responder r) { r.Send(Status::Sealed("no")); });
  Encoder req2;
  req2.PutU8(1);
  req2.PutU32(kEcho);
  req2.PutU64(78);
  req2.PutBytes(std::string());
  net_.Send(raw, server_.node_id(), req2.TakeBuf());
  loop_.RunUntil(loop_.Now() + kMs);
  ASSERT_EQ(seen.size(), 3u);
  Encoder err;
  err.PutU8(2);
  err.PutU64(78);
  err.PutU8(static_cast<uint8_t>(StatusCode::kSealed));
  err.PutBytes(std::string("no"));
  err.PutBytes(std::string());
  EXPECT_EQ(seen[2].payload.view(), err.data());
}

TEST_F(RpcTest, CallToCrashedServerTimesOut) {
  net_.Crash(server_.node_id());
  Status status;
  client_.Call(server_.node_id(), kEcho, "", [&](Status s, Decoder) { status = s; },
               5 * kMs);
  loop_.RunUntilIdle();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST_F(RpcTest, ManyConcurrentCallsMatchResponses) {
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    Encoder e;
    e.PutBytes("m" + std::to_string(i));
    const std::string want = "m" + std::to_string(i);
    client_.Call(server_.node_id(), kEcho, e,
                 [&ok, want](Status s, Decoder d) {
                   std::string got;
                   d.GetBytes(&got);
                   if (s.ok() && got == want) {
                     ok++;
                   }
                 },
                 kSec);
  }
  loop_.RunUntilIdle();
  EXPECT_EQ(ok, 100);
}

TEST(Gather, CompletesOnceAllSlotsDone) {
  bool done = false;
  std::vector<Status> result;
  auto gather = Gather::Create(3, [&](const std::vector<Status>& ss) {
    done = true;
    result = ss;
  });
  auto s0 = gather->Slot(0);
  auto s1 = gather->Slot(1);
  auto s2 = gather->Slot(2);
  s1(Status::Ok(), Decoder());
  EXPECT_FALSE(done);
  s0(Status::Timeout(), Decoder());
  EXPECT_FALSE(done);
  s2(Status::Ok(), Decoder());
  ASSERT_TRUE(done);
  EXPECT_TRUE(result[0].code() == StatusCode::kTimeout);
  EXPECT_TRUE(result[1].ok());
  EXPECT_TRUE(result[2].ok());
}

TEST(Gather, SurvivesCallerRelease) {
  bool done = false;
  RpcEndpoint::ResponseCallback cb;
  {
    auto gather = Gather::Create(1, [&](const std::vector<Status>&) { done = true; });
    cb = gather->Slot(0);
  }  // gather's shared_ptr released; the slot keeps it alive
  cb(Status::Ok(), Decoder());
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace lazylog
