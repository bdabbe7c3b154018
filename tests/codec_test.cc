// Codec tests: scalar and composite round trips, malformed-input robustness (every
// decoder must fail cleanly, never crash), and property-style random round trips.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/index/index_messages.h"
#include "src/seq/seq_messages.h"
#include "src/storage/shard_messages.h"

namespace lazylog {
namespace {

TEST(Codec, ScalarRoundTrip) {
  Encoder e;
  e.PutU8(7);
  e.PutU32(123456);
  e.PutU64(0xdeadbeefcafef00dULL);
  e.PutBool(true);
  e.PutBool(false);
  Decoder d(e.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  bool b1, b2;
  ASSERT_TRUE(d.GetU8(&u8));
  ASSERT_TRUE(d.GetU32(&u32));
  ASSERT_TRUE(d.GetU64(&u64));
  ASSERT_TRUE(d.GetBool(&b1));
  ASSERT_TRUE(d.GetBool(&b2));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(d.Done());
}

TEST(Codec, BytesRoundTrip) {
  Encoder e;
  e.PutBytes("");
  e.PutBytes(std::string("with\0nul", 8));
  Decoder d(e.data());
  std::string a, b;
  ASSERT_TRUE(d.GetBytes(&a));
  ASSERT_TRUE(d.GetBytes(&b));
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, std::string("with\0nul", 8));
}

TEST(Codec, U64VectorRoundTrip) {
  Encoder e;
  e.PutU64Vector({1, 2, 3, UINT64_MAX});
  Decoder d(e.data());
  std::vector<uint64_t> v;
  ASSERT_TRUE(d.GetU64Vector(&v));
  EXPECT_EQ(v, (std::vector<uint64_t>{1, 2, 3, UINT64_MAX}));
}

// Status codes cross the wire as a single u8 (rpc.cc response header); every code —
// including the newest, kOverloaded — must survive the cast round-trip unchanged.
TEST(Codec, StatusCodeWireRoundTrip) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kTimeout, StatusCode::kUnavailable,
                          StatusCode::kWrongView, StatusCode::kSealed,
                          StatusCode::kOutOfRange, StatusCode::kDuplicate,
                          StatusCode::kRejected, StatusCode::kNotLeader,
                          StatusCode::kStaleView, StatusCode::kInternal,
                          StatusCode::kInvalidArgument, StatusCode::kOverloaded}) {
    Encoder e;
    e.PutU8(static_cast<uint8_t>(code));
    Decoder d(e.data());
    uint8_t raw = 0xff;
    ASSERT_TRUE(d.GetU8(&raw));
    EXPECT_EQ(static_cast<StatusCode>(raw), code) << StatusCodeName(code);
  }
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder e;
  e.PutU64(42);
  e.PutBytes("hello");
  const std::string full(e.data());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder d(full.data(), cut);
    uint64_t x;
    std::string s;
    const bool got_u64 = d.GetU64(&x);
    if (got_u64) {
      EXPECT_FALSE(d.GetBytes(&s)) << "cut=" << cut;
    }
  }
}

TEST(Codec, LengthPrefixBeyondBufferRejected) {
  Encoder e;
  e.PutU32(1'000'000);  // claims a 1MB string follows
  Decoder d(e.data());
  std::string s;
  EXPECT_FALSE(d.GetBytes(&s));
}

// `decode_args` go to Decode after the decoder (a window's body selector).
template <typename T, typename... DecodeArgs>
void ExpectRoundTrip(const T& msg, DecodeArgs... decode_args) {
  Encoder e;
  msg.Encode(e);
  std::vector<Buf> atts = e.TakeAtts();
  const Buf body = e.TakeBuf();
  Decoder d(body, atts);
  T out;
  ASSERT_TRUE(out.Decode(d, decode_args...));
  // Re-encoding the decoded message must reproduce the inline bytes and every
  // attachment byte-for-byte.
  Encoder e2;
  out.Encode(e2);
  std::vector<Buf> atts2 = e2.TakeAtts();
  EXPECT_EQ(body.ToString(), e2.TakeBuf().ToString());
  ASSERT_EQ(atts2.size(), atts.size());
  for (size_t i = 0; i < atts.size(); ++i) {
    EXPECT_EQ(atts[i].ToString(), atts2[i].ToString());
  }
  EXPECT_TRUE(d.Done());
}

TEST(Codec, RecordRoundTrip) {
  Record r{RecordId{7, 9}, "payload", true};
  Encoder e;
  EncodeRecord(e, r);
  // The payload travels as an attachment; the decoder must receive both parts.
  Decoder d(e.TakeBuf(), e.TakeAtts());
  Record out;
  ASSERT_TRUE(DecodeRecord(d, &out));
  EXPECT_EQ(out, r);
}

TEST(Codec, TaggedRecordRoundTrip) {
  for (bool no_op : {false, true}) {
    for (StreamTag tag : {kNoTag, StreamTag{1}, StreamTag{0xfeedfacecafebeefULL}}) {
      Record r{RecordId{3, 4}, "pay", no_op, tag};
      Encoder e;
      EncodeRecord(e, r);
      Decoder d(e.TakeBuf(), e.TakeAtts());
      Record out;
      ASSERT_TRUE(DecodeRecord(d, &out)) << "no_op=" << no_op << " tag=" << tag;
      EXPECT_EQ(out, r);
      EXPECT_TRUE(d.Done());
    }
  }
}

// Untagged records must stay byte-identical to the pre-tag wire format, whose trailing
// byte was PutBool(no_op): old frames decode under the new codec and vice versa.
TEST(Codec, UntaggedRecordIsLegacyByteCompatible) {
  for (bool no_op : {false, true}) {
    Record r{RecordId{11, 12}, "legacy", no_op};
    Encoder now;
    EncodeRecord(now, r);
    Encoder legacy;  // the pre-tag encoder: id, attached payload, bool no_op
    EncodeRecordId(legacy, r.id);
    legacy.PutAttached(r.payload);
    legacy.PutBool(r.no_op);
    EXPECT_EQ(now.TakeBuf().ToString(), legacy.TakeBuf().ToString()) << "no_op=" << no_op;
  }
}

// A flags byte with unknown bits set is malformed input, not a silent truncation; so is
// a has-tag flag with no tag bytes behind it.
TEST(Codec, MalformedRecordFlagsRejected) {
  for (uint8_t flags : {uint8_t{0x4}, uint8_t{0x80}, uint8_t{0xff}}) {
    Encoder e;
    EncodeRecordId(e, RecordId{1, 1});
    e.PutAttached(Buf("x"));
    e.PutU8(flags);
    Decoder d(e.TakeBuf(), e.TakeAtts());
    Record out;
    EXPECT_FALSE(DecodeRecord(d, &out)) << "flags=" << int{flags};
  }
  Encoder e;
  EncodeRecordId(e, RecordId{1, 1});
  e.PutAttached(Buf("x"));
  e.PutU8(kRecordFlagHasTag);  // claims a u64 tag follows, but the frame ends here
  Decoder d(e.TakeBuf(), e.TakeAtts());
  Record out;
  EXPECT_FALSE(DecodeRecord(d, &out));
}

TEST(Codec, TaggedSeqAppendLegacyByteCompatible) {
  SeqAppendReq app;
  app.view = 5;
  app.id = RecordId{1, 2};
  app.payload = "p";
  app.target_shard = 7;
  app.is_meta = true;
  ExpectRoundTrip(app);
  app.tag = 42;
  ExpectRoundTrip(app);
  // Untagged frame == the pre-tag encoding, whose trailing byte was PutBool(is_meta).
  SeqAppendReq untagged = app;
  untagged.tag = kNoTag;
  Encoder now;
  untagged.Encode(now);
  Encoder legacy;
  legacy.PutU64(untagged.view);
  EncodeRecordId(legacy, untagged.id);
  legacy.PutAttached(untagged.payload);
  legacy.PutU32(untagged.target_shard);
  legacy.PutBool(untagged.is_meta);
  EXPECT_EQ(now.TakeBuf().ToString(), legacy.TakeBuf().ToString());
  // Unknown flag bits bail out.
  Encoder bad;
  bad.PutU64(1);
  EncodeRecordId(bad, RecordId{1, 1});
  bad.PutAttached(Buf("x"));
  bad.PutU32(0);
  bad.PutU8(0x10);
  Decoder d(bad.TakeBuf(), bad.TakeAtts());
  SeqAppendReq out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, TaggedShardPutDataRoundTrip) {
  ShardPutDataReq put{RecordId{9, 10}, "data", 1234};
  ExpectRoundTrip(put);
  // has-tag flag without the tag bytes is malformed.
  Encoder e;
  EncodeRecordId(e, put.id);
  e.PutAttached(put.payload);
  e.PutU8(kRecordFlagHasTag);
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardPutDataReq out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, IndexMessagesRoundTrip) {
  ExpectRoundTrip(ShardIndexDeltaReq{17, 128});

  ShardIndexDeltaResp delta;
  delta.from_seq = 17;
  delta.next_seq = 20;
  delta.stable_gp = 99;
  delta.exported_below = 95;
  delta.entries = {TagIndexEntry{1, 3}, TagIndexEntry{1, 7}, TagIndexEntry{2, 5}};
  ExpectRoundTrip(delta);

  ExpectRoundTrip(IndexReadNextReq{5, 100, 32});

  IndexReadNextResp next;
  next.positions = {4, 8};
  next.shard_ids = {0, 1};
  next.indexed_upto = 12;
  ExpectRoundTrip(next);
}

// positions/shard_ids are parallel vectors; a response where they disagree in length
// is malformed (a client walking them in lockstep would read out of bounds).
TEST(Codec, IndexReadNextRespLengthMismatchRejected) {
  Encoder e;
  e.PutU64Vector({1, 2, 3});
  e.PutU64Vector({0});
  e.PutU64(10);
  Decoder d(e.TakeBuf());
  IndexReadNextResp out;
  EXPECT_FALSE(out.Decode(d));
}

TEST(Codec, ShardMessagesRoundTrip) {
  ShardWindowReq batch;
  batch.view = 3;
  batch.overwrite = true;
  batch.truncate_from = 17;
  batch.records.push_back(PositionedRecord{5, Record{RecordId{1, 2}, "abc", false}});
  batch.records.push_back(PositionedRecord{8, Record{RecordId{1, 3}, "", true}});
  ExpectRoundTrip(batch, /*meta_body=*/false);

  ShardPutDataReq put{RecordId{9, 10}, "data"};
  ExpectRoundTrip(put);

  ShardWindowReq meta;
  meta.view = 1;
  meta.entries.push_back(MetaEntry{0, RecordId{1, 1}, 2});
  ExpectRoundTrip(meta, /*meta_body=*/true);

  ShardPosMapReq pm{100, 50};
  ExpectRoundTrip(pm);
  ShardPosMapResp pmr;
  pmr.from = 100;
  pmr.shard_ids = {0, 1, 2};
  ExpectRoundTrip(pmr);

  ExpectRoundTrip(StableGpMsg{2, 99});
  ExpectRoundTrip(TrimMsg{55});
  ExpectRoundTrip(FetchRecordReq{7});
  ExpectRoundTrip(NoOpMsg{3, RecordId{4, 5}});
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

// Both window bodies keep the exact frames the two former window messages had (one for
// Erwin-m records, one for Erwin-st metadata); the hex was captured from those encoders.
TEST(Codec, WindowFramesMatchFormerMessages) {
  ShardWindowReq m;
  m.view = 3;
  m.overwrite = true;
  m.truncate_from = 17;
  m.range_lo = 17;
  m.range_hi = 21;
  m.records.push_back(PositionedRecord{17, Record{RecordId{1, 2}, "abc", false}});
  m.records.push_back(PositionedRecord{20, Record{RecordId{1, 3}, "", true, 42}});
  Encoder em;
  m.Encode(em);
  const std::vector<Buf> atts = em.TakeAtts();
  EXPECT_EQ(Hex(em.TakeBuf().ToString()),
            "0300000000000000011100000000000000110000000000000015000000000000000200000011"
            "0000000000000001000000000000000200000000000000030000000014000000000000000100"
            "000000000000030000000000000000000000032a00000000000000");
  ASSERT_EQ(atts.size(), 1u);
  EXPECT_EQ(atts[0].ToString(), "abc");

  ShardWindowReq st;
  st.view = 2;
  st.range_lo = 8;
  st.range_hi = 10;
  st.entries.push_back(MetaEntry{8, RecordId{5, 6}, 1});
  st.entries.push_back(MetaEntry{9, RecordId{7, 8}, 0});
  Encoder es;
  st.Encode(es);
  EXPECT_TRUE(es.TakeAtts().empty());
  EXPECT_EQ(Hex(es.TakeBuf().ToString()),
            "020000000000000000000000000000000008000000000000000a0000000000000002000000080000"
            "00000000000500000000000000060000000000000001000000090000000000000007000000000000"
            "00080000000000000000000000");

  // An empty window has the same frame whichever body the receiver expects.
  ShardWindowReq empty;
  empty.range_lo = 4;
  empty.range_hi = 6;
  ExpectRoundTrip(empty, /*meta_body=*/false);
  ExpectRoundTrip(empty, /*meta_body=*/true);
}

// The one shard read verb: a list of ranges plus the wait flag, answered with per-range
// counts over the concatenated records and the tail/queue piggyback.
TEST(MultiRangeCodec, RequestRoundTrip) {
  ShardReadReq req;
  req.ranges.push_back(ReadRange{0, 4});
  req.ranges.push_back(ReadRange{17, 1});
  req.ranges.push_back(ReadRange{1000000, 256});
  req.wait = true;
  Encoder e;
  req.Encode(e);
  Decoder d(e.data());
  ShardReadReq back;
  ASSERT_TRUE(back.Decode(d));
  ASSERT_EQ(back.ranges.size(), 3u);
  EXPECT_EQ(back.ranges[0].pos, 0u);
  EXPECT_EQ(back.ranges[0].len, 4u);
  EXPECT_EQ(back.ranges[2].pos, 1000000u);
  EXPECT_EQ(back.ranges[2].len, 256u);
  EXPECT_TRUE(back.wait);
  EXPECT_TRUE(d.Done());
}

TEST(MultiRangeCodec, ResponseRoundTripWithPiggyback) {
  ShardReadResp resp;
  resp.counts = {2, 0, 1};
  for (LogPos p : {5u, 6u, 40u}) {
    PositionedRecord rec;
    rec.pos = p;
    rec.record.payload = Buf("payload-" + std::to_string(p));
    resp.records.push_back(std::move(rec));
  }
  resp.stable_gp = 41;
  resp.durable_tail = 44;
  resp.queue_ns = 12345;
  Encoder e;
  resp.Encode(e);
  // Record payloads ride as attachments, so the decoder needs the attachment list.
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardReadResp back;
  ASSERT_TRUE(back.Decode(d));
  EXPECT_EQ(back.counts, (std::vector<uint32_t>{2, 0, 1}));
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[2].pos, 40u);
  EXPECT_EQ(back.records[2].record.payload.ToString(), "payload-40");
  EXPECT_EQ(back.stable_gp, 41u);
  EXPECT_EQ(back.durable_tail, 44u);
  EXPECT_EQ(back.queue_ns, 12345u);
  EXPECT_TRUE(d.Done());
}

// Every strict prefix of a read request or reply must fail to decode, never crash or
// decode into something shorter.
TEST(MultiRangeCodec, TruncatedResponseFailsCleanly) {
  ShardReadReq req{{ReadRange{3, 2}, ReadRange{9, 1}}, /*wait=*/true};
  Encoder re;
  req.Encode(re);
  const std::string req_bytes(re.data());
  for (size_t cut = 0; cut < req_bytes.size(); ++cut) {
    Decoder d(Buf(req_bytes.substr(0, cut)));
    ShardReadReq back;
    EXPECT_FALSE(back.Decode(d)) << "request decoded from a " << cut << "-byte prefix";
  }

  ShardReadResp resp;
  resp.counts = {1, 0};
  PositionedRecord rec;
  rec.pos = 3;
  rec.record.payload = Buf("x");
  resp.records.push_back(std::move(rec));
  Encoder e;
  resp.Encode(e);
  const std::string bytes(e.data());
  const std::vector<Buf> atts = e.TakeAtts();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(Buf(bytes.substr(0, cut)), atts);
    ShardReadResp back;
    EXPECT_FALSE(back.Decode(d)) << "reply decoded from a " << cut << "-byte prefix";
  }
  Decoder whole(Buf(bytes), atts);
  ShardReadResp back;
  EXPECT_TRUE(back.Decode(whole));
}

TEST(Codec, SeqMessagesRoundTrip) {
  SeqAppendReq app;
  app.view = 2;
  app.id = RecordId{10, 20};
  app.payload = "hello";
  app.target_shard = 3;
  app.is_meta = true;
  ExpectRoundTrip(app);

  SeqGcReq gc;
  gc.view = 1;
  gc.new_ordered_gp = 77;
  gc.ids.push_back(WireRecordId{RecordId{1, 1}});
  ExpectRoundTrip(gc);

  ExpectRoundTrip(SeqSealReq{4});
  ExpectRoundTrip(SeqSealResp{10, 5});
  ExpectRoundTrip(SeqFlushReq{6});

  SeqFlushResp fr;
  fr.new_ordered_gp = 12;
  fr.flushed_ids.push_back(WireRecordId{RecordId{2, 2}});
  ExpectRoundTrip(fr);

  SeqStartViewReq sv;
  sv.view = 9;
  sv.config = {1, 2, 3};
  sv.ordered_gp = 8;
  sv.stable_gp = 8;
  sv.flushed_ids.push_back(WireRecordId{RecordId{3, 3}});
  ExpectRoundTrip(sv);

  ExpectRoundTrip(SeqCheckTailResp{100, 90});

  SeqConfigResp cfg;
  cfg.view = 2;
  cfg.sealed = true;
  cfg.config = {5, 6};
  ExpectRoundTrip(cfg);
}

// Property: random record batches round-trip for many sizes and seeds.
class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, RandomBatchRoundTrip) {
  Rng rng(GetParam());
  ShardWindowReq batch;
  batch.view = rng.Next();
  batch.overwrite = rng.Chance(0.5);
  batch.truncate_from = rng.Next();
  const size_t n = rng.Uniform(64);
  for (size_t i = 0; i < n; ++i) {
    std::string payload(rng.Uniform(512), static_cast<char>('a' + rng.Uniform(26)));
    // ~half tagged: both flag-byte shapes must survive in the same batch.
    const StreamTag tag = rng.Chance(0.5) ? rng.Next() : kNoTag;
    batch.records.push_back(PositionedRecord{
        rng.Next(), Record{RecordId{rng.Next(), rng.Next()}, payload, rng.Chance(0.1), tag}});
  }
  Encoder e;
  batch.Encode(e);
  Decoder d(e.TakeBuf(), e.TakeAtts());
  ShardWindowReq out;
  ASSERT_TRUE(out.Decode(d, /*meta_body=*/false));
  ASSERT_EQ(out.records.size(), batch.records.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.records[i].pos, batch.records[i].pos);
    EXPECT_EQ(out.records[i].record, batch.records[i].record);
  }
}

// Every wire message type with a Decode method, for the fuzz passes below: the 22 of
// shard_messages.h (ShardWindowReq once per body), the 15 of seq_messages.h and the 2
// of index_messages.h. `make` encodes a random valid message; `decode` decodes one
// and, on success, re-encodes what it decoded into `out`.
struct WireType {
  const char* name;
  std::function<void(Rng&, Encoder&)> make;
  std::function<bool(Decoder&, Encoder& out)> decode;
};

// Mostly small values, which keeps vector lengths and flags in range, and some full
// 64-bit ones.
uint64_t RandU64(Rng& rng) { return rng.Chance(0.7) ? rng.Uniform(16) : rng.Next(); }
uint32_t RandU32(Rng& rng) { return static_cast<uint32_t>(RandU64(rng)); }
RecordId RandId(Rng& rng) { return RecordId{RandU64(rng), RandU64(rng)}; }
Buf RandPayload(Rng& rng) { return Buf::FromString(std::string(rng.Uniform(24), 'p')); }
std::vector<uint64_t> RandU64s(Rng& rng) {
  std::vector<uint64_t> v(rng.Uniform(4));
  for (uint64_t& x : v) {
    x = RandU64(rng);
  }
  return v;
}
template <typename T>
std::vector<T> RandVec(Rng& rng, T (*make)(Rng&)) {
  std::vector<T> v(rng.Uniform(4));
  for (T& x : v) {
    x = make(rng);
  }
  return v;
}
Record RandRecord(Rng& rng) {
  Record r{RandId(rng), RandPayload(rng), rng.Chance(0.2)};
  r.tag = RandU64(rng);
  r.log = RandU64(rng);
  return r;
}
PositionedRecord RandPositioned(Rng& rng) { return PositionedRecord{RandU64(rng), RandRecord(rng)}; }
MetaEntry RandMeta(Rng& rng) { return MetaEntry{RandU64(rng), RandId(rng), RandU32(rng)}; }
ReadRange RandRange(Rng& rng) { return ReadRange{RandU64(rng), RandU32(rng)}; }
TagIndexEntry RandTagEntry(Rng& rng) {
  return TagIndexEntry{RandU64(rng), RandU64(rng), RandU64(rng)};
}
WireRecordId RandWireId(Rng& rng) { return WireRecordId{RandId(rng)}; }
LogRegistryEntry RandRegistryEntry(Rng& rng) {
  return LogRegistryEntry{RandU64(rng), std::string(rng.Uniform(8), 'n'), RandU64(rng),
                          rng.Chance(0.5)};
}

template <typename T>
WireType Wire(const char* name, T (*make)(Rng&)) {
  return WireType{name, [make](Rng& rng, Encoder& e) { make(rng).Encode(e); },
                  [](Decoder& d, Encoder& out) {
                    T m;
                    if (!m.Decode(d)) {
                      return false;
                    }
                    m.Encode(out);
                    return true;
                  }};
}

// ShardWindowReq picks its body by the receiver's mode: one entry per body.
WireType Window(const char* name, bool meta_body) {
  return WireType{name,
                  [meta_body](Rng& rng, Encoder& e) {
                    ShardWindowReq m;
                    m.view = RandU64(rng);
                    m.overwrite = rng.Chance(0.5);
                    m.truncate_from = RandU64(rng);
                    m.range_lo = RandU64(rng);
                    m.range_hi = RandU64(rng);
                    if (meta_body) {
                      m.entries = RandVec(rng, RandMeta);
                    } else {
                      m.records = RandVec(rng, RandPositioned);
                    }
                    m.Encode(e);
                  },
                  [meta_body](Decoder& d, Encoder& out) {
                    ShardWindowReq m;
                    if (!m.Decode(d, meta_body)) {
                      return false;
                    }
                    m.Encode(out);
                    return true;
                  }};
}

const std::vector<WireType>& AllWireTypes() {
  static const std::vector<WireType> types = {
      // shard_messages.h
      Wire<PositionedRecord>("PositionedRecord", RandPositioned),
      Wire<MetaEntry>("MetaEntry", RandMeta),
      Window("ShardWindowReq/records", false),
      Window("ShardWindowReq/entries", true),
      Wire<ShardOrderAckResp>("ShardOrderAckResp",
                              [](Rng& rng) { return ShardOrderAckResp{RandU64(rng)}; }),
      Wire<ReadRange>("ReadRange", RandRange),
      Wire<ShardReadReq>("ShardReadReq",
                         [](Rng& rng) {
                           return ShardReadReq{RandVec(rng, RandRange), rng.Chance(0.5)};
                         }),
      Wire<ShardReadResp>("ShardReadResp",
                          [](Rng& rng) {
                            ShardReadResp m;
                            m.records = RandVec(rng, RandPositioned);
                            m.counts.assign(rng.Uniform(4), RandU32(rng));
                            m.stable_gp = RandU64(rng);
                            m.durable_tail = RandU64(rng);
                            m.queue_ns = RandU64(rng);
                            return m;
                          }),
      Wire<ShardPutDataReq>("ShardPutDataReq",
                            [](Rng& rng) {
                              return ShardPutDataReq{RandId(rng), RandPayload(rng),
                                                     RandU64(rng), RandU64(rng)};
                            }),
      Wire<ShardPosMapReq>("ShardPosMapReq",
                           [](Rng& rng) {
                             return ShardPosMapReq{RandU64(rng), RandU32(rng),
                                                   rng.Chance(0.5)};
                           }),
      Wire<ShardPosMapResp>("ShardPosMapResp",
                            [](Rng& rng) {
                              return ShardPosMapResp{RandU64(rng), RandU64s(rng)};
                            }),
      Wire<TagIndexEntry>("TagIndexEntry", RandTagEntry),
      Wire<ShardIndexDeltaReq>("ShardIndexDeltaReq",
                               [](Rng& rng) {
                                 return ShardIndexDeltaReq{RandU64(rng), RandU32(rng)};
                               }),
      Wire<ShardIndexDeltaResp>("ShardIndexDeltaResp",
                                [](Rng& rng) {
                                  return ShardIndexDeltaResp{RandU64(rng), RandU64(rng),
                                                             RandU64(rng), RandU64(rng),
                                                             RandVec(rng, RandTagEntry)};
                                }),
      Wire<StableGpMsg>("StableGpMsg",
                        [](Rng& rng) {
                          return StableGpMsg{RandU64(rng), RandU64(rng), RandU64(rng)};
                        }),
      Wire<ShardSealReq>("ShardSealReq", [](Rng& rng) { return ShardSealReq{RandU64(rng)}; }),
      Wire<ShardCopyStateReq>("ShardCopyStateReq",
                              [](Rng& rng) { return ShardCopyStateReq{RandU32(rng)}; }),
      Wire<TrimMsg>("TrimMsg", [](Rng& rng) { return TrimMsg{RandU64(rng)}; }),
      Wire<ShardPromoSealReq>("ShardPromoSealReq",
                              [](Rng& rng) { return ShardPromoSealReq{RandU64(rng)}; }),
      Wire<ShardCompletenessResp>("ShardCompletenessResp",
                                  [](Rng& rng) {
                                    return ShardCompletenessResp{RandU64(rng), RandU64(rng),
                                                                 RandU64(rng), RandU64(rng),
                                                                 RandU64(rng)};
                                  }),
      Wire<ShardPromoteReq>("ShardPromoteReq",
                            [](Rng& rng) {
                              return ShardPromoteReq{RandU64(rng), RandU64s(rng),
                                                     RandU64s(rng)};
                            }),
      Wire<FetchRecordReq>("FetchRecordReq",
                           [](Rng& rng) { return FetchRecordReq{RandU64(rng)}; }),
      Wire<NoOpMsg>("NoOpMsg", [](Rng& rng) { return NoOpMsg{RandU64(rng), RandId(rng)}; }),
      // seq_messages.h
      Wire<WireRecordId>("WireRecordId", RandWireId),
      Wire<SeqAppendReq>("SeqAppendReq",
                         [](Rng& rng) {
                           return SeqAppendReq{RandU64(rng),    RandId(rng),
                                               RandPayload(rng), RandU32(rng),
                                               rng.Chance(0.5), RandU64(rng),
                                               RandU64(rng)};
                         }),
      Wire<SeqGcReq>("SeqGcReq",
                     [](Rng& rng) {
                       return SeqGcReq{RandU64(rng), RandU64(rng), RandVec(rng, RandWireId)};
                     }),
      Wire<SeqSealReq>("SeqSealReq", [](Rng& rng) { return SeqSealReq{RandU64(rng)}; }),
      Wire<SeqSealResp>("SeqSealResp",
                        [](Rng& rng) { return SeqSealResp{RandU64(rng), RandU64(rng)}; }),
      Wire<SeqFlushReq>("SeqFlushReq", [](Rng& rng) { return SeqFlushReq{RandU64(rng)}; }),
      Wire<SeqFlushResp>("SeqFlushResp",
                         [](Rng& rng) {
                           return SeqFlushResp{RandU64(rng), RandVec(rng, RandWireId)};
                         }),
      Wire<SeqStartViewReq>("SeqStartViewReq",
                            [](Rng& rng) {
                              return SeqStartViewReq{RandU64(rng), RandU64s(rng), RandU64(rng),
                                                     RandU64(rng), RandVec(rng, RandWireId)};
                            }),
      Wire<SeqCheckTailResp>("SeqCheckTailResp",
                             [](Rng& rng) {
                               return SeqCheckTailResp{RandU64(rng), RandU64(rng),
                                                       RandU64(rng)};
                             }),
      Wire<SeqUpdateShardsReq>("SeqUpdateShardsReq",
                               [](Rng& rng) {
                                 return SeqUpdateShardsReq{RandU32(rng), RandU32(rng)};
                               }),
      Wire<SeqShardFailoverReq>("SeqShardFailoverReq",
                                [](Rng& rng) {
                                  return SeqShardFailoverReq{RandU32(rng), RandU32(rng),
                                                             RandU32(rng), RandU64(rng)};
                                }),
      Wire<LogRegistryEntry>("LogRegistryEntry", RandRegistryEntry),
      Wire<SeqUpdateLogsReq>("SeqUpdateLogsReq",
                             [](Rng& rng) {
                               return SeqUpdateLogsReq{RandU64(rng),
                                                       RandVec(rng, RandRegistryEntry)};
                             }),
      Wire<SeqCheckTailReq>("SeqCheckTailReq",
                            [](Rng& rng) { return SeqCheckTailReq{RandU64(rng)}; }),
      Wire<SeqConfigResp>("SeqConfigResp",
                          [](Rng& rng) {
                            return SeqConfigResp{RandU64(rng), rng.Chance(0.5), RandU64s(rng)};
                          }),
      // index_messages.h
      Wire<IndexReadNextReq>("IndexReadNextReq",
                             [](Rng& rng) {
                               return IndexReadNextReq{RandU64(rng), RandU64(rng),
                                                       RandU32(rng), RandU64(rng),
                                                       rng.Chance(0.5)};
                             }),
      Wire<IndexReadNextResp>("IndexReadNextResp",
                              [](Rng& rng) {
                                IndexReadNextResp m;
                                m.positions = RandU64s(rng);
                                m.shard_ids.assign(m.positions.size(), RandU64(rng));
                                m.indexed_upto = RandU64(rng);
                                return m;
                              }),
  };
  return types;
}

std::vector<Buf> RandAtts(Rng& rng) {
  std::vector<Buf> atts(rng.Uniform(3));
  for (Buf& a : atts) {
    a = RandPayload(rng);
  }
  return atts;
}

TEST_P(CodecFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam() ^ 0xf00d);
  for (const WireType& type : AllWireTypes()) {
    std::string junk(rng.Uniform(256), '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.Next());
    }
    // Failure is fine; a crash, an overread or a runaway allocation is not.
    Decoder d(Buf::Copy(junk), RandAtts(rng));
    Encoder out;
    (void)type.decode(d, out);
  }
}

// A valid encoding with one byte flipped, cut short or with bytes inserted either fails
// to decode, or decodes to a message that re-encodes to exactly the bytes (and the
// attachments) the decoder consumed: no two encodings mean the same message.
TEST_P(CodecFuzz, MutatedEncodingsFailOrRoundTrip) {
  Rng rng(GetParam() ^ 0xbeef);
  for (const WireType& type : AllWireTypes()) {
    for (int iter = 0; iter < 500; ++iter) {
      Encoder e;
      type.make(rng, e);
      std::string bytes(e.data());
      const std::vector<Buf> atts = e.TakeAtts();
      {
        Decoder d(Buf::Copy(bytes), atts);
        Encoder out;
        ASSERT_TRUE(type.decode(d, out)) << type.name;
        ASSERT_TRUE(d.Done()) << type.name;
        ASSERT_EQ(std::string(out.data()), bytes) << type.name;
      }
      const uint64_t op = rng.Uniform(3);
      if (op == 0 && !bytes.empty()) {
        bytes[rng.Uniform(bytes.size())] ^= static_cast<char>(rng.Range(1, 255));
      } else if (op == 1 && !bytes.empty()) {
        bytes.resize(rng.Uniform(bytes.size()));
      } else {
        std::string extra(rng.Range(1, 8), '\0');
        for (char& c : extra) {
          c = static_cast<char>(rng.Next());
        }
        bytes.insert(rng.Uniform(bytes.size() + 1), extra);
      }
      Decoder d(Buf::Copy(bytes), atts);
      Encoder out;
      if (!type.decode(d, out)) {
        continue;
      }
      const std::string consumed = bytes.substr(0, bytes.size() - d.Remaining());
      EXPECT_EQ(std::string(out.data()), consumed)
          << type.name << ": op " << op << " decoded to a different message";
      const std::vector<Buf> reencoded = out.TakeAtts();
      ASSERT_EQ(reencoded.size(), atts.size() - d.remaining_atts()) << type.name;
      for (size_t i = 0; i < reencoded.size(); ++i) {
        EXPECT_EQ(reencoded[i], atts[i]) << type.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace lazylog
