// Wire codec used by the RPC layer. Little-endian fixed-width scalars plus
// length-prefixed strings and vectors. Every RPC message type implements
// Encode(Encoder&) / Decode(Decoder&); Decode returns false on malformed input
// instead of aborting so fuzz-style tests can exercise it.
//
// Record payloads travel as *attachments* (eRPC/RDMA-style scatter-gather segments):
// PutAttached writes only the 4-byte length marker inline and hands the Buf to the
// message's attachment list; GetAttached pops the matching Buf on decode. The inline
// byte layout is identical to the old PutBytes framing (marker + bytes appear at the
// same offsets on the simulated wire, and NetMessage charges attachment bytes to the
// NIC), but no payload byte is memcpy'd — the decoded message aliases the sender's
// backing buffer. PutBuf/GetBufView are the inline variants for blobs that must stay
// in the frame: GetBufView aliases the decoder's backing when it has one.
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <cstdint>
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/buf.h"
#include "src/common/types.h"

namespace lazylog {

// Append-only byte sink for message serialization. The bytes accumulate in one
// refcounted block that TakeBuf() hands over without copying. The first
// kFrameHeadroom bytes of the block are left free so the RPC layer can prepend a frame
// header in place (Prepend*) and send body and header as one buffer.
class Encoder {
 public:
  // Bytes reserved in front of the body: the largest fixed RPC frame header (an OK
  // response: kind, rpc id, status code, empty message, body length).
  static constexpr size_t kFrameHeadroom = 18;

  Encoder() = default;
  // Sizes the first block for exactly `body_bytes` of content (exact-size frames).
  explicit Encoder(size_t body_bytes) : first_block_(kFrameHeadroom + body_bytes) {}

  void PutU8(uint8_t v) { PutFixed(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutBytes(const std::string& s) { PutBytes(s.data(), s.size()); }
  void PutBytes(const char* p, size_t n) {
    PutU32(static_cast<uint32_t>(n));
    PutFixed(p, n);
  }

  // Raw bytes with no length prefix (an already-encoded body copied into a frame).
  void PutRaw(const char* p, size_t n) { PutFixed(p, n); }
  // Appends attachment handles already counted by the encoder that produced them.
  void PutAttachments(std::vector<Buf> atts) {
    if (atts_.empty()) {
      atts_ = std::move(atts);
    } else {
      for (Buf& a : atts) {
        atts_.push_back(std::move(a));
      }
    }
  }

  // Inline Buf: length prefix + bytes copied into the frame (counted). Use only for
  // blobs that must stay in the frame; record payloads go through PutAttached.
  void PutBuf(const Buf& b) {
    GlobalBufStats().payload_bytes_copied += b.size();
    PutBytes(b.data(), b.size());
  }

  // Zero-copy Buf: writes the 4-byte length marker inline and appends the handle to
  // the attachment list (the bytes ride the message as a separate segment). In
  // force-copy mode the segment is deep-copied instead, modelling the old
  // copy-per-hop path with an identical wire format.
  void PutAttached(const Buf& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    if (b.empty()) {
      return;
    }
    if (BufForceCopy()) {
      atts_.push_back(b.DeepCopy());  // Copy() counts the bytes
    } else {
      GlobalBufStats().payload_bytes_aliased += b.size();
      atts_.push_back(b);
    }
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) {
      e.Encode(*this);
    }
  }
  void PutU64Vector(const std::vector<uint64_t>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (uint64_t e : v) {
      PutU64(e);
    }
  }

  // Writes in front of the current content (frame headers, written last field first).
  // Uses the reserved headroom; moves the content only if the headroom runs out.
  void PrependU8(uint8_t v) { PrependFixed(&v, sizeof(v)); }
  void PrependU32(uint32_t v) { PrependFixed(&v, sizeof(v)); }
  void PrependU64(uint64_t v) { PrependFixed(&v, sizeof(v)); }
  void PrependRaw(const char* p, size_t n) { PrependFixed(p, n); }

  std::string_view data() const {
    return block_ ? std::string_view(block_.get() + start_, size()) : std::string_view();
  }
  // Copies the content out and clears the encoder. Frames go through TakeBuf().
  std::string Take() {
    std::string s(data());
    Clear();
    return s;
  }
  // Hands the content over as a Buf aliasing this encoder's block (no byte copy).
  Buf TakeBuf() {
    Buf b;
    if (size() > 0) {
      GlobalBufStats().allocations++;
      b.data_ = block_.get() + start_;
      b.len_ = size();
      b.backing_ = std::shared_ptr<const char>(std::move(block_), b.data_);
    }
    Clear();
    return b;
  }
  std::vector<Buf> TakeAtts() { return std::move(atts_); }
  bool has_atts() const { return !atts_.empty(); }
  size_t size() const { return end_ - start_; }
  // Total attachment bytes. size() + atts_size() equals the old inline encoding size,
  // so CPU/disk charges based on encoded size stay byte-identical.
  size_t atts_size() const {
    size_t n = 0;
    for (const Buf& a : atts_) {
      n += a.size();
    }
    return n;
  }

 private:
  // First block size for encoders built without a hint: fits the headroom plus the
  // small control messages that make up most frames.
  static constexpr size_t kDefaultBlock = 128;

  void PutFixed(const void* p, size_t n) {
    if (n == 0) {
      return;
    }
    if (end_ + n > cap_) {
      Grow(n);
    }
    // Host order is little-endian on every supported target; memcpy keeps it alignment-safe.
    std::memcpy(block_.get() + end_, p, n);
    end_ += n;
  }
  void PrependFixed(const void* p, size_t n) {
    if (!block_ || start_ < n) {
      Grow(0, n);
    }
    start_ -= n;
    if (n > 0) {
      std::memcpy(block_.get() + start_, p, n);
    }
  }
  // Moves the content into a fresh block with room for `more` bytes at the end and at
  // least max(front, kFrameHeadroom) bytes in front.
  void Grow(size_t more, size_t front = 0) {
    front = std::max(front, kFrameHeadroom);
    const size_t need = front + size() + more;
    size_t cap = cap_ == 0 ? std::max(need, first_block_) : cap_;
    while (cap < need) {
      cap *= 2;
    }
    auto block = std::make_shared_for_overwrite<char[]>(cap);
    if (size() > 0) {
      std::memcpy(block.get() + front, block_.get() + start_, size());
    }
    end_ = front + size();
    start_ = front;
    block_ = std::move(block);
    cap_ = cap;
  }
  void Clear() {
    block_.reset();
    cap_ = 0;
    start_ = end_ = kFrameHeadroom;
  }

  std::shared_ptr<char[]> block_;
  size_t cap_ = 0;
  size_t start_ = kFrameHeadroom;  // content is [start_, end_) of block_
  size_t end_ = kFrameHeadroom;
  size_t first_block_ = kDefaultBlock;
  std::vector<Buf> atts_;
};

// Cursor over an encoded buffer. All getters return false (and leave the output untouched)
// once the buffer is exhausted or a length prefix is inconsistent.
//
// A Decoder built from a Buf *owns* its backing (and the message's attachments): it and
// any Buf it hands out stay valid after the original message is destroyed. The
// string/pointer constructors are unowned views for local decode; GetBufView falls back
// to copying there, and GetAttached fails (no attachment list).
class Decoder {
 public:
  Decoder() = default;
  explicit Decoder(const std::string& data) : data_(data.data()), size_(data.size()) {}
  explicit Decoder(std::string_view data) : data_(data.data()), size_(data.size()) {}
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(Buf body, std::vector<Buf> atts = {})
      : body_(std::move(body)), atts_(std::move(atts)) {
    data_ = body_.data();
    size_ = body_.size();
  }

  bool GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetBool(bool* v) {
    uint8_t b = 0;
    if (!GetU8(&b)) {
      return false;
    }
    *v = b != 0;
    return true;
  }
  bool GetBytes(std::string* s) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > Remaining()) {
      return false;
    }
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  // Inline Buf: when this decoder owns a backing, the result is a slice of it (no
  // copy, keeps the backing alive past the decoder); otherwise the bytes are copied.
  bool GetBufView(Buf* out) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > Remaining()) {
      return false;
    }
    if (body_.empty() || BufForceCopy()) {
      *out = Buf::Copy(data_ + pos_, n);  // counted
    } else {
      GlobalBufStats().payload_bytes_aliased += n;
      *out = body_.Slice(pos_, n);
    }
    pos_ += n;
    return true;
  }

  // Counterpart of Encoder::PutAttached: reads the inline length marker and pops the
  // next attachment, which must match it exactly. Returns false on a marker with no
  // matching attachment (malformed or non-attachment input).
  bool GetAttached(Buf* out) {
    uint32_t n = 0;
    if (!GetU32(&n)) {
      return false;
    }
    if (n == 0) {
      *out = Buf();
      return true;
    }
    if (att_pos_ >= atts_.size() || atts_[att_pos_].size() != n) {
      return false;
    }
    if (BufForceCopy()) {
      *out = atts_[att_pos_++].DeepCopy();  // counted
    } else {
      GlobalBufStats().payload_bytes_aliased += n;
      *out = atts_[att_pos_++];
    }
    return true;
  }

  template <typename T>
  bool GetVector(std::vector<T>* v) {
    uint32_t n = 0;
    if (!GetU32(&n)) {
      return false;
    }
    v->clear();
    // Clamp the reserve by the smallest possible element encoding so a malformed
    // length prefix cannot force an over-reservation (n is still trusted for the
    // loop; Decode fails fast when the bytes run out).
    v->reserve(std::min<size_t>(n, Remaining() / T::kMinEncodedSize));
    for (uint32_t i = 0; i < n; ++i) {
      T e;
      if (!e.Decode(*this)) {
        return false;
      }
      v->push_back(std::move(e));
    }
    return true;
  }
  bool GetU64Vector(std::vector<uint64_t>* v) {
    uint32_t n = 0;
    if (!GetU32(&n) || static_cast<size_t>(n) * sizeof(uint64_t) > Remaining()) {
      return false;
    }
    v->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!GetU64(&(*v)[i])) {
        v->clear();
        return false;
      }
    }
    return true;
  }

  size_t Remaining() const { return size_ - pos_; }
  // Raw remaining bytes, copied out as a string (opaque passthrough / tests).
  std::string RemainingString() const {
    return Remaining() ? std::string(data_ + pos_, Remaining()) : std::string();
  }
  bool Done() const { return pos_ == size_; }
  size_t remaining_atts() const { return atts_.size() - att_pos_; }

 private:
  bool GetFixed(void* p, size_t n) {
    if (Remaining() < n) {
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  Buf body_;                // owned backing (empty for the unowned-view constructors)
  std::vector<Buf> atts_;   // message attachments, consumed in encode order
  size_t att_pos_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

// Codec helpers for the shared record types.

inline void EncodeRecordId(Encoder& e, const RecordId& id) {
  e.PutU64(id.client_id);
  e.PutU64(id.request_id);
}
inline bool DecodeRecordId(Decoder& d, RecordId* id) {
  return d.GetU64(&id->client_id) && d.GetU64(&id->request_id);
}

// Record flags byte. Bit 0 is the no_op marker (so a legacy encoder's trailing
// PutBool(no_op) byte decodes unchanged, with tag = kNoTag); bit 1 says a u64 stream
// tag follows; bit 2 says a u64 phylog id follows. Untagged default-log records
// therefore stay byte-identical to the pre-tag, pre-virtual-log format.
inline constexpr uint8_t kRecordFlagNoOp = 0x1;
inline constexpr uint8_t kRecordFlagHasTag = 0x2;
inline constexpr uint8_t kRecordFlagHasLog = 0x4;

inline void EncodeRecord(Encoder& e, const Record& r) {
  EncodeRecordId(e, r.id);
  e.PutAttached(r.payload);
  uint8_t flags = (r.no_op ? kRecordFlagNoOp : 0) |
                  (r.tag != kNoTag ? kRecordFlagHasTag : 0) |
                  (r.log != kDefaultLog ? kRecordFlagHasLog : 0);
  e.PutU8(flags);
  if (r.tag != kNoTag) {
    e.PutU64(r.tag);
  }
  if (r.log != kDefaultLog) {
    e.PutU64(r.log);
  }
}
inline bool DecodeRecord(Decoder& d, Record* r) {
  if (!DecodeRecordId(d, &r->id) || !d.GetAttached(&r->payload)) {
    return false;
  }
  uint8_t flags = 0;
  if (!d.GetU8(&flags) ||
      (flags & ~(kRecordFlagNoOp | kRecordFlagHasTag | kRecordFlagHasLog)) != 0) {
    return false;  // unknown flag bits: malformed, bail like GetU64Vector does
  }
  r->no_op = (flags & kRecordFlagNoOp) != 0;
  r->tag = kNoTag;
  if ((flags & kRecordFlagHasTag) != 0 && !d.GetU64(&r->tag)) {
    return false;
  }
  r->log = kDefaultLog;
  if ((flags & kRecordFlagHasLog) != 0 && !d.GetU64(&r->log)) {
    return false;
  }
  return true;
}

// A record wrapper with member Encode/Decode so PutVector/GetVector apply.
struct WireRecord {
  // id (16) + payload length marker (4) + flags (1); the payload bytes ride as an
  // attachment and the u64 tag only appears when tagged, so the smallest inline
  // footprint is fixed.
  static constexpr size_t kMinEncodedSize = 21;
  Record rec;
  void Encode(Encoder& e) const { EncodeRecord(e, rec); }
  bool Decode(Decoder& d) { return DecodeRecord(d, &rec); }
};

}  // namespace lazylog

#endif  // SRC_COMMON_CODEC_H_
