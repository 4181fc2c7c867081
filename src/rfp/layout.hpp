// RFP server-bypass RPC wire layout (DESIGN.md §16).
//
// RFP (remote fetch paradigm) inverts the active-message RPC: the client
// RDMA-writes a framed request into a server-polled per-client ring, the
// server executes it and RDMA-writes a framed response into the client's
// response arena, and the client polls *locally*. Neither direction posts
// a SEND or consumes a receive buffer, so the server's CQ wake-up — AM
// dispatch, worker hand-off, reply post — leaves the critical path for
// every command, not just GET (Su et al., PAPERS.md).
//
// Both directions use the same self-verifying frame, modeled on the
// seqlock discipline of src/onesided/layout.hpp:
//
//   FrameHeader { seq, body_len, checksum } | body | u32 seq_back
//
// A slot is consumed only when seq == the consumer's expected epoch for
// that slot, seq_back matches, and the checksum over (seq, body_len,
// body) verifies. A frame that fails any check while carrying the
// expected seq is *torn* — an RDMA write still landing — and is simply
// polled again; a frame with any other seq is stale and invisible. Slot
// epochs advance in lockstep on both sides (request use N and its
// response both carry seq N), so no clearing writes are ever needed:
// reuse makes old frames unreadable by construction.
//
// Request bodies reuse the ucr_proto.hpp op formats verbatim:
//   ucrp::RequestHeader | key bytes | inline value bytes (storage ops)
// and for Op::mget the packed key block follows the header in place of
// key+value. Response bodies are ucrp::ResponseHeader | value bytes, or
// for mget ucrp::ResponseHeader | MgetChunkHeader + records + values,
// repeated chunk by chunk back to back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "onesided/layout.hpp"

namespace rmc::rfp {

/// Bootstrap + wake AM ids (the only active messages RFP ever sends).
inline constexpr std::uint16_t kMsgRfpBootstrap = 0x6d20;
inline constexpr std::uint16_t kMsgRfpBootstrapResp = 0x6d21;
/// One-way nudge re-arming a parked server poll loop (no reply).
inline constexpr std::uint16_t kMsgRfpWake = 0x6d22;

using onesided::RemoteWindow;

/// Framing of one ring slot (either direction).
struct FrameHeader {
  std::uint32_t seq = 0;       ///< slot epoch; consumed when == expected
  std::uint32_t body_len = 0;  ///< bytes of body following the header
  std::uint64_t checksum = 0;  ///< FNV-1a over (seq, body_len, body)

  static constexpr std::size_t kSize = 4 + 4 + 8;
  /// Trailing u32 seq copy closing the seqlock pair.
  static constexpr std::size_t kTailSize = sizeof(std::uint32_t);

  static std::uint64_t expected_checksum(std::uint32_t seq, std::uint32_t body_len,
                                         std::span<const std::byte> body) {
    Fnv1a64 h;
    h.mix_value(seq);
    h.mix_value(body_len);
    h.mix(body);
    return h.value();
  }
};
static_assert(sizeof(FrameHeader) == FrameHeader::kSize);

/// Largest body a slot of `slot_size` bytes can frame.
inline constexpr std::uint32_t body_capacity(std::uint32_t slot_size) {
  constexpr auto overhead =
      static_cast<std::uint32_t>(FrameHeader::kSize + FrameHeader::kTailSize);
  return slot_size > overhead ? slot_size - overhead : 0;
}

/// Body span of a slot buffer (where the producer writes the payload).
inline std::span<std::byte> frame_body(std::span<std::byte> slot) {
  return slot.subspan(FrameHeader::kSize,
                      slot.size() - FrameHeader::kSize - FrameHeader::kTailSize);
}

/// Seal a frame in place: the body was already written at frame_body();
/// stamp header + checksum + tail so the whole slot is one coherent write.
inline void seal_frame(std::span<std::byte> slot, std::uint32_t seq,
                       std::uint32_t body_len) {
  FrameHeader hdr;
  hdr.seq = seq;
  hdr.body_len = body_len;
  hdr.checksum = FrameHeader::expected_checksum(
      seq, body_len, std::span<const std::byte>(frame_body(slot)).first(body_len));
  std::memcpy(slot.data(), &hdr, sizeof(hdr));
  std::memcpy(slot.data() + FrameHeader::kSize + body_len, &seq, sizeof(seq));
}

/// Bytes of a sealed frame carrying `body_len` body bytes (the span to
/// actually RDMA-write: tail included, slack excluded).
inline constexpr std::size_t framed_size(std::uint32_t body_len) {
  return FrameHeader::kSize + body_len + FrameHeader::kTailSize;
}

enum class FrameState : std::uint8_t {
  empty,  ///< stale or future epoch: nothing for this consumer (yet)
  torn,   ///< expected epoch but inconsistent: a write still landing
  ready,  ///< verified frame; body() below is trustworthy
};

/// Inspect a slot for the consumer expecting epoch `seq`. On ready, `body`
/// aliases the verified payload inside the slot.
inline FrameState read_frame(std::span<const std::byte> slot, std::uint32_t seq,
                             std::span<const std::byte>& body) {
  FrameHeader hdr;
  std::memcpy(&hdr, slot.data(), sizeof(hdr));
  if (hdr.seq != seq) return FrameState::empty;
  if (hdr.body_len > body_capacity(static_cast<std::uint32_t>(slot.size()))) {
    return FrameState::torn;
  }
  std::uint32_t back = 0;
  std::memcpy(&back, slot.data() + FrameHeader::kSize + hdr.body_len, sizeof(back));
  if (back != hdr.seq) return FrameState::torn;
  const auto candidate = slot.subspan(FrameHeader::kSize, hdr.body_len);
  if (hdr.checksum != FrameHeader::expected_checksum(hdr.seq, hdr.body_len, candidate)) {
    return FrameState::torn;
  }
  body = candidate;
  return FrameState::ready;
}

/// Bootstrap request: the client proposes a ring geometry and ships the
/// window of its response arena (slot i of the request ring answers into
/// slot i of the response arena — same epoch, same index).
struct BootstrapRequest {
  std::uint64_t cookie = 0;
  std::uint64_t reply_counter = 0;  ///< CounterRef at the client
  RemoteWindow response_ring;       ///< client's exposed response arena
  std::uint32_t slot_count = 0;
  std::uint32_t slot_size = 0;

  static constexpr std::size_t kSize = 8 + 8 + (8 + 4 + 4) + 4 + 4;

  void encode(std::byte* out) const {
    std::size_t o = 0;
    auto put = [&](const auto& v) {
      std::memcpy(out + o, &v, sizeof(v));
      o += sizeof(v);
    };
    put(cookie);
    put(reply_counter);
    put(response_ring.addr);
    put(response_ring.rkey);
    put(response_ring.length);
    put(slot_count);
    put(slot_size);
  }
  static BootstrapRequest decode(const std::byte* in) {
    BootstrapRequest r;
    std::size_t o = 0;
    auto get = [&](auto& v) {
      std::memcpy(&v, in + o, sizeof(v));
      o += sizeof(v);
    };
    get(r.cookie);
    get(r.reply_counter);
    get(r.response_ring.addr);
    get(r.response_ring.rkey);
    get(r.response_ring.length);
    get(r.slot_count);
    get(r.slot_size);
    return r;
  }
};

/// Bootstrap reply: where the server's request ring lives (the geometry
/// may be clamped below the client's proposal) plus the park threshold so
/// the client knows when a wake AM is needed before the next request.
struct RingDescriptor {
  RemoteWindow request_ring;
  std::uint32_t slot_count = 0;
  std::uint32_t slot_size = 0;
  std::uint64_t park_after_ns = 0;  ///< server poll loop parks after this idle
  std::uint64_t cookie = 0;         ///< echoed bootstrap request cookie

  static constexpr std::size_t kSize = (8 + 4 + 4) + 4 + 4 + 8 + 8;

  void encode(std::byte* out) const {
    std::size_t o = 0;
    auto put = [&](const auto& v) {
      std::memcpy(out + o, &v, sizeof(v));
      o += sizeof(v);
    };
    put(request_ring.addr);
    put(request_ring.rkey);
    put(request_ring.length);
    put(slot_count);
    put(slot_size);
    put(park_after_ns);
    put(cookie);
  }
  static RingDescriptor decode(const std::byte* in) {
    RingDescriptor d;
    std::size_t o = 0;
    auto get = [&](auto& v) {
      std::memcpy(&v, in + o, sizeof(v));
      o += sizeof(v);
    };
    get(d.request_ring.addr);
    get(d.request_ring.rkey);
    get(d.request_ring.length);
    get(d.slot_count);
    get(d.slot_size);
    get(d.park_after_ns);
    get(d.cookie);
    return d;
  }

  bool valid() const {
    return slot_count != 0 && slot_size != 0 && body_capacity(slot_size) != 0;
  }
};

}  // namespace rmc::rfp
