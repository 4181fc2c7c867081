// The seqlock frame: one self-verifying slot layout for every region a
// peer writes (or reads) with one-sided RDMA while the other side polls —
// the RFP request/response rings (DESIGN.md §16) and the one-sided index
// arena records (§9):
//
//   FrameHeader { seq, body_len, checksum } | body | u32 seq_back
//
// A consumer trusts a slot only when seq is the epoch it expects,
// seq_back matches it, and the checksum over (seq, body_len, body)
// verifies. A frame that fails a check while carrying the expected epoch
// is *torn* — a write still landing, or a read that raced a rewrite — and
// is read again; a frame under any other epoch is invisible. Reuse under
// a new epoch therefore makes old frames unreadable without clearing
// writes, and a writer that stamps an odd epoch over the front seq (the
// one-sided retract) breaks the pair for every reader at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/hash.hpp"

namespace rmc {

struct FrameHeader {
  std::uint32_t seq = 0;       ///< slot epoch
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

/// Bytes of a sealed frame carrying `body_len` body bytes (the span to
/// actually RDMA-write or -read: tail included, slack excluded).
inline constexpr std::size_t framed_size(std::size_t body_len) {
  return FrameHeader::kSize + body_len + FrameHeader::kTailSize;
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

enum class FrameState : std::uint8_t {
  empty,  ///< another epoch: nothing for this consumer (yet)
  torn,   ///< expected epoch but inconsistent: a write still landing
  ready,  ///< verified frame; body() below is trustworthy
};

/// Inspect a slot for the consumer expecting epoch `seq`. On ready,
/// `body` aliases the verified payload inside the slot.
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

}  // namespace rmc
