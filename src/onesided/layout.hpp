// One-sided GET wire layout: the self-verifying remote index.
//
// The server publishes cached items into two RDMA-readable regions and
// clients fetch them with plain RDMA Reads, bypassing the server CPU on
// the hot read path (the RFP-style extension of the paper's rendezvous
// design — see DESIGN.md §9):
//
//  * index  — a fixed-size bucket array keyed by the store's own hash
//    (hash_one_at_a_time), `ways` entries per bucket. One bucket line is
//    one RDMA Read.
//  * arena  — one fixed-size record slot per (bucket, way). A published
//    record is the item's metadata + key + value in a seqlock frame
//    (common/frame.hpp) whose epoch is the slot's version.
//
// Nothing here is trusted: every field a client acts on is re-verified
// after the read (entry self-check, frame epoch pair and checksum, key
// bytes), so a torn or stale observation — the bucket line and the record were
// snapshotted at different instants while the server mutated the slot —
// is always detectable and never surfaces as a value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>

#include "common/codec.hpp"
#include "common/frame.hpp"
#include "common/hash.hpp"

namespace rmc::onesided {

/// The bootstrap call (ucr::Runtime::call): an empty request answered
/// with the IndexDescriptor.
inline constexpr std::uint16_t kMsgBootstrap = 0x6d10;

/// One way of a bucket line (32 bytes, so a 4-way bucket is one 128 B
/// read). `version` is the slot epoch the entry was published under; a
/// reader requires it to match the record frame's epoch exactly.
struct BucketEntry {
  std::uint64_t tag = 0;          ///< occupied<<63 | key_len<<32 | hash32
  std::uint32_t version = 0;      ///< slot epoch at publish (even = stable)
  std::uint32_t arena_offset = 0; ///< record start within the arena window
  std::uint32_t record_len = 0;   ///< bytes to read (header + key + value + tail)
  std::uint32_t reserved = 0;
  std::uint64_t check = 0;        ///< entry self-check (torn bucket line)

  static std::uint64_t make_tag(std::uint32_t hash, std::size_t key_len) {
    return (1ull << 63) | (static_cast<std::uint64_t>(key_len) << 32) | hash;
  }
  bool occupied() const { return (tag >> 63) & 1; }

  std::uint64_t expected_check() const {
    Fnv1a64 h;
    h.mix_value(tag);
    h.mix_value(version);
    h.mix_value(arena_offset);
    h.mix_value(record_len);
    return h.value();
  }
  void seal() { check = expected_check(); }
  bool self_consistent() const { return check == expected_check(); }
};
static_assert(sizeof(BucketEntry) == 32);

/// Arena record: a seqlock frame (common/frame.hpp) under the slot's
/// version whose body is
///   RecordMeta | key bytes | value bytes
/// The frame header (16 B) and RecordMeta (24 B) make the 40 B record
/// header; the frame checksum covers the metadata, the key and the value
/// under the version they were published with, so a reader that raced a
/// republish cannot stitch old bytes to a new header.
struct RecordMeta {
  std::uint16_t key_len = 0;
  std::uint32_t value_len = 0;
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;  ///< absolute cache-clock seconds; 0 = never
  std::uint64_t cas = 0;

  static constexpr std::size_t kSize = 24;  ///< 22 B of fields, zero-padded

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.key_len, s.value_len, s.flags, s.exptime, s.cas);
  }
};

inline constexpr std::size_t record_framed_size(std::size_t key_len, std::size_t value_len) {
  return framed_size(RecordMeta::kSize + key_len + value_len);
}

/// Frame a record into the arena slot `slot` under `version`; returns the
/// framed length.
inline std::size_t seal_record(std::span<std::byte> slot, std::uint32_t version,
                               const RecordMeta& meta, std::string_view key,
                               std::span<const std::byte> value) {
  std::byte* body = frame_body(slot).data();
  codec::encode(meta, body);
  std::memcpy(body + RecordMeta::kSize, key.data(), key.size());
  std::memcpy(body + RecordMeta::kSize + key.size(), value.data(), value.size());
  const std::size_t body_len = RecordMeta::kSize + key.size() + value.size();
  seal_frame(slot, version, static_cast<std::uint32_t>(body_len));
  return framed_size(body_len);
}

/// A verified record: its metadata, and the value aliasing the read bytes.
struct RecordView {
  RecordMeta meta;
  std::span<const std::byte> value;
};

/// Verify a record read of exactly its framed length: a stable epoch, the
/// frame under it, the framed length, and the embedded key. `version`
/// (from a bucket entry) pins the epoch exactly; a hinted read passes
/// nullopt and takes any stable one. Expiry is the caller's business.
inline bool open_record(std::span<const std::byte> record, std::optional<std::uint32_t> version,
                        std::string_view key, RecordView& out) {
  if (record.size() < record_framed_size(0, 0)) return false;
  // An odd front epoch is a retract in progress; 0 is a never-published slot.
  FrameHeader front;
  std::memcpy(&front, record.data(), sizeof(front));
  if (front.seq == 0 || (front.seq & 1u) != 0 || (version && *version != front.seq)) {
    return false;
  }
  std::span<const std::byte> body;
  if (read_frame(record, front.seq, body) != FrameState::ready ||
      framed_size(body.size()) != record.size()) {
    return false;
  }
  const auto meta = codec::decode<RecordMeta>(body.data());
  if (meta.key_len != key.size() ||
      RecordMeta::kSize + meta.key_len + meta.value_len != body.size() ||
      std::memcmp(body.data() + RecordMeta::kSize, key.data(), key.size()) != 0) {
    return false;
  }
  out = RecordView{meta, body.subspan(RecordMeta::kSize + meta.key_len)};
  return true;
}

/// RDMA window descriptor as it crosses the wire in the bootstrap reply
/// (mirrors ucr::Runtime::RemoteMemory, kept separate so the layout is a
/// fixed wire contract).
struct RemoteWindow {
  std::uint64_t addr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.addr, s.rkey, s.length);
  }
};

/// Everything a client needs to run the two-read GET protocol: the
/// bootstrap reply body.
struct IndexDescriptor {
  RemoteWindow index;
  RemoteWindow arena;
  std::uint32_t bucket_count = 0;  ///< power of two
  std::uint32_t ways = 0;
  std::uint32_t slot_size = 0;     ///< fixed record slot bytes

  static constexpr std::size_t kSize = 2 * (8 + 4 + 4) + 4 + 4 + 4;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.index, s.arena, s.bucket_count, s.ways, s.slot_size);
  }

  bool valid() const { return bucket_count != 0 && ways != 0 && slot_size != 0; }
};

}  // namespace rmc::onesided
