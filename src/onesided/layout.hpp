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
//    record is the item's metadata + key + value framed by a seqlock
//    version pair and covered by a checksum.
//
// Nothing here is trusted: every field a client acts on is re-verified
// after the read (entry self-check, version pair, key bytes, checksum),
// so a torn or stale observation — the bucket line and the record were
// snapshotted at different instants while the server mutated the slot —
// is always detectable and never surfaces as a value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "common/hash.hpp"

namespace rmc::onesided {

/// Bootstrap AM ids (one RPC per client to learn the descriptor).
inline constexpr std::uint16_t kMsgBootstrap = 0x6d10;
inline constexpr std::uint16_t kMsgBootstrapResp = 0x6d11;

/// One way of a bucket line (32 bytes, so a 4-way bucket is one 128 B
/// read). `version` is the slot epoch the entry was published under; a
/// reader requires it to match the record's own version pair exactly.
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

/// Arena record framing. The layout in the slot is:
///   RecordHeader | key bytes | value bytes | u32 version_back
/// version_front/version_back form the seqlock pair; checksum covers the
/// metadata, the key and the value under the version they were published
/// with, so a reader that raced a republish cannot stitch old bytes to a
/// new header.
struct RecordHeader {
  std::uint32_t version_front = 0;
  std::uint16_t key_len = 0;
  std::uint16_t reserved = 0;
  std::uint32_t value_len = 0;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::uint32_t exptime = 0;  ///< absolute cache-clock seconds; 0 = never
  std::uint32_t reserved2 = 0;
  std::uint64_t checksum = 0;

  static constexpr std::size_t kTailSize = sizeof(std::uint32_t);

  static std::size_t framed_size(std::size_t key_len, std::size_t value_len) {
    return sizeof(RecordHeader) + key_len + value_len + kTailSize;
  }

  std::uint64_t expected_checksum(std::string_view key,
                                  std::span<const std::byte> value) const {
    Fnv1a64 h;
    h.mix_value(version_front);
    h.mix_value(key_len);
    h.mix_value(value_len);
    h.mix_value(flags);
    h.mix_value(cas);
    h.mix_value(exptime);
    h.mix({reinterpret_cast<const std::byte*>(key.data()), key.size()});
    h.mix(value);
    return h.value();
  }
};
static_assert(sizeof(RecordHeader) == 40);

/// RDMA window descriptor as it crosses the wire in the bootstrap reply
/// (mirrors ucr::Runtime::RemoteMemory, kept separate so the layout is a
/// fixed wire contract).
struct RemoteWindow {
  std::uint64_t addr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;
};

/// Everything a client needs to run the two-read GET protocol. Shipped as
/// the bootstrap response header.
struct IndexDescriptor {
  RemoteWindow index;
  RemoteWindow arena;
  std::uint32_t bucket_count = 0;  ///< power of two
  std::uint32_t ways = 0;
  std::uint32_t slot_size = 0;     ///< fixed record slot bytes
  std::uint64_t cookie = 0;        ///< echoed bootstrap request cookie

  static constexpr std::size_t kSize = 2 * (8 + 4 + 4) + 4 + 4 + 4 + 8;

  void encode(std::byte* out) const {
    std::size_t o = 0;
    auto put = [&](const auto& v) {
      std::memcpy(out + o, &v, sizeof(v));
      o += sizeof(v);
    };
    put(index.addr);
    put(index.rkey);
    put(index.length);
    put(arena.addr);
    put(arena.rkey);
    put(arena.length);
    put(bucket_count);
    put(ways);
    put(slot_size);
    put(cookie);
  }
  static IndexDescriptor decode(const std::byte* in) {
    IndexDescriptor d;
    std::size_t o = 0;
    auto get = [&](auto& v) {
      std::memcpy(&v, in + o, sizeof(v));
      o += sizeof(v);
    };
    get(d.index.addr);
    get(d.index.rkey);
    get(d.index.length);
    get(d.arena.addr);
    get(d.arena.rkey);
    get(d.arena.length);
    get(d.bucket_count);
    get(d.ways);
    get(d.slot_size);
    get(d.cookie);
    return d;
  }

  bool valid() const { return bucket_count != 0 && ways != 0 && slot_size != 0; }
  /// Largest value publishable in one slot for a given key length.
  std::uint32_t max_value_len(std::size_t key_len) const {
    const std::size_t overhead = sizeof(RecordHeader) + key_len + RecordHeader::kTailSize;
    return overhead >= slot_size ? 0 : static_cast<std::uint32_t>(slot_size - overhead);
  }
};

/// Bootstrap request header: the client's reply-counter ref plus a cookie
/// used to route the response back to the issuing RemoteGetter.
struct BootstrapRequest {
  std::uint64_t cookie = 0;
  std::uint64_t reply_counter = 0;  ///< CounterRef at the client

  static constexpr std::size_t kSize = 16;

  void encode(std::byte* out) const {
    std::memcpy(out, &cookie, 8);
    std::memcpy(out + 8, &reply_counter, 8);
  }
  static BootstrapRequest decode(const std::byte* in) {
    BootstrapRequest r;
    std::memcpy(&r.cookie, in, 8);
    std::memcpy(&r.reply_counter, in + 8, 8);
    return r;
  }
};

}  // namespace rmc::onesided
