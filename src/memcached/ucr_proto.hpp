// Memcached-over-UCR message formats (§V), shared by server and client.
//
// One AM id for requests, one for responses. Request values (SET family)
// travel as AM data: eager for small items, RDMA-read by the server for
// large ones — directly into the item's final slab location. Response
// values (GET) travel as AM data the other way: the client's header
// handler learns the length (unknown beforehand, §V-C), names a buffer
// from its local pool, and UCR places the value into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <tuple>

#include "common/codec.hpp"
#include "memcached/command.hpp"

namespace rmc::mc::ucrp {

inline constexpr std::uint16_t kMsgRequest = 0x6d01;
inline constexpr std::uint16_t kMsgResponse = 0x6d02;

/// The command core's op enum (command.hpp) is the wire's op byte.
using Op = mc::Op;

inline bool is_storage(Op op) {
  switch (op) {
    case Op::set:
    case Op::add:
    case Op::replace:
    case Op::append:
    case Op::prepend:
    case Op::cas:
      return true;
    default:
      return false;
  }
}

/// Fixed part of a request AM header; the key follows immediately.
struct RequestHeader {
  Op op = Op::get;
  std::uint16_t key_len = 0;
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;
  std::uint64_t cas = 0;
  std::uint64_t delta = 0;         ///< incr/decr amount; flush_all delay
  std::uint64_t req_id = 0;        ///< client-side correlation
  std::uint64_t reply_counter = 0; ///< CounterRef at the client (counter C, §V)

  static constexpr std::size_t kSize = 1 + 2 + 4 + 4 + 8 + 8 + 8 + 8;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.op, s.key_len, s.flags, s.exptime, s.cas, s.delta, s.req_id,
                    s.reply_counter);
  }
};

/// Response status: one per row of the outcome table (command.hpp), so
/// the byte decodes exactly, plus the ring's reply_overflow. Values are
/// wire bytes: append only.
enum class RStatus : std::uint8_t {
  ok,          ///< generic success (flush_all, version)
  stored,
  not_stored,
  exists,
  not_found,
  deleted,
  touched,
  number,      ///< incr/decr result in `number`
  value,       ///< GET hit: flags/cas set, value in AM data
  client_error,  ///< non-numeric incr/decr
  server_error,  ///< out of memory (also: the reply could not be sent)
  bad_format,
  too_large,
  unsupported,
  /// RFP ring only, not an outcome: the reply did not fit one response
  /// slot, so the client re-runs the op over RPC (DESIGN.md §16).
  reply_overflow,
};

struct ResponseHeader {
  RStatus status = RStatus::ok;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::uint64_t number = 0;
  std::uint64_t req_id = 0;

  static constexpr std::size_t kSize = 1 + 4 + 8 + 8 + 8;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.status, s.flags, s.cas, s.number, s.req_id);
  }
};

// ------------------------------------------------------------- multiget
//
// Request wire form (Op::mget): RequestHeader with
//   key_len = byte length of the packed key block that follows,
//   delta   = number of keys in the block
// (both fields are otherwise unused by mget), then the key block itself:
// repeated [u16 len][len key bytes], packed back to back. The whole
// request must fit one eager AM frame; clients split longer key lists
// into several sub-requests.
//
// Response wire form: one or more chunks, each a separate AM carrying
//   ResponseHeader (status=value, req_id echoed)
//   MgetChunkHeader
//   record_count x MgetRecord
// in the AM header region, with the hit values concatenated in record
// order as AM data. Every chunk bumps the request's reply counter by
// one; chunks carry start_index/total_chunks so scatter is order- and
// loss-retry-independent. A bare ResponseHeader (no chunk header) is a
// whole-request error.

/// Largest mget key block a request can carry: the default 8 KiB eager
/// frame minus the AM wire header (48 B, ucr::wire::AmWire::kSize) and
/// the RequestHeader (43 B). Also sizes the server's inline per-request
/// key carrier, so requests never allocate.
inline constexpr std::size_t kMaxMgetKeyBlock = 8192 - 48 - RequestHeader::kSize;

/// Bytes pack_mget_key will write for `key`.
inline constexpr std::size_t mget_entry_size(std::string_view key) {
  return sizeof(std::uint16_t) + key.size();
}

/// Append one [u16 len][bytes] entry at `out`; returns bytes written.
inline std::size_t pack_mget_key(std::byte* out, std::string_view key) {
  const auto len = static_cast<std::uint16_t>(key.size());
  std::memcpy(out, &len, sizeof(len));
  std::memcpy(out + sizeof(len), key.data(), key.size());
  return sizeof(len) + key.size();
}

/// Forward iterator over a packed key block (no allocation, no copies:
/// the yielded views alias the block).
struct MgetKeyReader {
  const std::byte* cur = nullptr;
  const std::byte* end = nullptr;

  MgetKeyReader(const std::byte* block, std::size_t len)
      : cur(block), end(block + len) {}

  bool next(std::string_view& out) {
    if (end - cur < static_cast<std::ptrdiff_t>(sizeof(std::uint16_t))) return false;
    std::uint16_t len = 0;
    std::memcpy(&len, cur, sizeof(len));
    cur += sizeof(len);
    if (end - cur < static_cast<std::ptrdiff_t>(len)) return false;
    out = std::string_view{reinterpret_cast<const char*>(cur), len};
    cur += len;
    return true;
  }
};

/// Follows the ResponseHeader in each multiget response chunk.
struct MgetChunkHeader {
  std::uint32_t start_index = 0;   ///< request-order index of the first record
  std::uint32_t record_count = 0;  ///< MgetRecords in this chunk
  std::uint32_t total_chunks = 0;  ///< chunks the whole reply comprises
  std::uint32_t total_keys = 0;    ///< keys in the request (sanity check)

  static constexpr std::size_t kSize = 4 + 4 + 4 + 4;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.start_index, s.record_count, s.total_chunks, s.total_keys);
  }
};

/// Per-key result inside a multiget response chunk. Hits (status==value)
/// own value_len bytes of the chunk's AM data, in record order; misses
/// own none.
struct MgetRecord {
  RStatus status = RStatus::not_found;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
  std::uint32_t value_len = 0;

  static constexpr std::size_t kSize = 1 + 4 + 8 + 4;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.status, s.flags, s.cas, s.value_len);
  }
};

}  // namespace rmc::mc::ucrp
