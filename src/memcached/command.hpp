// rmclint:hotpath — the one store executor behind every wire
//
// The command core, both halves. Server: every frontend — text and
// binary sockets, UCR active messages and the RFP ring — decodes its
// request into a Command, runs it through execute() against the shared
// ItemStore (§V-A: one server, one store, for sockets and UCR clients
// alike), and encodes the Outcome with its own column of the outcome
// table below. Client: every wire encodes the caller's Command, decodes
// the reply back to its row of the same table, and the row's Errc column
// is what the caller sees — so one outcome reaches callers as one Errc
// whichever wire served it. Wire quirks (binary add/replace statuses,
// binary incr seeding, the ring refusing admin ops) stay one line each in
// their frontend and its client decode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "memcached/binary.hpp"
#include "memcached/protocol.hpp"
#include "simnet/time.hpp"

namespace rmc::mc {

class ItemStore;
struct ItemHeader;

namespace ucrp {  // ucr_proto.hpp, which includes this header for Op
enum class RStatus : std::uint8_t;
struct ResponseHeader;
}  // namespace ucrp

/// The core's command set. The byte values are the UCR wire's op byte
/// (ucrp::Op is this enum), so never reorder them.
enum class Op : std::uint8_t {
  get,
  gets,
  set,
  add,
  replace,
  append,
  prepend,
  cas,
  del,
  incr,
  decr,
  touch,
  flush_all,
  version,
  /// True server-side multiget (UCR and ring only): the request carries a
  /// packed key block (ucrp::pack_mget_key) and the wire's own packer, never
  /// execute(), answers with chunked responses. Records always carry the
  /// CAS id, so there is no separate mgets variant.
  mget,
};

/// The outcome table: one row per outcome, one column per wire, and the
/// Errc a client caller sees — the one place that decides it.
///   ROW(code, text reply type, binary BStatus, UCR RStatus, caller Errc,
///       text message)
/// The UCR column is one status per row, so the status byte decodes
/// exactly; text tells rows that share a reply type apart by message.
// clang-format off
#define RMC_MC_OUTCOMES(ROW)                                                                       \
  ROW(ok,            ok,           ok,                ok,           ok,               "")          \
  ROW(value,         values,       ok,                value,        ok,               "")          \
  ROW(stored,        stored,       ok,                stored,       ok,               "")          \
  ROW(deleted,       deleted,      ok,                deleted,      ok,               "")          \
  ROW(touched,       touched,      ok,                touched,      ok,               "")          \
  ROW(number,        number,       ok,                number,       ok,               "")          \
  ROW(not_stored,    not_stored,   not_stored,        not_stored,   not_stored,       "")          \
  ROW(exists,        exists,       key_exists,        exists,       exists,           "")          \
  ROW(not_found,     not_found,    key_not_found,     not_found,    not_found,        "")          \
  ROW(non_numeric,   client_error, delta_badval,      client_error, invalid_argument,              \
      "cannot increment or decrement non-numeric value")                                           \
  ROW(bad_format,    client_error, invalid_arguments, bad_format,   invalid_argument,              \
      "bad command line format")                                                                   \
  ROW(too_large,     server_error, value_too_large,   too_large,    too_large,                     \
      "object too large for cache")                                                                \
  ROW(out_of_memory, server_error, out_of_memory,     server_error, no_resources,                  \
      "out of memory storing object")                                                              \
  ROW(unsupported,   error,        unknown_command,   unsupported,  protocol_error,   "")
// clang-format on

enum class Code : std::uint8_t {
#define RMC_MC_OUTCOME_CODE(code, text, binary, ucr, errc, message) code,
  RMC_MC_OUTCOMES(RMC_MC_OUTCOME_CODE)
#undef RMC_MC_OUTCOME_CODE
};

/// One row of the outcome table.
struct OutcomeRow {
  proto::Response::Type text;
  std::string_view message;  ///< text error message (empty for the rest)
  bproto::BStatus binary;
  ucrp::RStatus ucr;
  Errc errc;  ///< what a client caller sees
};
const OutcomeRow& outcome_row(Code code);

/// The row a failed store call answers with (store errors: not_stored,
/// exists, not_found, too_large, invalid_argument, no_resources).
Code store_code(Errc e);

/// The row a served `op` answers with when nothing went wrong.
Code success(Op op);

/// Whether running `op` twice leaves what running it once does. A
/// non-idempotent op (incr/decr/append/prepend/add/cas) whose request may
/// have reached the server is never sent again: not by a bypass falling
/// back to RPC, not by the client's retry loop.
bool idempotent(Op op);

/// The binary status the server answers `code` with for `op`: the table's
/// column, except that add-exists and replace-miss keep their own statuses
/// and any failed append/prepend is not_stored.
bproto::BStatus binary_status(Op op, Code code);

// The client half: each wire's reply decodes back to its row. A reply
// that matches no row decodes to `unsupported`.

/// Text: the reply type, with the message telling apart rows that share
/// one (CLIENT_ERROR, SERVER_ERROR); an empty VALUE block is a miss.
Code text_code(const proto::Response& reply);
/// Binary: ok is `op`'s success row; add-exists and replace-miss are
/// not_stored (binary_status's quirks, undone).
Code binary_code(Op op, bproto::BStatus status);
/// UCR: the status byte names its row.
Code ucr_code(ucrp::RStatus status);

/// What the caller of `op` sees when its reply decodes to `code`: the
/// row's Errc, or protocol_error for a success row that does not answer
/// `op` (a STORED for an incr).
Errc caller_errc(Op op, Code code);

/// A decoded request, whichever wire it came from.
struct Command {
  Op op = Op::get;
  std::string_view key{};
  std::span<const std::byte> value{};
  std::uint32_t flags = 0;
  std::uint32_t exptime = 0;  ///< storage/touch expiry; flush_all delay (s)
  std::uint64_t cas = 0;
  std::uint64_t delta = 0;  ///< incr/decr amount
  /// UCR storage: the item whose value already landed in its slab chunk
  /// (§V-B). execute() commits it (set) or consumes it as the value.
  ItemHeader* prepared = nullptr;
};

struct Outcome {
  Code code = Code::ok;
  ItemHeader* item = nullptr;  ///< value: the hit, pinned; the caller releases it
  std::uint64_t number = 0;    ///< number: the incr/decr result
  std::uint64_t cas = 0;       ///< stored: the cas id of the stored item
};

/// The UCR reply header for `out` (UCR frontend and RFP ring alike): the
/// table's status, the incr/decr number, and a hit's flags and cas.
ucrp::ResponseHeader ucr_reply_header(const Outcome& out, std::uint64_t req_id);

/// The cache clock at sim time `now`: whole seconds, starting at 1.
inline std::uint32_t cache_clock(sim::Time now) {
  return static_cast<std::uint32_t>(1 + now / kNsPerSec);
}

/// Run one command against `store` at sim time `now` (the store's clock
/// is advanced first). flush_all (its delay needs the server's timers) and
/// mget (the packer below) answer `unsupported`.
Outcome execute(ItemStore& store, sim::Time now, const Command& cmd);

// The multiget packer, shared by the UCR frontend and the RFP ring.

/// Pin the keys of a packed mget key block (ucrp::MgetKeyReader) in
/// request order at sim time `now`, at most `max_keys` of them: a hit
/// appends its pinned item to `items`, a miss appends nullptr. Returns
/// false, having released it, at the first hit whose value would take the
/// pinned value bytes past `value_budget`. The caller releases `items`.
bool pin_mget(ItemStore& store, sim::Time now, std::span<const std::byte> key_block,
              std::size_t max_keys, std::size_t value_budget, std::vector<ItemHeader*>& items);

/// Encode one reply chunk's header block at `out`: a `value`
/// ResponseHeader echoing `req_id`, the MgetChunkHeader, and one
/// MgetRecord per item of `items` (the chunk's records, starting at
/// request index `start`). Returns the bytes written; the hit values
/// travel after it, in record order (copy_mget_values).
std::size_t encode_mget_chunk(std::byte* out, std::uint64_t req_id, std::uint32_t start,
                              std::span<ItemHeader* const> items, std::uint32_t total_chunks,
                              std::uint32_t total_keys);

/// Concatenate the hit values of `items` at `out`; returns the bytes copied.
std::size_t copy_mget_values(std::span<ItemHeader* const> items, std::byte* out);

}  // namespace rmc::mc
