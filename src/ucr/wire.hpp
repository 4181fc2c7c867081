// UCR active-message wire format (internal).
//
// Every UCR message starts with a fixed AmWire header, followed by the
// user header and (eager only) the data. The same layout carries internal
// acknowledgement and credit messages (§IV-C's "optional internal
// messages").
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>

#include "common/codec.hpp"

namespace rmc::ucr::wire {

enum class Kind : std::uint8_t {
  eager,         ///< header + data in one transaction (Fig. 2b)
  rendezvous,    ///< header only; target RDMA-reads the data (Fig. 2a)
  internal_ack,  ///< counter update back to the origin
  credit,        ///< explicit credit return (flow control)
  ping,          ///< keepalive probe (liveness, not flow control)
  pong,          ///< keepalive answer
};

/// Flags on internal_ack saying which origin-side counters to bump, and on
/// eager/rendezvous saying which acks the origin wants.
enum AckFlags : std::uint8_t {
  kAckOrigin = 1,      ///< data has been pulled; origin buffer reusable
  kAckCompletion = 2,  ///< target completion handler has run
};

struct AmWire {
  Kind kind = Kind::eager;
  std::uint8_t want_flags = 0;       ///< acks requested by the origin
  std::uint16_t msg_id = 0;          ///< header-handler selector
  std::uint16_t header_len = 0;
  std::uint16_t credits = 0;         ///< piggybacked credit return
  std::uint32_t data_len = 0;
  std::uint64_t target_counter = 0;  ///< counter ref at the target (0=none)
  std::uint64_t token = 0;           ///< origin-side pending-op correlation
  std::uint64_t rndz_addr = 0;       ///< rendezvous: origin data address
  std::uint32_t rndz_rkey = 0;       ///< rendezvous: origin data rkey
  std::uint8_t ack_flags = 0;        ///< internal_ack: which counters fired
  std::uint32_t dst_ep = 0;          ///< UD endpoints: target endpoint id

  static constexpr std::size_t kSize = 48;  ///< 45 B of fields, zero-padded

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.kind, s.want_flags, s.msg_id, s.header_len, s.credits, s.data_len,
                    s.target_counter, s.token, s.rndz_addr, s.rndz_rkey, s.ack_flags,
                    s.dst_ep);
  }
};

/// Request/reply calls (Runtime::call / Runtime::serve): the request AM's
/// user header is CallHeader | request body, and the reply travels back on
/// kMsgCallReply as reply body | u64 call_id.
inline constexpr std::uint16_t kMsgCallReply = 0x6dff;

struct CallHeader {
  std::uint64_t call_id = 0;        ///< names the pending call at the origin
  std::uint64_t reply_counter = 0;  ///< CounterRef the reply fires at the origin

  static constexpr std::size_t kSize = 16;

  template <class S>
  static auto fields(S& s) {
    return std::tie(s.call_id, s.reply_counter);
  }
};

}  // namespace rmc::ucr::wire
