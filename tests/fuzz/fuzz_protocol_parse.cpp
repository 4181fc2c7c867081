// Fuzz harness for the memcached wire parsers (text + binary), both
// directions. The server feeds the request parsers raw socket bytes and
// the client feeds the reply parsers raw socket bytes, so arbitrary input
// must never crash, loop, or read out of bounds. Beyond that, parsing must
// be chunking-invariant: feeding the same bytes all at once or split into
// two arbitrary chunks yields the same accept/reject sequence — the
// incremental buffering the connection loops depend on. Every parsed reply
// also runs through the client's decode to its outcome row (text_code /
// binary_code), and the decoded rows must be chunking-invariant too.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "memcached/binary.hpp"
#include "memcached/command.hpp"
#include "memcached/protocol.hpp"

#define FUZZ_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FUZZ FAILURE: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                               \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace {

using namespace rmc::mc;

/// What one parser made of its input: a decoded value per accepted item,
/// and whether it hit an error.
struct Drained {
  std::vector<int> decoded;
  bool error = false;
};

/// Parse everything buffered (`expect`: the text reply parser's shape).
template <typename Parser, typename Decode, typename... Expect>
void drain(Parser& parser, Decode decode, Drained& out, Expect... expect) {
  for (;;) {
    auto r = parser.next(expect...);
    if (!r.ok()) {
      out.error = true;
      return;
    }
    if (!r->has_value()) return;
    out.decoded.push_back(decode(**r));
    // Termination: the parser may never accept an unbounded item stream.
    FUZZ_REQUIRE(out.decoded.size() <= 1 << 20);
  }
}

template <typename Parser, typename Decode, typename... Expect>
void check_chunking_invariance(std::span<const std::byte> bytes, std::size_t split,
                               Decode decode, Expect... expect) {
  Parser whole;
  whole.feed(bytes);
  Drained one_shot;
  drain(whole, decode, one_shot, expect...);

  Parser chunked;
  split = bytes.empty() ? 0 : split % (bytes.size() + 1);
  chunked.feed(bytes.first(split));
  Drained parts;
  drain(chunked, decode, parts, expect...);
  if (!parts.error) {
    chunked.feed(bytes.subspan(split));
    drain(chunked, decode, parts, expect...);
    FUZZ_REQUIRE(parts.decoded == one_shot.decoded);
    FUZZ_REQUIRE(parts.error == one_shot.error);
  } else {
    // An error surfaced from the prefix alone must also surface whole.
    FUZZ_REQUIRE(one_shot.error);
  }
}

int request_kind(const proto::Request& req) { return static_cast<int>(req.command); }
int request_kind(const bproto::Request& req) { return static_cast<int>(req.opcode); }

int text_row(const proto::Response& reply) {
  const Code code = text_code(reply);
  FUZZ_REQUIRE(code <= Code::unsupported);
  return static_cast<int>(code);
}

/// The row a binary reply decodes to, for an op whose binary quirks apply
/// (add) and one that has none (get).
int binary_row(const bproto::Response& reply) {
  const Code add = binary_code(Op::add, reply.status);
  const Code get = binary_code(Op::get, reply.status);
  FUZZ_REQUIRE(add <= Code::unsupported && get <= Code::unsupported);
  return static_cast<int>(add) * 256 + static_cast<int>(get);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 1 || size > (64 << 10)) return 0;
  const std::size_t split = data[0];
  const std::span<const std::byte> bytes{
      reinterpret_cast<const std::byte*>(data + 1), size - 1};

  auto kind = [](const auto& req) { return request_kind(req); };
  check_chunking_invariance<proto::RequestParser>(bytes, split, kind);
  check_chunking_invariance<bproto::RequestParser>(bytes, split, kind);
  using Expect = proto::ResponseParser::Expect;
  for (const Expect expect : {Expect::simple, Expect::values, Expect::number}) {
    check_chunking_invariance<proto::ResponseParser>(bytes, split, text_row, expect);
  }
  check_chunking_invariance<bproto::ResponseParser>(bytes, split, binary_row);
  return 0;
}

#include "standalone_driver.hpp"
