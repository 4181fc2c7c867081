// Fuzz harness for the seqlock frame codec (common/frame.hpp) — the
// framing both RFP ring directions and the one-sided index records depend
// on. Properties checked on every input, beyond "does not crash":
//
//  1. read_frame on arbitrary slot bytes never returns `ready` with a body
//     that escapes the slot or exceeds the slot's body capacity.
//  2. seal_frame → read_frame roundtrips byte-exactly for a fuzz-chosen
//     body and epoch.
//  3. Corrupting one byte inside the framed region of a sealed slot never
//     yields a `ready` body different from the sealed one (the checksum /
//     version-pair argument: torn or tampered frames are detectable).
//  4. A one-sided record (onesided/layout.hpp) sealed from a fuzz-chosen
//     key and value opens byte-exactly under its epoch and as a hinted
//     read (no expected epoch), under no other epoch, and under none at
//     all once retracted (odd epoch stamped over the front seq).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/frame.hpp"
#include "onesided/layout.hpp"

// Unconditional check: the harness runs in Release trees where NDEBUG
// would compile assert() out.
#define FUZZ_REQUIRE(cond)                                                  \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "FUZZ FAILURE: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                               \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace {

constexpr std::size_t kMinSlot =
    rmc::FrameHeader::kSize + rmc::FrameHeader::kTailSize;

void check_read(std::span<const std::byte> slot, std::uint32_t seq) {
  std::span<const std::byte> body;
  if (rmc::read_frame(slot, seq, body) == rmc::FrameState::ready) {
    FUZZ_REQUIRE(body.data() >= slot.data());
    FUZZ_REQUIRE(body.data() + body.size() <= slot.data() + slot.size());
    FUZZ_REQUIRE(body.size() <=
                 rmc::body_capacity(static_cast<std::uint32_t>(slot.size())));
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 5) return 0;
  std::uint32_t seq = 0;
  std::memcpy(&seq, data, sizeof(seq));
  data += sizeof(seq);
  size -= sizeof(seq);

  // Property 1: arbitrary bytes as a slot.
  std::vector<std::byte> slot(std::max(size, kMinSlot), std::byte{0});
  std::memcpy(slot.data(), data, size);
  check_read(slot, seq);
  check_read(slot, seq + 1);
  check_read(slot, 0);

  // Property 2: seal a fuzz-chosen body into a fresh slot and read it back.
  const auto slot_size =
      static_cast<std::uint32_t>(std::min<std::size_t>(slot.size() + 1, 1 << 20));
  std::vector<std::byte> sealed(slot_size, std::byte{0});
  const std::uint32_t body_len = std::min(
      static_cast<std::uint32_t>(size), rmc::body_capacity(slot_size));
  auto body_dst = rmc::frame_body(sealed);
  std::memcpy(body_dst.data(), data, body_len);
  rmc::seal_frame(sealed, seq, body_len);

  std::span<const std::byte> body;
  const auto st = rmc::read_frame(sealed, seq, body);
  FUZZ_REQUIRE(st == rmc::FrameState::ready);
  FUZZ_REQUIRE(body.size() == body_len);
  FUZZ_REQUIRE(std::memcmp(body.data(), data, body_len) == 0);

  // Property 3: one-byte corruption inside the framed region must never
  // verify as a different body.
  const std::size_t framed = rmc::framed_size(body_len);
  std::vector<std::byte> tampered = sealed;
  const std::size_t victim = data[size - 1] % framed;
  tampered[victim] ^= std::byte{0x01};
  std::span<const std::byte> tampered_body;
  if (rmc::read_frame(tampered, seq, tampered_body) ==
      rmc::FrameState::ready) {
    FUZZ_REQUIRE(tampered_body.size() == body_len);
    FUZZ_REQUIRE(std::memcmp(tampered_body.data(), data, body_len) == 0);
  }

  // Property 4: one-sided record framing.
  namespace os = rmc::onesided;
  const std::uint32_t version = (seq & ~1u) | 2u;  // even, nonzero
  const std::size_t key_len = std::min<std::size_t>(size, data[0] % 32);
  const std::string_view key(reinterpret_cast<const char*>(data), key_len);
  const std::span<const std::byte> value(reinterpret_cast<const std::byte*>(data) + key_len,
                                         std::min<std::size_t>(size - key_len, 4096));
  // Slot slack past the record, as in the arena.
  std::vector<std::byte> arena(os::record_framed_size(key_len, value.size()) + 8, std::byte{0});
  const os::RecordMeta meta{.key_len = static_cast<std::uint16_t>(key_len),
                            .value_len = static_cast<std::uint32_t>(value.size())};
  const std::span<const std::byte> record(arena.data(),
                                          os::seal_record(arena, version, meta, key, value));
  os::RecordView rec;
  FUZZ_REQUIRE(os::open_record(record, version, key, rec));
  FUZZ_REQUIRE(rec.value.size() == value.size());
  FUZZ_REQUIRE(std::memcmp(rec.value.data(), value.data(), value.size()) == 0);
  FUZZ_REQUIRE(os::open_record(record, std::nullopt, key, rec));
  FUZZ_REQUIRE(!os::open_record(record, version ^ 4u, key, rec));  // another stable epoch
  const std::uint32_t retracted = version | 1u;
  std::memcpy(arena.data(), &retracted, sizeof(retracted));
  FUZZ_REQUIRE(!os::open_record(record, version, key, rec));
  FUZZ_REQUIRE(!os::open_record(record, std::nullopt, key, rec));
  return 0;
}

#include "standalone_driver.hpp"
