// Fixture: seqlock-discipline violations — direct writes to guarded
// frame/index fields outside the one sealer and the epoch writers.
#include "common/frame.hpp"

#include <cstdint>
#include <cstring>

namespace fx {

struct FrameHeader {
  std::uint32_t seq = 0;
  std::uint32_t body_len = 0;
  std::uint32_t checksum = 0;
};

struct Ring {
  std::uint32_t* expected_seq = nullptr;
};

// Not a blessed writer: stamping seq directly skips the body/checksum
// ordering that makes torn frames detectable.
void publish_frame(FrameHeader& hdr, std::uint32_t epoch) {
  hdr.seq = epoch;
  hdr.checksum = 0;
}

void bump(Ring& ring, std::uint32_t slot) {
  ring.expected_seq[slot] += 1;
}

// A response framer is not a sealer: it must hand the stamp to seal_frame.
void seal_response(FrameHeader& hdr, std::uint32_t epoch) {
  hdr.seq = epoch;
}

}  // namespace fx
