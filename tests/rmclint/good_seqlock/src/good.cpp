// Fixture: seqlock writes the discipline pass must accept — mutations
// inside the one sealer and an epoch writer, plus a justified suppression
// for an initialization no reader can race.
#include "common/frame.hpp"

#include <cstdint>
#include <vector>

namespace fx {

struct FrameHeader {
  std::uint32_t seq = 0;
  std::uint32_t body_len = 0;
  std::uint32_t checksum = 0;
};

struct Ring {
  std::vector<std::uint32_t> expected_seq;
};

// Blessed by name: the one sealer IS the protocol — body first, checksum
// second, seq stamp last.
void seal_frame(FrameHeader& hdr, std::uint32_t epoch, std::uint32_t sum) {
  hdr.checksum = sum;
  hdr.seq = epoch;
}

void release_slot(Ring& ring, std::uint32_t slot) {
  ring.expected_seq[slot] += 1;
}

void bootstrap(Ring& ring, std::uint32_t slots) {
  // rmclint:allow(seqlock-discipline): fresh ring during setup — no reader can
  // hold these epochs yet, so the bulk init cannot race.
  ring.expected_seq.assign(slots, 1);
}

}  // namespace fx
