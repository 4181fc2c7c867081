// Client side of the one-sided GET subsystem.
//
// A RemoteGetter bootstraps the server's IndexDescriptor with one
// request/reply call (ucr::Runtime::call), then serves GETs by RDMA Read.
// The cold path is two reads — the bucket line keyed by the store's hash,
// then the record slot the matching entry names. Because the record frame
// is self-verifying (seqlock epoch pair, checksum, embedded key), a
// verified hit also yields a location hint, and steady-state GETs re-read
// the record directly in ONE round trip; a hint that no longer verifies is
// dropped and the two-read path repairs it. Every read is re-verified
// (entry self-check, frame epoch pair and checksum, key bytes) before a
// value is surfaced; any mismatch is a torn observation and is retried a
// bounded number of times before the caller falls back to the RPC GET.
//
// The getter is deliberately non-authoritative: a miss here only means
// "not published" (absent, oversized, or displaced from a full bucket),
// so callers always fall back to the RPC path rather than reporting
// not_found from a one-sided miss.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "onesided/layout.hpp"
#include "simnet/event.hpp"
#include "ucr/runtime.hpp"

namespace rmc::onesided {

struct GetterConfig {
  /// Re-run the two-read sequence this many times on a torn observation
  /// before giving up and falling back to RPC.
  std::uint32_t max_torn_retries = 2;
  /// Per-read completion timeout (endpoint failures wake waiters earlier
  /// via the runtime's fail-fast path; this bounds lost completions).
  sim::Time read_timeout = 1 * kNsPerSec;
  /// Location hints cached per key (verified hit -> arena offset/length)
  /// so repeat GETs cost one RDMA Read instead of two. The cache is
  /// advisory only — a hinted read must still fully verify — so the cap
  /// just bounds memory; the map is cleared when it fills.
  std::size_t max_hints = 4096;
};

/// A verified one-sided GET hit. `value` points into the getter's scratch
/// buffer and stays valid until the next try_get on the same getter.
struct OneSidedHit {
  std::span<const std::byte> value;
  std::uint32_t flags = 0;
  std::uint64_t cas = 0;
};

class RemoteGetter {
 public:
  RemoteGetter(ucr::Runtime& runtime, GetterConfig config = {});
  RemoteGetter(const RemoteGetter&) = delete;
  RemoteGetter& operator=(const RemoteGetter&) = delete;

  /// The one RPC: fetch the index descriptor over `ep`. Idempotent;
  /// returns immediately when already bootstrapped. The getter is armed
  /// only by a call that completes: a reply landing after a timeout is
  /// dropped.
  sim::Task<Status> bootstrap(ucr::Endpoint& ep, sim::Time timeout = 1 * kNsPerSec);

  bool ready() const { return descriptor_.valid(); }
  const IndexDescriptor& descriptor() const { return descriptor_; }

  /// Attempt a one-sided GET. Any non-ok result means "use the RPC path":
  ///   not_found     — no verifiable published entry (miss/displaced/torn
  ///                   beyond the retry budget/expired)
  ///   too_large     — published record exceeds the scratch capacity
  ///   disconnected  — endpoint failed or a read never completed
  /// mc.oneside.reads counts attempts, mc.oneside.torn_retries counts
  /// re-reads after failed verification, mc.oneside.fallbacks counts
  /// non-ok returns.
  sim::Task<Result<OneSidedHit>> try_get(ucr::Endpoint& ep, std::string_view key);

 private:
  /// Where a key's record lived the last time it verified. Advisory:
  /// the hinted read re-verifies everything, so a stale hint costs one
  /// wasted read, never a wrong value.
  struct Hint {
    std::uint32_t arena_offset = 0;
    std::uint32_t record_len = 0;
  };
  enum class Verify { hit, expired, mismatch };

  /// One RDMA Read + wait. False = failed/timed out (endpoint trouble).
  sim::Task<bool> read(ucr::Endpoint& ep, std::span<std::byte> dst,
                       const ucr::Runtime::RemoteMemory& window, std::uint32_t offset);
  /// Full record verification: open_record under `version` (the bucket
  /// entry's epoch, or nullopt for a hinted read), then expiry.
  /// On `hit`, `out` points into the record bytes.
  Verify verify_record(std::span<const std::byte> record, std::string_view key,
                       std::optional<std::uint32_t> version, OneSidedHit& out) const;
  void remember_hint(const std::string& key, Hint hint);
  /// Current cache-clock seconds (mc::cache_clock).
  std::uint32_t now_seconds() const;

  ucr::Runtime* runtime_;
  GetterConfig config_;
  IndexDescriptor descriptor_{};

  std::vector<std::byte> scratch_;  ///< bucket line + record landing zone
  std::unique_ptr<sim::Counter> read_counter_;
  std::unordered_map<std::string, Hint> hints_;  ///< key -> last-verified slot

  obs::Counter* reads_metric_;
  obs::Counter* fallbacks_metric_;
  obs::Counter* torn_metric_;
};

}  // namespace rmc::onesided
