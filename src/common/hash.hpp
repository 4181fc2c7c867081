// Key hashing used by the memcached client for server selection and by the
// server's item hash table.
//
// libmemcached 0.45 (the client library the paper uses) ships several hash
// functions; we implement the ones that matter for reproducing its
// behaviour: the "default" Jenkins one-at-a-time hash, FNV-1a (32/64 bit),
// and MD5 (used both by MEMCACHED_HASH_MD5 and by ketama consistent
// hashing). The server-side hash table uses Bob Jenkins' one-at-a-time as
// memcached 1.4.x did by default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace rmc {

/// Bob Jenkins one-at-a-time hash — memcached's classic default.
std::uint32_t hash_one_at_a_time(std::string_view data);

/// FNV-1a, 32-bit.
std::uint32_t hash_fnv1a_32(std::string_view data);

/// Incremental FNV-1a, 64-bit, over arbitrary bytes: record and frame
/// checksums fold several disjoint fields into one value.
class Fnv1a64 {
 public:
  void mix(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      state_ ^= static_cast<std::uint64_t>(b);
      state_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void mix_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::byte raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    mix({raw, sizeof(T)});
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// FNV-1a, 64-bit.
std::uint64_t hash_fnv1a_64(std::string_view data);

/// CRC32 (the ITU-T polynomial, bit-reflected) — libmemcached's HASH_CRC
/// uses (crc >> 16) & 0x7fff; we expose the raw CRC and let callers mask.
std::uint32_t hash_crc32(std::string_view data);

/// Hash function selector mirroring libmemcached's memcached_hash_t subset.
enum class HashKind {
  default_jenkins,
  fnv1a_32,
  fnv1a_64,
  crc,
  md5,
};

/// Dispatch on HashKind; MD5 and 64-bit variants are folded to 32 bits the
/// way libmemcached folds them (low 4 bytes for MD5, xor-fold for fnv64).
std::uint32_t hash_key(HashKind kind, std::string_view key);

}  // namespace rmc
