#include "common/hash.hpp"

#include <array>

#include "common/md5.hpp"

namespace rmc {

std::uint32_t hash_one_at_a_time(std::string_view data) {
  std::uint32_t h = 0;
  for (unsigned char c : data) {
    h += c;
    h += h << 10;
    h ^= h >> 6;
  }
  h += h << 3;
  h ^= h >> 11;
  h += h << 15;
  return h;
}

std::uint32_t hash_fnv1a_32(std::string_view data) {
  std::uint32_t h = 0x811c9dc5u;
  for (unsigned char c : data) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

std::uint64_t hash_fnv1a_64(std::string_view data) {
  Fnv1a64 h;
  h.mix(std::as_bytes(std::span(data)));
  return h.value();
}

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

}  // namespace

std::uint32_t hash_crc32(std::string_view data) {
  std::uint32_t crc = 0xffffffffu;
  for (unsigned char c : data) {
    crc = kCrcTable[(crc ^ c) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t hash_key(HashKind kind, std::string_view key) {
  switch (kind) {
    case HashKind::default_jenkins:
      return hash_one_at_a_time(key);
    case HashKind::fnv1a_32:
      return hash_fnv1a_32(key);
    case HashKind::fnv1a_64: {
      const std::uint64_t h = hash_fnv1a_64(key);
      return static_cast<std::uint32_t>(h ^ (h >> 32));
    }
    case HashKind::crc:
      return (hash_crc32(key) >> 16) & 0x7fffu;
    case HashKind::md5: {
      const Md5Digest d = md5(key);
      // libmemcached folds the first four digest bytes, little-endian.
      return static_cast<std::uint32_t>(d.bytes[0]) |
             static_cast<std::uint32_t>(d.bytes[1]) << 8 |
             static_cast<std::uint32_t>(d.bytes[2]) << 16 |
             static_cast<std::uint32_t>(d.bytes[3]) << 24;
    }
  }
  return hash_one_at_a_time(key);
}

}  // namespace rmc
