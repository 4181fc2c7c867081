// The field-list codec behind every fixed-layout wire struct.
//
// A wire struct names its fields once, in wire order:
//
//   template <class S>
//   static auto fields(S& s) { return std::tie(s.a, s.b, s.window); }
//
// and codec::encode / codec::decode pack them back to back in host byte
// order with no padding between fields; a field that is itself a wire
// struct (a RemoteWindow inside a descriptor) packs field by field. The
// struct's kSize is its wire size: at least the packed fields, with any
// excess (AmWire pads to 48 B) zero-filled by encode.
#pragma once

#include <cstddef>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>

namespace rmc::codec {

template <class T>
concept WireStruct = requires(T& v) { T::fields(v); };

/// Bytes T's fields occupy on the wire (before any kSize padding).
template <class T>
constexpr std::size_t packed_size() {
  if constexpr (WireStruct<T>) {
    using Fields = decltype(T::fields(std::declval<T&>()));
    return []<std::size_t... I>(std::index_sequence<I...>) {
      return (packed_size<std::remove_reference_t<std::tuple_element_t<I, Fields>>>() + ...);
    }(std::make_index_sequence<std::tuple_size_v<Fields>>{});
  } else {
    static_assert(std::is_trivially_copyable_v<T>);
    return sizeof(T);
  }
}

namespace detail {

// Forced inline: AmWire runs through here on every message, and GCC would
// otherwise keep the recursive field walk as an out-of-line call instead
// of folding it into fixed-offset loads and stores.
template <class T>
[[gnu::always_inline]] inline void put(std::byte*& out, const T& v) {
  if constexpr (WireStruct<T>) {
    std::apply([&out](const auto&... f) { (put(out, f), ...); }, T::fields(v));
  } else {
    std::memcpy(out, &v, sizeof(v));
    out += sizeof(v);
  }
}

template <class T>
[[gnu::always_inline]] inline void get(const std::byte*& in, T& v) {
  if constexpr (WireStruct<T>) {
    std::apply([&in](auto&... f) { (get(in, f), ...); }, T::fields(v));
  } else {
    std::memcpy(&v, in, sizeof(v));
    in += sizeof(v);
  }
}

}  // namespace detail

/// Write v's T::kSize wire bytes at `out`.
template <WireStruct T>
void encode(const T& v, std::byte* out) {
  static_assert(packed_size<T>() <= T::kSize, "kSize must cover the fields");
  detail::put(out, v);
  if constexpr (packed_size<T>() < T::kSize) {
    std::memset(out, 0, T::kSize - packed_size<T>());
  }
}

/// Read a T from the T::kSize wire bytes at `in`.
template <WireStruct T>
T decode(const std::byte* in) {
  T v{};
  detail::get(in, v);
  return v;
}

}  // namespace rmc::codec
