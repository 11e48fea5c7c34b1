#pragma once
// The snapshot trailer seals, re-implemented from the format description
// in netlist_io.hpp, so tests can patch a snapshot and re-seal it with the
// seal of its own version: a patch then reaches the validator it targets
// instead of stopping at the checksum gate.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace gtl::testing {

/// v1: FNV-1a 64 over every byte.
inline std::uint64_t fnv1a_seal(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

/// v2: little-endian 64-bit word i into lane i mod 4 (the last partial
/// word zero-padded), then the byte count and the lanes folded together.
inline std::uint64_t word_seal(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0x9E37'79B9'7F4A'7C15ull;
  auto avalanche = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51'AFD7'ED55'8CCDull;
    return x ^ (x >> 33);
  };
  std::uint64_t lanes[4] = {0x243F'6A88'85A3'08D3ull, 0x1319'8A2E'0370'7344ull,
                            0xA409'3822'299F'31D0ull, 0x082E'FA98'EC4E'6C89ull};
  for (std::size_t at = 0, i = 0; at < bytes.size(); at += 8, ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + at,
                std::min<std::size_t>(8, bytes.size() - at));
    std::uint64_t& lane = lanes[i % 4];
    lane = (lane ^ w) * kMul;
    lane ^= lane >> 32;
  }
  std::uint64_t h = bytes.size() * kMul;
  for (const std::uint64_t lane : lanes) {
    h = (h ^ avalanche(lane)) * kMul;
    h ^= h >> 29;
  }
  return avalanche(h);
}

/// Recompute the 8-byte trailer of a whole snapshot with the seal of the
/// version word at offset 12.
inline std::string reseal(std::string bytes) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 12, sizeof(version));
  const std::string_view body(bytes.data(), bytes.size() - 8);
  const std::uint64_t h = version == 1 ? fnv1a_seal(body) : word_seal(body);
  std::memcpy(bytes.data() + bytes.size() - 8, &h, sizeof(h));
  return bytes;
}

}  // namespace gtl::testing
