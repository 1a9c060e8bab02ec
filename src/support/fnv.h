// certkit support: FNV-1a/64 streaming digest helpers.
//
// The same hash family already keys the driver's artifact cache and the
// detector-batch bench; this header centralizes the constants plus typed
// append helpers so digest streams (replay tick signatures, analysis
// digests) are built from one implementation. Doubles are hashed by bit
// pattern — the digests gate *bit* identity, not approximate equality —
// with -0.0 and every NaN payload hashing as distinct values on purpose.
// A u64 digest does not fit a JSON double, so artifacts, checkpoints and
// corpus/cache entry names print it as HexU64's 16 lowercase hex digits.
#ifndef CERTKIT_SUPPORT_FNV_H_
#define CERTKIT_SUPPORT_FNV_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace certkit::support {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t FnvBytes(const void* data, std::size_t size,
                              std::uint64_t seed = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    seed ^= bytes[i];
    seed *= kFnvPrime;
  }
  return seed;
}

inline std::uint64_t FnvStr(std::string_view s,
                            std::uint64_t seed = kFnvOffsetBasis) {
  return FnvBytes(s.data(), s.size(), seed);
}

// FNV-1a over 64-bit words (host order, little-endian on every target we
// build for), then the tail bytewise: the frame digest (support/io.h). One
// multiply per eight bytes makes it several times faster than FnvStr, and
// like FnvStr every step is a bijection of the state, so changing any one
// byte always changes the digest.
inline std::uint64_t FnvWords(std::string_view s,
                              std::uint64_t seed = kFnvOffsetBasis) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= s.size(); i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + i, sizeof(word));
    seed ^= word;
    seed *= kFnvPrime;
  }
  return FnvBytes(s.data() + i, s.size() - i, seed);
}

inline std::uint64_t FnvU64(std::uint64_t v,
                            std::uint64_t seed = kFnvOffsetBasis) {
  return FnvBytes(&v, sizeof(v), seed);
}

inline std::uint64_t FnvI64(std::int64_t v,
                            std::uint64_t seed = kFnvOffsetBasis) {
  return FnvBytes(&v, sizeof(v), seed);
}

inline std::uint64_t FnvDouble(double v,
                               std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64(bits, seed);
}

inline std::uint64_t FnvFloat(float v,
                              std::uint64_t seed = kFnvOffsetBasis) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvBytes(&bits, sizeof(bits), seed);
}

// Fixed-width lowercase hex: 16 digits, zero-padded.
inline std::string HexU64(std::uint64_t v) {
  std::string out(16, '0');
  for (auto it = out.rbegin(); it != out.rend(); ++it, v >>= 4) {
    *it = "0123456789abcdef"[v & 0xF];
  }
  return out;
}

// Inverse of HexU64: exactly 16 lowercase hex digits (uppercase, short and
// long forms are rejected); *out is untouched on failure.
inline bool ParseHexU64(std::string_view s, std::uint64_t* out) {
  return s.size() == 16 &&
         s.find_first_not_of("0123456789abcdef") == std::string_view::npos &&
         std::from_chars(s.data(), s.data() + s.size(), *out, 16).ec ==
             std::errc();
}

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_FNV_H_
