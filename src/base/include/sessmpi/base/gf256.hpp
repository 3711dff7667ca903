#pragma once

// GF(2^8) arithmetic for the checkpoint layer's Reed-Solomon codec
// (src/ckpt/codec.cpp). The field is GF(2)[x]/(x^8+x^4+x^3+x^2+1)
// (polynomial 0x11d, the AES-unrelated "Rijndael's cousin" every RAID-6
// implementation uses), represented as log/antilog tables over the
// generator 0x02. Header-only and constexpr-built: the tables are
// computed at compile time, so there is no init-order footgun and the
// codec can be unit-tested as pure arithmetic.
//
// Also provides the Cauchy parity-matrix element used to build systematic
// MDS codes: with x_i = k + i and y_j = j, every square submatrix of
// C[i][j] = 1/(x_i ^ y_j) is itself Cauchy and hence invertible, which is
// exactly the property that makes "any m lost chunks per stripe"
// recoverable (k + m <= 256).

#include <array>
#include <cstddef>
#include <cstdint>

namespace sessmpi::base::gf256 {

namespace detail {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  ///< doubled so mul skips a mod 255
};

constexpr Tables build_tables() {
  Tables t{};
  std::uint32_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    t.exp[static_cast<std::size_t>(i + 255)] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) {
      x ^= 0x11d;
    }
  }
  t.exp[510] = t.exp[255];
  t.exp[511] = t.exp[256];
  t.log[0] = 0;  // log(0) is undefined; mul/div guard the zero cases
  return t;
}

inline constexpr Tables kTables = build_tables();

}  // namespace detail

[[nodiscard]] constexpr std::uint8_t mul(std::uint8_t a,
                                         std::uint8_t b) noexcept {
  if (a == 0 || b == 0) {
    return 0;
  }
  return detail::kTables
      .exp[static_cast<std::size_t>(detail::kTables.log[a]) +
           detail::kTables.log[b]];
}

/// Multiplicative inverse; inv(0) is undefined and returns 0 (callers in
/// the codec never invert zero: Cauchy denominators are nonzero by
/// construction and Gaussian elimination pivots are checked first).
[[nodiscard]] constexpr std::uint8_t inv(std::uint8_t a) noexcept {
  if (a == 0) {
    return 0;
  }
  return detail::kTables.exp[255 - detail::kTables.log[a]];
}

[[nodiscard]] constexpr std::uint8_t div(std::uint8_t a,
                                         std::uint8_t b) noexcept {
  return mul(a, inv(b));
}

/// Parity-matrix element for the systematic Cauchy code: row i (parity
/// index, 0..m-1), column j (data index, 0..k-1), with the standard
/// disjoint evaluation points x_i = k + i, y_j = j. Requires k + m <= 256.
[[nodiscard]] constexpr std::uint8_t cauchy(int k, int i, int j) noexcept {
  return inv(static_cast<std::uint8_t>((k + i) ^ j));
}

/// The codec's parity matrix: the Cauchy matrix with every column divided
/// by its row-0 element, C'[i][j] = C[i][j] / C[0][j] = (x_0 ^ y_j) /
/// (x_i ^ y_j). Scaling a column by a nonzero constant keeps every square
/// submatrix nonsingular, so the code stays MDS; row 0 becomes all ones,
/// which makes parity 0 the plain XOR of the data (mul_add's fast path).
[[nodiscard]] constexpr std::uint8_t parity_coef(int k, int i,
                                                 int j) noexcept {
  return div(static_cast<std::uint8_t>(k ^ j),
             static_cast<std::uint8_t>((k + i) ^ j));
}

/// dst[0..len) ^= coef * src[0..len) — the inner loop of both encode and
/// decode. coef == 1 degenerates to pure XOR (every parity-0 term).
inline void mul_add(std::byte* dst, const std::byte* src, std::size_t len,
                    std::uint8_t coef) noexcept {
  if (coef == 0) {
    return;
  }
  if (coef == 1) {
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] ^= src[i];
    }
    return;
  }
  const std::uint8_t logc = detail::kTables.log[coef];
  for (std::size_t i = 0; i < len; ++i) {
    const auto s = static_cast<std::uint8_t>(src[i]);
    if (s != 0) {
      dst[i] ^= static_cast<std::byte>(
          detail::kTables.exp[static_cast<std::size_t>(logc) +
                              detail::kTables.log[s]]);
    }
  }
}

}  // namespace sessmpi::base::gf256
