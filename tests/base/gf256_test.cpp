// GF(2^8) field arithmetic backing the checkpoint erasure codecs: field
// axioms over exhaustive element pairs, inverse round-trips, and the
// Cauchy-submatrix invertibility the MDS recovery guarantee rests on —
// for the raw Cauchy matrix and the column-normalised one the codec uses.

#include "sessmpi/base/gf256.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sessmpi::base::gf256 {
namespace {

TEST(Gf256, MultiplicationIsCommutativeWithZeroAndOneLaws) {
  for (int a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(ua, 0), 0);
    EXPECT_EQ(mul(0, ua), 0);
    EXPECT_EQ(mul(ua, 1), ua);
    EXPECT_EQ(mul(1, ua), ua);
    for (int b = 0; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(mul(ua, ub), mul(ub, ua));
    }
  }
}

TEST(Gf256, MultiplicationAssociatesAndDistributesOverXor) {
  // Exhaustive triples would be 2^24 products; coprime strides still visit
  // every element in each position while keeping the test instant.
  for (int a = 1; a < 256; a += 3) {
    for (int b = 1; b < 256; b += 5) {
      for (int c = 1; c < 256; c += 7) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        ASSERT_EQ(mul(mul(ua, ub), uc), mul(ua, mul(ub, uc)));
        ASSERT_EQ(mul(ua, static_cast<std::uint8_t>(ub ^ uc)),
                  static_cast<std::uint8_t>(mul(ua, ub) ^ mul(ua, uc)));
      }
    }
  }
}

TEST(Gf256, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    const std::uint8_t ia = inv(ua);
    EXPECT_NE(ia, 0);
    EXPECT_EQ(mul(ua, ia), 1) << "a=" << a;
    EXPECT_EQ(div(ua, ua), 1);
  }
  EXPECT_EQ(inv(0), 0);  // documented sentinel, never hit by the codec
}

TEST(Gf256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      ASSERT_EQ(div(mul(ua, ub), ub), ua);
    }
  }
}

/// Determinant over GF(2^8) by Gaussian elimination (char 2: row swaps do
/// not flip the sign).
std::uint8_t det(std::vector<std::vector<std::uint8_t>> a) {
  const std::size_t n = a.size();
  std::uint8_t d = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t piv = col;
    while (piv < n && a[piv][col] == 0) {
      ++piv;
    }
    if (piv == n) {
      return 0;
    }
    std::swap(a[piv], a[col]);
    d = mul(d, a[col][col]);
    const std::uint8_t pivinv = inv(a[col][col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      if (a[r][col] == 0) {
        continue;
      }
      const std::uint8_t f = mul(a[r][col], pivinv);
      for (std::size_t c = col; c < n; ++c) {
        a[r][c] = static_cast<std::uint8_t>(a[r][c] ^ mul(f, a[col][c]));
      }
    }
  }
  return d;
}

/// Index subsets of {0..n-1} with exactly `e` elements, ascending.
std::vector<std::vector<int>> subsets(int n, int e) {
  std::vector<std::vector<int>> out;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (std::popcount(mask) != e) {
      continue;
    }
    std::vector<int> s;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) {
        s.push_back(i);
      }
    }
    out.push_back(s);
  }
  return out;
}

TEST(Gf256, EverySquareCauchySubmatrixIsInvertible) {
  // The MDS property in matrix form: recovering e lost data chunks inverts
  // an e x e submatrix of the parity matrix, so every such submatrix must
  // be nonsingular. Check all of them, for the raw Cauchy matrix and for
  // the column-normalised one the codec uses (parity_coef), over the set
  // shapes the checkpoint layer configures.
  using Matrix = std::uint8_t (*)(int, int, int);
  for (const Matrix coef : {Matrix{&cauchy}, Matrix{&parity_coef}}) {
    for (const auto& [k, m] : std::vector<std::pair<int, int>>{
             {1, 1}, {7, 1}, {4, 2}, {8, 2}, {4, 3}, {10, 4}}) {
      for (int e = 1; e <= m; ++e) {
        for (const auto& rows : subsets(m, e)) {
          for (const auto& cols : subsets(k, e)) {
            std::vector<std::vector<std::uint8_t>> a(
                static_cast<std::size_t>(e));
            for (int r = 0; r < e; ++r) {
              for (const int c : cols) {
                a[static_cast<std::size_t>(r)].push_back(
                    coef(k, rows[static_cast<std::size_t>(r)], c));
              }
            }
            ASSERT_NE(det(a), 0) << "k=" << k << " m=" << m << " e=" << e;
          }
        }
      }
    }
  }
}

TEST(Gf256, NormalisedParityRowZeroIsAllOnes) {
  // parity_coef scales column j of the Cauchy matrix by 1 / C[0][j]: row 0
  // becomes all ones (parity 0 = XOR of the data) and every other element
  // is the Cauchy element times that column's scale.
  for (int k = 1; k <= 16; ++k) {
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(parity_coef(k, 0, j), 1);
      for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(parity_coef(k, i, j), div(cauchy(k, i, j), cauchy(k, 0, j)));
      }
    }
  }
}

TEST(Gf256, MulAddMatchesScalarReference) {
  std::array<std::byte, 64> src{};
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(37 * i + 11);
  }
  for (const int coef : {0, 1, 2, 0x53, 0xff}) {
    std::array<std::byte, 64> dst{};
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<std::byte>(5 * i + 3);
    }
    auto want = dst;
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] ^= static_cast<std::byte>(mul(static_cast<std::uint8_t>(coef),
                                            static_cast<std::uint8_t>(src[i])));
    }
    mul_add(dst.data(), src.data(), dst.size(),
            static_cast<std::uint8_t>(coef));
    EXPECT_EQ(dst, want) << "coef=" << coef;
  }
}

}  // namespace
}  // namespace sessmpi::base::gf256
