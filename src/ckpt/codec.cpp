// Redundancy-set placement and the erasure codec (see
// include/sessmpi/ckpt/codec.hpp). Parity i of a stripe is
//
//   p_i = sum_j parity_coef(k, i, j) * d_j
//
// over GF(2^8), and reconstruction solves the e x e linear system the
// surviving parities impose on the e missing data chunks by Gaussian
// elimination over the field — any e <= m losses per stripe are
// recoverable because every square submatrix of the (column-scaled)
// Cauchy matrix is invertible. Row 0 is all ones, so a single loss with
// parity 0 alive decodes by XOR alone.

#include <algorithm>
#include <map>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/gf256.hpp"
#include "sessmpi/ckpt/codec.hpp"

namespace sessmpi::ckpt {

namespace gf = base::gf256;

int SetLayout::member_of(int comm_rank) const noexcept {
  const auto it = std::find(members.begin(), members.end(), comm_rank);
  return it == members.end() ? -1 : static_cast<int>(it - members.begin());
}

std::vector<SetLayout> set_layouts(const std::vector<base::Rank>& members,
                                   const base::Topology& topo, int k, int m) {
  if (k < 1 || m < 0) {
    throw Error(ErrClass::arg, "ckpt: redundancy set needs k >= 1, m >= 0");
  }
  // Comm ranks grouped by node (ascending node id), each in comm-rank order.
  std::map<int, std::vector<int>> by_node;
  for (std::size_t r = 0; r < members.size(); ++r) {
    by_node[topo.node_of(members[r])].push_back(static_cast<int>(r));
  }
  // Round-robin across nodes: slot 0 of every node, then slot 1, ...
  std::vector<int> order;
  for (std::size_t slot = 0; order.size() < members.size(); ++slot) {
    for (const auto& [node, ranks] : by_node) {
      if (slot < ranks.size()) {
        order.push_back(ranks[slot]);
      }
    }
  }
  const auto g = static_cast<std::size_t>(k + m);
  std::vector<SetLayout> sets;
  for (std::size_t first = 0; first < order.size(); first += g) {
    SetLayout s;
    s.members.assign(order.begin() + static_cast<long>(first),
                     order.begin() + static_cast<long>(
                                         std::min(first + g, order.size())));
    sets.push_back(std::move(s));
  }
  // A 1-member tail would have no redundancy: it joins the previous set as
  // one more data member.
  if (g > 1 && sets.size() > 1 && sets.back().size() == 1) {
    sets[sets.size() - 2].members.push_back(sets.back().members.front());
    sets.pop_back();
  }
  for (SetLayout& s : sets) {
    s.parity = std::min(m, s.size() - 1);
    s.data = s.size() - s.parity;
  }
  return sets;
}

SetCodec::SetCodec(int k, int m) : k_(k), m_(m) {
  if (k < 1 || m < 0 || k + m > 254) {
    throw Error(ErrClass::arg,
                "ckpt: invalid redundancy set (need k >= 1, m >= 0, "
                "k + m <= 254)");
  }
}

void SetCodec::encode(int pi, const std::byte* const* data, std::size_t len,
                      std::byte* out) const {
  std::fill(out, out + len, std::byte{0});
  for (int j = 0; j < k_; ++j) {
    gf::mul_add(out, data[j], len, gf::parity_coef(k_, pi, j));
  }
}

bool SetCodec::reconstruct(std::byte* const* data, const bool* data_ok,
                           const std::byte* const* parity,
                           std::size_t len) const {
  std::vector<int> missing;
  for (int j = 0; j < k_; ++j) {
    if (!data_ok[j]) {
      missing.push_back(j);
    }
  }
  if (missing.empty()) {
    return true;
  }
  std::vector<int> rows;  // surviving parity indices, first e of them
  for (int i = 0; i < m_ && rows.size() < missing.size(); ++i) {
    if (parity[i] != nullptr) {
      rows.push_back(i);
    }
  }
  const std::size_t e = missing.size();
  if (rows.size() < e) {
    return false;
  }

  // rhs_r = p_{rows[r]} - sum_{j survives} C'[rows[r]][j] * d_j; the system
  // A * x = rhs with A[r][c] = C'[rows[r]][missing[c]] then yields the
  // missing chunks x.
  std::vector<std::vector<std::byte>> rhs(e, std::vector<std::byte>(len));
  std::vector<std::uint8_t> a(e * e);
  for (std::size_t r = 0; r < e; ++r) {
    std::copy(parity[rows[r]], parity[rows[r]] + len, rhs[r].data());
    for (int j = 0; j < k_; ++j) {
      if (data_ok[j]) {
        gf::mul_add(rhs[r].data(), data[j], len,
                    gf::parity_coef(k_, rows[r], j));
      }
    }
    for (std::size_t c = 0; c < e; ++c) {
      a[r * e + c] = gf::parity_coef(k_, rows[r], missing[c]);
    }
  }

  // Gaussian elimination to identity, mirroring every row op onto rhs.
  for (std::size_t col = 0; col < e; ++col) {
    std::size_t pivot = col;
    while (pivot < e && a[pivot * e + col] == 0) {
      ++pivot;
    }
    if (pivot == e) {
      return false;  // unreachable for a Cauchy system; belt-and-braces
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < e; ++c) {
        std::swap(a[pivot * e + c], a[col * e + c]);
      }
      rhs[pivot].swap(rhs[col]);
    }
    const std::uint8_t pinv = gf::inv(a[col * e + col]);
    if (pinv != 1) {  // a unit pivot (every parity-0 row) needs no scaling
      for (std::size_t c = 0; c < e; ++c) {
        a[col * e + c] = gf::mul(a[col * e + c], pinv);
      }
      for (std::size_t i = 0; i < len; ++i) {
        rhs[col][i] = static_cast<std::byte>(
            gf::mul(static_cast<std::uint8_t>(rhs[col][i]), pinv));
      }
    }
    for (std::size_t r = 0; r < e; ++r) {
      if (r == col || a[r * e + col] == 0) {
        continue;
      }
      const std::uint8_t f = a[r * e + col];
      for (std::size_t c = 0; c < e; ++c) {
        a[r * e + c] ^= gf::mul(f, a[col * e + c]);
      }
      gf::mul_add(rhs[r].data(), rhs[col].data(), len, f);
    }
  }
  for (std::size_t c = 0; c < e; ++c) {
    std::copy(rhs[c].begin(), rhs[c].end(), data[missing[c]]);
  }
  return true;
}

}  // namespace sessmpi::ckpt
