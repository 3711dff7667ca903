#include "sessmpi/datatype.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace sessmpi {
namespace {

TEST(Datatype, PrimitiveSizes) {
  EXPECT_EQ(Datatype::byte().size(), 1u);
  EXPECT_EQ(Datatype::char8().size(), 1u);
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::int64().size(), 8u);
  EXPECT_EQ(Datatype::uint64().size(), 8u);
  EXPECT_EQ(Datatype::float32().size(), 4u);
  EXPECT_EQ(Datatype::float64().size(), 8u);
  EXPECT_TRUE(Datatype::int32().is_primitive());
  EXPECT_EQ(Datatype::int32().extent(), Datatype::int32().size());
}

TEST(Datatype, PredefinedAreSingletons) {
  EXPECT_TRUE(Datatype::int32().same_as(Datatype::int32()));
  EXPECT_FALSE(Datatype::int32().same_as(Datatype::int64()));
  EXPECT_TRUE(datatype_of<double>().same_as(Datatype::float64()));
  EXPECT_TRUE(datatype_of<std::int32_t>().same_as(Datatype::int32()));
}

TEST(Datatype, ContiguousSizeAndExtent) {
  Datatype c = Datatype::contiguous(5, Datatype::int32());
  EXPECT_EQ(c.size(), 20u);
  EXPECT_EQ(c.extent(), 20u);
  EXPECT_FALSE(c.is_primitive());
  EXPECT_EQ(c.kind(), Datatype::Kind::derived_k);
}

TEST(Datatype, ContiguousPackUnpackRoundTrip) {
  Datatype c = Datatype::contiguous(4, Datatype::int32());
  std::vector<std::int32_t> src{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::byte> wire(c.size() * 2);
  c.pack(src.data(), 2, wire.data());
  std::vector<std::int32_t> dst(8, 0);
  c.unpack(wire.data(), 2, dst.data());
  EXPECT_EQ(src, dst);
}

TEST(Datatype, VectorSizeAndExtent) {
  // 3 blocks of 2 int32s, stride 4 elements: packed 24B, memory span
  // ((3-1)*4+2)*4 = 40B.
  Datatype v = Datatype::vector(3, 2, 4, Datatype::int32());
  EXPECT_EQ(v.size(), 24u);
  EXPECT_EQ(v.extent(), 40u);
}

TEST(Datatype, VectorPacksStridedColumns) {
  // A 4x4 row-major matrix; vector(4,1,4) picks one column.
  Datatype col = Datatype::vector(4, 1, 4, Datatype::int32());
  std::int32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = i;
  }
  std::vector<std::byte> wire(col.size());
  col.pack(m, 1, wire.data());
  std::int32_t unpacked[4];
  Datatype::contiguous(4, Datatype::int32()).unpack(wire.data(), 1, unpacked);
  EXPECT_EQ(unpacked[0], 0);
  EXPECT_EQ(unpacked[1], 4);
  EXPECT_EQ(unpacked[2], 8);
  EXPECT_EQ(unpacked[3], 12);
}

TEST(Datatype, VectorUnpackScattersBack) {
  Datatype col = Datatype::vector(4, 1, 4, Datatype::int32());
  std::int32_t m[16] = {0};
  std::int32_t colvals[4] = {100, 101, 102, 103};
  std::vector<std::byte> wire(col.size());
  Datatype::contiguous(4, Datatype::int32()).pack(colvals, 1, wire.data());
  col.unpack(wire.data(), 1, m);
  EXPECT_EQ(m[0], 100);
  EXPECT_EQ(m[4], 101);
  EXPECT_EQ(m[8], 102);
  EXPECT_EQ(m[12], 103);
  EXPECT_EQ(m[1], 0);  // gaps untouched
}

TEST(Datatype, NestedDerivedTypes) {
  Datatype inner = Datatype::contiguous(2, Datatype::int32());
  Datatype outer = Datatype::vector(2, 1, 2, inner);
  EXPECT_EQ(outer.size(), 16u);
  std::int32_t data[8];
  for (int i = 0; i < 8; ++i) {
    data[i] = i;
  }
  std::vector<std::byte> wire(outer.size());
  outer.pack(data, 1, wire.data());
  std::int32_t out[4];
  Datatype::contiguous(4, Datatype::int32()).unpack(wire.data(), 1, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 4);
  EXPECT_EQ(out[3], 5);
}

TEST(Datatype, InvalidConstructionThrows) {
  EXPECT_THROW(Datatype::contiguous(-1, Datatype::int32()), Error);
  EXPECT_THROW(Datatype::vector(-1, 1, 1, Datatype::int32()), Error);
  EXPECT_THROW(Datatype::vector(2, 3, 2, Datatype::int32()), Error);
}

TEST(Datatype, ZeroCountTypesAreEmpty) {
  Datatype z = Datatype::contiguous(0, Datatype::float64());
  EXPECT_EQ(z.size(), 0u);
  Datatype zv = Datatype::vector(0, 1, 1, Datatype::int32());
  EXPECT_EQ(zv.size(), 0u);
  EXPECT_EQ(zv.extent(), 0u);
}

TEST(Datatype, NamesAreDescriptive) {
  EXPECT_EQ(Datatype::int32().name(), "int32");
  Datatype c = Datatype::contiguous(3, Datatype::int64());
  EXPECT_EQ(c.name(), "contiguous(3,int64)");
}

// ---------------------------------------------------------------------------
// Packing against an element-by-element reference
// ---------------------------------------------------------------------------

/// A type built twice: once as a Datatype, once as the structure the
/// reference packer walks one primitive element at a time.
struct Shape {
  Datatype dt;
  std::shared_ptr<const Shape> base;  // null for primitives
  int count = 1;
  int blocklength = 1;
  int stride = 1;
};

Shape primitive(const Datatype& dt) { return Shape{dt, nullptr, 1, 1, 1}; }

Shape contiguous(int count, const Shape& base) {
  return Shape{Datatype::contiguous(count, base.dt),
               std::make_shared<const Shape>(base), count, 1, 1};
}

Shape vector(int count, int blocklength, int stride, const Shape& base) {
  return Shape{Datatype::vector(count, blocklength, stride, base.dt),
               std::make_shared<const Shape>(base), count, blocklength,
               stride};
}

/// Reference packer: one memcpy per primitive element.
void ref_pack_element(const Shape& t, const std::byte* mem, std::byte*& wire) {
  if (!t.base) {
    std::memcpy(wire, mem, t.dt.size());
    wire += t.dt.size();
    return;
  }
  const std::size_t ext = t.base->dt.extent();
  for (int blk = 0; blk < t.count; ++blk) {
    for (int e = 0; e < t.blocklength; ++e) {
      ref_pack_element(*t.base, mem + (std::size_t(blk) * t.stride + e) * ext,
                       wire);
    }
  }
}

void ref_unpack_element(const Shape& t, const std::byte*& wire,
                        std::byte* mem) {
  if (!t.base) {
    std::memcpy(mem, wire, t.dt.size());
    wire += t.dt.size();
    return;
  }
  const std::size_t ext = t.base->dt.extent();
  for (int blk = 0; blk < t.count; ++blk) {
    for (int e = 0; e < t.blocklength; ++e) {
      ref_unpack_element(*t.base, wire,
                         mem + (std::size_t(blk) * t.stride + e) * ext);
    }
  }
}

std::vector<std::byte> ref_pack(const Shape& t, const std::byte* mem,
                                int count) {
  std::vector<std::byte> wire(t.dt.size() * count);
  std::byte* w = wire.data();
  for (int i = 0; i < count; ++i) {
    ref_pack_element(t, mem + i * t.dt.extent(), w);
  }
  return wire;
}

void ref_unpack(const Shape& t, const std::byte* wire, int count,
                std::byte* mem) {
  for (int i = 0; i < count; ++i) {
    ref_unpack_element(t, wire, mem + i * t.dt.extent());
  }
}

std::vector<std::byte> pattern(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) {
    b = static_cast<std::byte>(gen());
  }
  return v;
}

/// pack/unpack of `count` elements match the reference byte for byte;
/// unpack leaves the gaps between blocks untouched.
void expect_matches_reference(const Shape& t, int count, std::uint32_t seed) {
  SCOPED_TRACE(t.dt.name() + " x" + std::to_string(count));
  const std::size_t mem_bytes = t.dt.extent() * count;
  const std::vector<std::byte> mem = pattern(mem_bytes, seed);
  const std::vector<std::byte> want = ref_pack(t, mem.data(), count);
  std::vector<std::byte> got(want.size());
  t.dt.pack(mem.data(), count, got.data());
  EXPECT_EQ(got, want);

  const std::vector<std::byte> wire = pattern(want.size(), seed + 1);
  std::vector<std::byte> want_mem = pattern(mem_bytes, seed + 2);
  std::vector<std::byte> got_mem = want_mem;
  ref_unpack(t, wire.data(), count, want_mem.data());
  t.dt.unpack(wire.data(), count, got_mem.data());
  EXPECT_EQ(got_mem, want_mem);
}

/// A random nested type of up to `depth` derived levels, gaps included.
Shape random_shape(std::mt19937& gen, int depth) {
  const Datatype* prims[] = {&Datatype::byte(), &Datatype::int32(),
                             &Datatype::float64()};
  Shape t = primitive(*prims[gen() % 3]);
  for (int d = 0; d < depth; ++d) {
    const int count = static_cast<int>(gen() % 4);
    const int blocklength = static_cast<int>(gen() % 4);
    switch (gen() % 3) {
      case 0:
        t = contiguous(count, t);
        break;
      case 1:  // stride == blocklength: dense when the base is
        t = vector(count, blocklength, blocklength, t);
        break;
      default:
        t = vector(count, blocklength,
                   blocklength + 1 + static_cast<int>(gen() % 3), t);
        break;
    }
  }
  return t;
}

TEST(DatatypePack, SeededShapesMatchReference) {
  std::mt19937 gen(20191);
  for (int i = 0; i < 400; ++i) {
    const Shape t = random_shape(gen, 1 + static_cast<int>(gen() % 3));
    expect_matches_reference(t, static_cast<int>(gen() % 4), gen());
  }
}

TEST(DatatypePack, NestedVectorAndContiguous) {
  const Shape f64 = primitive(Datatype::float64());
  const Shape i32 = primitive(Datatype::int32());
  expect_matches_reference(contiguous(3, vector(2, 1, 3, i32)), 2, 1);
  expect_matches_reference(vector(3, 2, 4, contiguous(2, f64)), 3, 2);
  expect_matches_reference(vector(2, 1, 2, vector(3, 2, 3, i32)), 2, 3);
  expect_matches_reference(
      contiguous(2, vector(2, 2, 5, contiguous(3, vector(2, 1, 2, i32)))), 2,
      4);
}

TEST(DatatypePack, VectorWithStrideEqualBlocklengthIsDense) {
  const Shape f64 = primitive(Datatype::float64());
  const Shape v = vector(4, 3, 3, f64);
  EXPECT_EQ(v.dt.size(), v.dt.extent());
  expect_matches_reference(v, 5, 5);
  // Dense packing is the identity on bytes.
  const std::vector<std::byte> mem = pattern(v.dt.extent() * 5, 6);
  std::vector<std::byte> wire(mem.size());
  v.dt.pack(mem.data(), 5, wire.data());
  EXPECT_EQ(wire, mem);
}

TEST(DatatypePack, VectorsOfNonDenseBases) {
  const Shape i32 = primitive(Datatype::int32());
  const Shape col = vector(3, 1, 2, i32);
  EXPECT_LT(col.dt.size(), col.dt.extent());
  expect_matches_reference(vector(2, 2, 2, col), 3, 7);
  expect_matches_reference(vector(3, 2, 4, col), 2, 8);
  expect_matches_reference(contiguous(4, col), 2, 9);
}

TEST(DatatypePack, ZeroCountWithNullBufferIsANoOp) {
  for (const Datatype& dt :
       {Datatype::byte(), Datatype::float64(),
        Datatype::vector(3, 1, 2, Datatype::int32())}) {
    dt.pack(nullptr, 0, nullptr);
    dt.unpack(nullptr, 0, nullptr);
  }
}

TEST(DatatypePack, ZeroLengthTypes) {
  const Shape f64 = primitive(Datatype::float64());
  const Shape empty = contiguous(0, f64);
  EXPECT_EQ(empty.dt.size(), 0u);
  empty.dt.pack(nullptr, 4, nullptr);
  empty.dt.unpack(nullptr, 4, nullptr);
  // Blocks of zero elements: no bytes on the wire, but a memory extent.
  const Shape hollow = vector(3, 0, 2, f64);
  EXPECT_EQ(hollow.dt.size(), 0u);
  expect_matches_reference(hollow, 3, 10);
  expect_matches_reference(vector(2, 1, 2, empty), 2, 11);
  expect_matches_reference(contiguous(3, vector(2, 0, 1, f64)), 2, 12);
}

}  // namespace
}  // namespace sessmpi
