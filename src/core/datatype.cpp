#include "sessmpi/datatype.hpp"

#include <cstring>

namespace sessmpi {

struct Datatype::Impl {
  Kind kind = Kind::derived_k;
  std::string name;
  std::size_t size = 0;    // packed bytes per element
  std::size_t extent = 0;  // memory bytes per element
  // Derived-type structure: for contiguous, stride == blocklength.
  std::shared_ptr<const Impl> base;  // null for primitives
  int count = 1;                     // blocks
  int blocklength = 1;               // base elements per block
  int stride = 1;                    // base elements between block starts
  // size == extent: the elements of `count` items form one gapless run.
  bool dense = true;
};

namespace {

Datatype::Impl make_primitive(Datatype::Kind kind, std::string name,
                              std::size_t size) {
  Datatype::Impl impl;
  impl.kind = kind;
  impl.name = std::move(name);
  impl.size = size;
  impl.extent = size;
  return impl;
}

// Moves one contiguous run of `n` bytes; the argument order names the
// direction (memory -> wire packs, wire -> memory unpacks).
void move_run(const std::byte* mem, std::byte* wire, std::size_t n) {
  if (n > 0) {
    std::memcpy(wire, mem, n);
  }
}
void move_run(std::byte* mem, const std::byte* wire, std::size_t n) {
  if (n > 0) {
    std::memcpy(mem, wire, n);
  }
}

/// Moves `count` elements of `t` between memory and wire form in whole
/// contiguous runs: a dense type is one run, a vector of a dense base one
/// run per block; only bases that are not dense are descended into.
template <class Mem, class Wire>
void move_runs(const Datatype::Impl& t, std::size_t count, Mem* mem,
               Wire* wire) {
  if (t.dense) {
    move_run(mem, wire, count * t.size);
    return;
  }
  const Datatype::Impl& b = *t.base;
  const auto blocklength = static_cast<std::size_t>(t.blocklength);
  const std::size_t stride = static_cast<std::size_t>(t.stride) * b.extent;
  for (std::size_t i = 0; i < count; ++i, mem += t.extent) {
    for (int blk = 0; blk < t.count; ++blk) {
      move_runs(b, blocklength, mem + static_cast<std::size_t>(blk) * stride,
                wire);
      wire += blocklength * b.size;
    }
  }
}

}  // namespace

#define SESSMPI_PRIMITIVE(fn, kind_tag, cpp_name, bytes)                 \
  const Datatype& Datatype::fn() {                                       \
    static const Datatype t{std::make_shared<const Impl>(                \
        make_primitive(Kind::kind_tag, cpp_name, bytes))};               \
    return t;                                                            \
  }

SESSMPI_PRIMITIVE(byte, byte_k, "byte", 1)
SESSMPI_PRIMITIVE(int32, int32_k, "int32", 4)
SESSMPI_PRIMITIVE(int64, int64_k, "int64", 8)
SESSMPI_PRIMITIVE(uint64, uint64_k, "uint64", 8)
SESSMPI_PRIMITIVE(float32, float32_k, "float32", 4)
SESSMPI_PRIMITIVE(float64, float64_k, "float64", 8)
SESSMPI_PRIMITIVE(char8, char_k, "char", 1)
#undef SESSMPI_PRIMITIVE

Datatype Datatype::contiguous(int count, const Datatype& base) {
  if (count < 0) {
    throw Error(ErrClass::count, "negative count in Type_contiguous");
  }
  auto impl = std::make_shared<Impl>();
  impl->kind = Kind::derived_k;
  impl->name = "contiguous(" + std::to_string(count) + "," + base.name() + ")";
  impl->base = base.impl_;
  impl->count = count;
  impl->blocklength = 1;
  impl->stride = 1;
  impl->size = static_cast<std::size_t>(count) * base.size();
  impl->extent = static_cast<std::size_t>(count) * base.extent();
  impl->dense = impl->size == impl->extent;
  return Datatype{impl};
}

Datatype Datatype::vector(int count, int blocklength, int stride,
                          const Datatype& base) {
  if (count < 0 || blocklength < 0) {
    throw Error(ErrClass::count, "negative count in Type_vector");
  }
  if (count > 0 && stride < blocklength) {
    throw Error(ErrClass::arg, "Type_vector stride smaller than blocklength");
  }
  auto impl = std::make_shared<Impl>();
  impl->kind = Kind::derived_k;
  impl->name = "vector(" + std::to_string(count) + "," +
               std::to_string(blocklength) + "," + std::to_string(stride) +
               "," + base.name() + ")";
  impl->base = base.impl_;
  impl->count = count;
  impl->blocklength = blocklength;
  impl->stride = stride;
  impl->size = static_cast<std::size_t>(count) *
               static_cast<std::size_t>(blocklength) * base.size();
  impl->extent =
      count == 0
          ? 0
          : (static_cast<std::size_t>(count - 1) *
                 static_cast<std::size_t>(stride) +
             static_cast<std::size_t>(blocklength)) *
                base.extent();
  impl->dense = impl->size == impl->extent;
  return Datatype{impl};
}

std::size_t Datatype::size() const noexcept { return impl_->size; }
std::size_t Datatype::extent() const noexcept { return impl_->extent; }
const std::string& Datatype::name() const noexcept { return impl_->name; }
bool Datatype::is_primitive() const noexcept { return impl_->base == nullptr; }
Datatype::Kind Datatype::kind() const noexcept { return impl_->kind; }

void Datatype::pack(const void* src, int count, std::byte* dst) const {
  if (count > 0) {
    move_runs(*impl_, static_cast<std::size_t>(count),
              static_cast<const std::byte*>(src), dst);
  }
}

void Datatype::unpack(const std::byte* src, int count, void* dst) const {
  if (count > 0) {
    move_runs(*impl_, static_cast<std::size_t>(count),
              static_cast<std::byte*>(dst), src);
  }
}

template <> const Datatype& datatype_of<std::byte>() { return Datatype::byte(); }
template <> const Datatype& datatype_of<char>() { return Datatype::char8(); }
template <> const Datatype& datatype_of<std::int32_t>() { return Datatype::int32(); }
template <> const Datatype& datatype_of<std::int64_t>() { return Datatype::int64(); }
template <> const Datatype& datatype_of<std::uint64_t>() { return Datatype::uint64(); }
template <> const Datatype& datatype_of<float>() { return Datatype::float32(); }
template <> const Datatype& datatype_of<double>() { return Datatype::float64(); }

}  // namespace sessmpi
