// Binary encoding/decoding of wire messages and log records.
//
// Little-endian fixed-width integers, varints, and length-prefixed byte
// strings. Decoding is defensive: every accessor returns a Status so that a
// corrupted or malicious message can never crash a replica.
//
// Wire structs do not spell their format out by hand. Each one lists its
// members once, in wire order, with BP_WIRE (or BP_WIRE_SIGNED for a signed
// PBFT message), and that list generates Encode, Decode and the signed
// CanonicalBody. Encode static-asserts that the list names every member, so
// a field added to the struct but not to the list fails the build. The same
// list also counts an encoding's bytes (WireSize), so WireEncode and
// WireSignedBody allocate their buffer once, at its final size.
#ifndef BLOCKPLANE_COMMON_CODEC_H_
#define BLOCKPLANE_COMMON_CODEC_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/status.h"

namespace blockplane {

/// Appends primitive values to a growing byte buffer.
class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// LEB128-style unsigned varint.
  void PutVarint(uint64_t v);

  /// Length-prefixed (varint) byte string.
  void PutBytes(const Bytes& b);
  void PutString(std::string_view s);

  /// Raw bytes with no length prefix (caller knows the length).
  void PutRaw(const uint8_t* data, size_t len);

  /// Pre-sizes the buffer for `total` bytes of upcoming Puts, so the
  /// appends never reallocate. WireEncode, WireSignedBody and
  /// AttestCanonical reserve their counted size, and the transport's frame
  /// encoder its frame size.
  void Reserve(size_t total) { buf_.reserve(buf_.size() + total); }

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  Bytes buf_;
};

/// Bytes PutVarint(v) appends.
constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Reads primitive values from a byte buffer; all reads are bounds-checked.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* out);
  Status GetU16(uint16_t* out) { return GetFixed(out); }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  Status GetI64(int64_t* out);
  Status GetBool(bool* out);
  Status GetVarint(uint64_t* out);
  Status GetBytes(Bytes* out);
  Status GetString(std::string* out);
  /// Exactly `n` raw bytes with no length prefix (the PutRaw counterpart).
  Status GetRaw(uint8_t* out, size_t n) {
    if (remaining() < n) return Status::Corruption("raw bytes underflow");
    if (n > 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Number of unread bytes.
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (remaining() < sizeof(T)) {
      return Status::Corruption("decoder underflow");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Field-list codec ----------------------------------------------------
//
// Per-type encodings: uint64_t and int64_t fixed-width, int32_t as u32,
// uint8_t, bool and one-byte enums one byte, Bytes and std::string
// length-prefixed, std::array<uint8_t, N> raw, a std::vector as a varint
// count plus its elements, and a BP_WIRE struct as its listed members in
// order. A one-byte enum declares the WireGet that decodes it next to
// itself, with the range WireGetEnum checks. Field wrappers in a list:
//
//   Varint(x)      x as a varint instead of fixed-width;
//   Capped<N>(v)   list v with its own count cap;
//   Envelope(x)    x travels in the net::Message, not in the body.

template <typename T>
struct VarintField {
  T& v;
};
template <typename T>
VarintField<T> Varint(T& v) {
  return {v};
}

template <uint64_t kCap, typename T>
struct CappedField {
  T& v;
};
template <uint64_t kCap, typename T>
CappedField<kCap, T> Capped(T& v) {
  return {v};
}

template <typename T>
struct EnvelopeField {
  T& v;
};
template <typename T>
EnvelopeField<T> Envelope(T& v) {
  return {v};
}

/// The decode cap on a list's count: the element type's kWireListCap when
/// it declares one (signatures, quorum certs), 1,000,000 otherwise.
template <typename T>
constexpr uint64_t WireListCap() {
  if constexpr (requires { T::kWireListCap; }) {
    return T::kWireListCap;
  } else {
    return 1000000;
  }
}

template <typename T>
concept WireStruct = requires(const T& t) { t.WireFields(); };

inline void WirePut(Encoder* enc, uint8_t v) { enc->PutU8(v); }
template <typename E>
  requires(std::is_enum_v<E> && sizeof(E) == 1)
void WirePut(Encoder* enc, E v) {
  enc->PutU8(static_cast<uint8_t>(v));
}
inline void WirePut(Encoder* enc, bool v) { enc->PutBool(v); }
inline void WirePut(Encoder* enc, int32_t v) {
  enc->PutU32(static_cast<uint32_t>(v));
}
inline void WirePut(Encoder* enc, uint64_t v) { enc->PutU64(v); }
inline void WirePut(Encoder* enc, int64_t v) { enc->PutI64(v); }
inline void WirePut(Encoder* enc, const Bytes& v) { enc->PutBytes(v); }
inline void WirePut(Encoder* enc, const std::string& v) { enc->PutString(v); }
template <size_t N>
void WirePut(Encoder* enc, const std::array<uint8_t, N>& v) {
  enc->PutRaw(v.data(), N);
}
template <typename T>
void WirePut(Encoder* enc, VarintField<T> f) {
  enc->PutVarint(f.v);
}
template <typename T>
void WirePut(Encoder*, EnvelopeField<T>) {}
template <typename T>
void WirePut(Encoder* enc, const std::vector<T>& v);
template <uint64_t kCap, typename T>
void WirePut(Encoder* enc, CappedField<kCap, T> f);
template <WireStruct T>
void WirePut(Encoder* enc, const T& v);

template <typename... F>
void WirePutAll(Encoder* enc, const std::tuple<F...>& fields) {
  std::apply([enc](const auto&... f) { (WirePut(enc, f), ...); }, fields);
}
template <typename T>
void WirePut(Encoder* enc, const std::vector<T>& v) {
  enc->PutVarint(v.size());
  for (const T& x : v) WirePut(enc, x);
}
template <uint64_t kCap, typename T>
void WirePut(Encoder* enc, CappedField<kCap, T> f) {
  WirePut(enc, f.v);
}
template <WireStruct T>
void WirePut(Encoder* enc, const T& v) {
  WirePutAll(enc, v.WireFields());
}

// WireSize(x): the bytes WirePut(enc, x) appends, from the same overload
// set shape, so a list is counted exactly as it is written.
inline size_t WireSize(uint8_t) { return 1; }
template <typename E>
  requires(std::is_enum_v<E> && sizeof(E) == 1)
size_t WireSize(E) {
  return 1;
}
inline size_t WireSize(bool) { return 1; }
inline size_t WireSize(int32_t) { return 4; }
inline size_t WireSize(uint64_t) { return 8; }
inline size_t WireSize(int64_t) { return 8; }
inline size_t WireSize(const Bytes& v) {
  return VarintSize(v.size()) + v.size();
}
inline size_t WireSize(const std::string& v) {
  return VarintSize(v.size()) + v.size();
}
template <size_t N>
size_t WireSize(const std::array<uint8_t, N>&) {
  return N;
}
template <typename T>
size_t WireSize(VarintField<T> f) {
  return VarintSize(f.v);
}
template <typename T>
size_t WireSize(EnvelopeField<T>) {
  return 0;
}
template <typename T>
size_t WireSize(const std::vector<T>& v);
template <uint64_t kCap, typename T>
size_t WireSize(CappedField<kCap, T> f);
template <WireStruct T>
size_t WireSize(const T& v);

template <typename... F>
size_t WireSizeAll(const std::tuple<F...>& fields) {
  return std::apply(
      [](const auto&... f) { return (size_t{0} + ... + WireSize(f)); },
      fields);
}
template <typename T>
size_t WireSize(const std::vector<T>& v) {
  size_t n = VarintSize(v.size());
  for (const T& x : v) n += WireSize(x);
  return n;
}
template <uint64_t kCap, typename T>
size_t WireSize(CappedField<kCap, T> f) {
  return WireSize(f.v);
}
template <WireStruct T>
size_t WireSize(const T& v) {
  return WireSizeAll(v.WireFields());
}

inline Status WireGet(Decoder* dec, uint8_t* out) { return dec->GetU8(out); }
inline Status WireGet(Decoder* dec, bool* out) { return dec->GetBool(out); }
inline Status WireGet(Decoder* dec, int32_t* out) {
  uint32_t v = 0;
  BP_RETURN_NOT_OK(dec->GetU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}
inline Status WireGet(Decoder* dec, uint64_t* out) { return dec->GetU64(out); }
inline Status WireGet(Decoder* dec, int64_t* out) { return dec->GetI64(out); }
inline Status WireGet(Decoder* dec, Bytes* out) { return dec->GetBytes(out); }
inline Status WireGet(Decoder* dec, std::string* out) {
  return dec->GetString(out);
}
template <size_t N>
Status WireGet(Decoder* dec, std::array<uint8_t, N>* out) {
  return dec->GetRaw(out->data(), N);
}
template <typename T>
Status WireGet(Decoder* dec, VarintField<T>* f) {
  return dec->GetVarint(&f->v);
}
template <typename T>
Status WireGet(Decoder*, EnvelopeField<T>*) {
  return Status::OK();
}
template <typename T>
Status WireGetList(Decoder* dec, std::vector<T>* out, uint64_t cap);
template <typename T>
Status WireGet(Decoder* dec, std::vector<T>* out) {
  return WireGetList(dec, out, WireListCap<T>());
}
template <uint64_t kCap, typename T>
Status WireGet(Decoder* dec, CappedField<kCap, T>* f) {
  return WireGetList(dec, &f->v, kCap);
}
template <WireStruct T>
Status WireGet(Decoder* dec, T* out);

template <typename T>
Status WireGetList(Decoder* dec, std::vector<T>* out, uint64_t cap) {
  uint64_t n = 0;
  BP_RETURN_NOT_OK(dec->GetVarint(&n));
  if (n > cap) return Status::Corruption("oversized list");
  // Every element is at least one byte, so a count past the remaining
  // bytes is corrupt; reject it before reserve() turns an attacker-chosen
  // varint into an allocation. No other decoder sizes an allocation from
  // a count (AllocTest.OversizedListCountAllocatesNothing pins this one).
  if (n > dec->remaining()) return Status::Corruption("truncated list");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    T x{};
    BP_RETURN_NOT_OK(WireGet(dec, &x));
    out->push_back(std::move(x));
  }
  return Status::OK();
}
/// Decodes fields I.. of a list, stopping at the first error.
template <size_t I = 0, typename... F>
Status WireGetAll(Decoder* dec, std::tuple<F...>& fields) {
  if constexpr (I == sizeof...(F)) {
    return Status::OK();
  } else {
    BP_RETURN_NOT_OK(WireGet(dec, &std::get<I>(fields)));
    return WireGetAll<I + 1>(dec, fields);
  }
}
template <WireStruct T>
Status WireGet(Decoder* dec, T* out) {
  auto fields = out->WireFields();
  return WireGetAll(dec, fields);
}

/// Decodes a one-byte enum whose valid values run from `first` to `last`.
template <typename E>
Status WireGetEnum(Decoder* dec, E* out, E first, E last) {
  uint8_t v = 0;
  BP_RETURN_NOT_OK(dec->GetU8(&v));
  if (v < static_cast<uint8_t>(first) || v > static_cast<uint8_t>(last)) {
    return Status::Corruption("enum value out of range");
  }
  *out = static_cast<E>(v);
  return Status::OK();
}

template <typename T>
Bytes WireEncode(const T& v) {
  const size_t size = WireSize(v);
  Encoder enc;
  enc.Reserve(size);
  WirePut(&enc, v);
  BP_CHECK(enc.size() == size);
  return enc.Take();
}

template <typename T>
Status WireDecode(const Bytes& buf, T* out) {
  Decoder dec(buf);
  return WireGet(&dec, out);
}

/// A list's elements as a tuple: members by reference, wrappers by value.
template <typename... F>
std::tuple<F...> WireTie(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

/// The signed body of a PBFT message: one tag byte (the message type, so a
/// prepare signature cannot be replayed as a commit), then the signed
/// fields.
template <typename... F>
Bytes WireSignedBody(uint8_t tag, const std::tuple<F...>& fields) {
  const size_t size = 1 + WireSizeAll(fields);
  Encoder enc;
  enc.Reserve(size);
  enc.PutU8(tag);
  WirePutAll(&enc, fields);
  BP_CHECK(enc.size() == size);
  return enc.Take();
}

#define BP_WIRE_LIST(...) __VA_ARGS__

/// Declares `Type`'s members, in wire order, and defines Encode and Decode
/// from that list. Every member must be listed.
#define BP_WIRE(Type, ...)                                                   \
  auto WireFields() { return ::blockplane::WireTie(__VA_ARGS__); }          \
  auto WireFields() const { return ::blockplane::WireTie(__VA_ARGS__); }    \
  Bytes Encode() const {                                                     \
    static_assert(::blockplane::kMemberCount<Type> ==                        \
                      std::tuple_size_v<decltype(WireFields())>,             \
                  "every member of a wire struct must be in BP_WIRE, in "    \
                  "wire order");                                             \
    return ::blockplane::WireEncode(*this);                                  \
  }                                                                          \
  static Status Decode(const Bytes& buf, Type* out) {                        \
    return ::blockplane::WireDecode(buf, out);                               \
  }

/// BP_WIRE for a signed message: the parenthesized `signed_fields` come
/// first on the wire and CanonicalBody() is `tag` followed by them, so the
/// signature covers every field listed before it.
#define BP_WIRE_SIGNED(Type, tag, signed_fields, ...)                        \
  BP_WIRE(Type, BP_WIRE_LIST signed_fields, __VA_ARGS__)                     \
  Bytes CanonicalBody() const {                                              \
    return ::blockplane::WireSignedBody(                                     \
        static_cast<uint8_t>(tag),                                           \
        ::blockplane::WireTie(BP_WIRE_LIST signed_fields));                  \
  }

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_CODEC_H_
