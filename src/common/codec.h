// Binary encoding/decoding of wire messages and log records.
//
// Little-endian fixed-width integers, varints, and length-prefixed byte
// strings. Decoding is defensive: every accessor returns a Status so that a
// corrupted or malicious message can never crash a replica.
#ifndef BLOCKPLANE_COMMON_CODEC_H_
#define BLOCKPLANE_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

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

  /// Pre-sizes the buffer for `total` bytes of upcoming Puts. Encoders on
  /// hot paths (e.g. the transport's frame encoder) reserve the exact frame
  /// size up front so the byte-at-a-time appends never reallocate.
  void Reserve(size_t total) { buf_.reserve(buf_.size() + total); }

  const Bytes& buffer() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

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

}  // namespace blockplane

#endif  // BLOCKPLANE_COMMON_CODEC_H_
