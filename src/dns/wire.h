// Bounds-checked binary readers/writers for DNS wire format.
//
// All multi-byte integers in DNS are big-endian (network order). The
// reader throws `WireError` on any attempt to read past the end — DNS
// messages arrive from the network and must never be trusted.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace eum::dns {

/// Raised on malformed or truncated wire data.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }
  [[nodiscard]] bool exhausted() const noexcept { return offset_ == data_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> buffer() const noexcept { return data_; }

  /// Reposition (used to follow DNS compression pointers).
  void seek(std::size_t offset) {
    if (offset > data_.size()) throw WireError{"seek past end of message"};
    offset_ = offset;
  }

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[offset_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    require(2);
    const std::uint16_t hi = data_[offset_];
    const std::uint16_t lo = data_[offset_ + 1];
    offset_ += 2;
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }

  [[nodiscard]] std::uint32_t u32() {
    require(4);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value = (value << 8) | data_[offset_ + static_cast<std::size_t>(i)];
    offset_ += 4;
    return value;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    require(n);
    const auto view = data_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw WireError{"truncated message"};
  }

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Appends big-endian fields to a byte buffer: its own by default, or a
/// caller's vector, which then keeps its capacity across messages. Writes
/// go through a cursor into the vector's storage, which is sized ahead in
/// chunks; the writer's destructor (or take()) trims the vector to the
/// bytes written, so read the vector only after the writer is gone, and
/// read buffer() meanwhile. Offsets and size() count from the start of the
/// vector, so a message encoded into a caller's vector starts from an
/// empty one.
class ByteWriter {
 public:
  ByteWriter() noexcept : buffer_(&owned_) {}
  /// Append to `out` instead of an owned buffer; `out` must outlive the writer.
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept
      : buffer_(&out), size_(out.size()) {}
  ~ByteWriter() { buffer_->resize(size_); }
  // buffer_ may point at owned_: a copy or move would alias the source's.
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// The bytes written so far.
  [[nodiscard]] std::span<const std::uint8_t> buffer() const noexcept {
    return {buffer_->data(), size_};
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    buffer_->resize(size_);
    size_ = 0;
    return std::move(*buffer_);
  }

  void u8(std::uint8_t value) { *claim(1) = value; }

  void u16(std::uint16_t value) {
    std::uint8_t* out = claim(2);
    out[0] = static_cast<std::uint8_t>(value >> 8);
    out[1] = static_cast<std::uint8_t>(value);
  }

  void u32(std::uint32_t value) {
    std::uint8_t* out = claim(4);
    out[0] = static_cast<std::uint8_t>(value >> 24);
    out[1] = static_cast<std::uint8_t>(value >> 16);
    out[2] = static_cast<std::uint8_t>(value >> 8);
    out[3] = static_cast<std::uint8_t>(value);
  }

  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(claim(data.size()), data.data(), data.size());
  }

  /// Overwrite a previously written 16-bit field (e.g. RDLENGTH backpatch).
  void patch_u16(std::size_t offset, std::uint16_t value) {
    if (offset + 2 > size_) throw WireError{"patch_u16 out of range"};
    (*buffer_)[offset] = static_cast<std::uint8_t>(value >> 8);
    (*buffer_)[offset + 1] = static_cast<std::uint8_t>(value);
  }

 private:
  /// Room for `n` more bytes at the cursor; advances the cursor past them.
  std::uint8_t* claim(std::size_t n) {
    if (buffer_->size() - size_ < n) {
      // Size ahead geometrically: one resize (and zero-fill) per doubling.
      buffer_->resize(size_ + std::max({n, size_, kMinGrowth}));
    }
    std::uint8_t* out = buffer_->data() + size_;
    size_ += n;
    return out;
  }

  static constexpr std::size_t kMinGrowth = 64;

  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buffer_;
  std::size_t size_ = 0;  ///< bytes written; the vector may be longer
};

}  // namespace eum::dns
