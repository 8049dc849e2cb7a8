#include "dns/name.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"
#include "util/strings.h"

namespace eum::dns {

namespace {

constexpr std::size_t kMaxLabelLength = 63;
constexpr std::size_t kMaxNameWireLength = 255;
constexpr std::uint8_t kPointerTag = 0xC0;

void validate_label(std::string_view label) {
  if (label.empty()) throw WireError{"empty DNS label"};
  if (label.size() > kMaxLabelLength) throw WireError{"DNS label longer than 63 octets"};
}

// Pointers can only address the first 16KiB of a message (14-bit offset).
constexpr std::size_t kMaxPointerOffset = 0x3FFF;

/// True when the name written at `offset` of `wire` is exactly `labels`.
/// Every check is bounded by what has been written so far: the suffix being
/// encoded may itself be registered before its remaining labels follow.
bool written_name_equals(std::span<const std::uint8_t> wire, std::size_t offset,
                         std::span<const std::string> labels) noexcept {
  std::size_t pos = offset;
  std::size_t next = 0;
  while (true) {
    if (pos >= wire.size()) return false;
    const std::uint8_t length = wire[pos];
    if ((length & kPointerTag) == kPointerTag) {
      // Encoder-written pointers always lead to an earlier offset.
      if (pos + 1 >= wire.size()) return false;
      pos = (static_cast<std::size_t>(length & 0x3F) << 8) | wire[pos + 1];
      continue;
    }
    if (length == 0) return next == labels.size();
    if (next == labels.size()) return false;
    const std::string& label = labels[next++];
    if (length != label.size() || pos + 1 + length > wire.size() ||
        std::memcmp(wire.data() + pos + 1, label.data(), length) != 0) {
      return false;
    }
    pos += 1 + length;
  }
}

}  // namespace

void CompressionTable::add(std::uint16_t offset) {
  if (inline_size_ < kInline) {
    inline_[inline_size_++] = offset;
  } else {
    spill_.push_back(offset);
  }
}

std::optional<std::uint16_t> CompressionTable::find(std::span<const std::uint8_t> wire,
                                                    std::span<const std::string> labels) const {
  // Each suffix is added at most once (only when find() missed it), so at
  // most one offset matches and the scan order cannot change the answer.
  for (std::size_t i = 0; i < inline_size_; ++i) {
    if (written_name_equals(wire, inline_[i], labels)) return inline_[i];
  }
  for (const std::uint16_t offset : spill_) {
    if (written_name_equals(wire, offset, labels)) return offset;
  }
  return std::nullopt;
}

DnsName DnsName::from_text(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  for (const auto label : util::split(text, '.')) {
    validate_label(label);
    name.labels_.push_back(util::to_lower(label));
  }
  if (name.wire_length() > kMaxNameWireLength) throw WireError{"DNS name longer than 255 octets"};
  return name;
}

DnsName DnsName::from_labels(std::vector<std::string> labels) {
  DnsName name;
  name.labels_.reserve(labels.size());
  for (auto& label : labels) {
    validate_label(label);
    name.labels_.push_back(util::to_lower(label));
  }
  if (name.wire_length() > kMaxNameWireLength) throw WireError{"DNS name longer than 255 octets"};
  return name;
}

std::size_t DnsName::wire_length() const noexcept {
  std::size_t length = 1;  // terminating root label
  for (const auto& label : labels_) length += 1 + label.size();
  return length;
}

bool DnsName::is_subdomain_of(const DnsName& zone) const noexcept {
  if (zone.labels_.size() > labels_.size()) return false;
  return std::equal(zone.labels_.rbegin(), zone.labels_.rend(), labels_.rbegin());
}

DnsName DnsName::parent() const {
  if (is_root()) throw WireError{"parent of root name"};
  DnsName result;
  result.labels_.assign(labels_.begin() + 1, labels_.end());
  return result;
}

DnsName DnsName::child(std::string_view label) const {
  validate_label(label);
  DnsName result;
  result.labels_.reserve(labels_.size() + 1);
  result.labels_.push_back(util::to_lower(label));
  result.labels_.insert(result.labels_.end(), labels_.begin(), labels_.end());
  if (result.wire_length() > kMaxNameWireLength) {
    throw WireError{"DNS name longer than 255 octets"};
  }
  return result;
}

std::string DnsName::to_string() const {
  TextBuffer buffer{};
  return std::string{to_text(buffer)};
}

std::string_view DnsName::to_text(TextBuffer& buffer) const noexcept {
  // Labels are validated to <= 63 octets and names to <= 255 wire octets,
  // so the text (wire length - 2 at most) always fits.
  std::size_t size = 0;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i != 0) buffer[size++] = '.';
    std::memcpy(buffer.data() + size, labels_[i].data(), labels_[i].size());
    size += labels_[i].size();
  }
  return {buffer.data(), size};
}

void DnsName::encode(ByteWriter& writer, CompressionTable* compression) const {
  // Walk suffixes from the full name down: emit labels until a suffix is
  // found in the compression table, then emit a pointer to it.
  const std::span<const std::string> labels{labels_};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (compression != nullptr) {
      const std::span<const std::string> suffix = labels.subspan(i);
      if (const auto offset = compression->find(writer.buffer(), suffix)) {
        writer.u16(static_cast<std::uint16_t>(0xC000 | *offset));
        return;
      }
      if (writer.size() <= kMaxPointerOffset) {
        compression->add(static_cast<std::uint16_t>(writer.size()));
      }
    }
    const std::string& label = labels[i];
    writer.u8(static_cast<std::uint8_t>(label.size()));
    writer.bytes({reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
  }
  writer.u8(0);  // root label terminator
}

DnsName DnsName::decode(ByteReader& reader) {
  DnsName name;
  std::size_t wire_length = 1;
  // After the first pointer, the cursor must stay where the in-line name
  // ended; we remember that position and restore it at the end.
  std::optional<std::size_t> resume_offset;
  int pointer_hops = 0;
  while (true) {
    const std::uint8_t length = reader.u8();
    if ((length & kPointerTag) == kPointerTag) {
      const std::uint8_t low = reader.u8();
      const std::size_t target =
          (static_cast<std::size_t>(length & 0x3F) << 8) | low;
      // Pointers must reference earlier message content; strictly-backward
      // targets guarantee termination, with a hop cap as belt and braces.
      const std::size_t pointer_pos = reader.offset() - 2;
      if (target >= pointer_pos) throw WireError{"forward compression pointer"};
      if (!resume_offset) resume_offset = reader.offset();
      if (++pointer_hops > 32) throw WireError{"compression pointer loop"};
      reader.seek(target);
      continue;
    }
    if ((length & kPointerTag) != 0) throw WireError{"reserved label type"};
    if (length == 0) break;
    if (length > kMaxLabelLength) throw WireError{"DNS label longer than 63 octets"};
    const auto raw = reader.bytes(length);
    wire_length += 1 + length;
    if (wire_length > kMaxNameWireLength) throw WireError{"DNS name longer than 255 octets"};
    std::string label(reinterpret_cast<const char*>(raw.data()), raw.size());
    name.labels_.push_back(util::to_lower(label));
  }
  if (resume_offset) reader.seek(*resume_offset);
  return name;
}

std::size_t DnsNameHash::operator()(const DnsName& name) const noexcept {
  std::uint64_t hash = 0x9ae16a3b2f90404fULL;
  for (const auto& label : name.labels()) {
    hash = util::hash_combine(hash, util::fnv1a64(label));
  }
  return static_cast<std::size_t>(hash);
}

}  // namespace eum::dns
