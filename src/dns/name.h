// DNS domain names (RFC 1035 §3.1, §4.1.4).
//
// Names are sequences of labels; comparison is ASCII-case-insensitive.
// Wire encoding supports message compression (suffix pointers); decoding
// is hardened against pointer loops and forward pointers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/wire.h"

namespace eum::dns {

/// Where the name suffixes already written to one message start, for
/// compression (RFC 1035 §4.1.4). Entries are wire offsets into that
/// message: a lookup compares labels against the bytes written there,
/// following pointers, so no name is copied. The first kInline offsets
/// live in place; the rest spill to a vector, so the table has no cap that
/// would change the output.
class CompressionTable {
 public:
  static constexpr std::size_t kInline = 32;

  [[nodiscard]] std::size_t size() const noexcept { return inline_size_ + spill_.size(); }

  /// Remember that a name suffix starts at `offset` of the message.
  void add(std::uint16_t offset);

  /// The offset at which the name with exactly `labels` (lowercase) was
  /// written to `wire`, if one was added.
  [[nodiscard]] std::optional<std::uint16_t> find(std::span<const std::uint8_t> wire,
                                                  std::span<const std::string> labels) const;

 private:
  std::array<std::uint16_t, kInline> inline_{};
  std::size_t inline_size_ = 0;
  std::vector<std::uint16_t> spill_;
};

class DnsName {
 public:
  /// The root name (zero labels).
  DnsName() = default;

  /// From presentation form, e.g. "foo.net" or "foo.net." (root suffix
  /// optional). Throws WireError on invalid labels (>63 octets, empty
  /// interior label) or a name longer than 255 wire octets.
  [[nodiscard]] static DnsName from_text(std::string_view text);

  /// From explicit labels (already validated presentation labels).
  [[nodiscard]] static DnsName from_labels(std::vector<std::string> labels);

  [[nodiscard]] bool is_root() const noexcept { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const noexcept { return labels_.size(); }
  [[nodiscard]] const std::vector<std::string>& labels() const noexcept { return labels_; }

  /// Wire-format length in octets (sum of label lengths + length bytes + root).
  [[nodiscard]] std::size_t wire_length() const noexcept;

  /// True if this name equals `zone` or lies below it ("a.b.c" is in "b.c").
  [[nodiscard]] bool is_subdomain_of(const DnsName& zone) const noexcept;

  /// The name with the leftmost label removed. Precondition: !is_root().
  [[nodiscard]] DnsName parent() const;

  /// Prepend a label. Throws WireError if the result exceeds limits.
  [[nodiscard]] DnsName child(std::string_view label) const;

  /// Presentation form, lowercase, with no trailing dot ("" for the root).
  [[nodiscard]] std::string to_string() const;

  /// Room for the presentation form of any valid name (at most 253 octets).
  using TextBuffer = std::array<char, 256>;

  /// to_string() rendered into `buffer` without allocating; the view
  /// points into `buffer`.
  [[nodiscard]] std::string_view to_text(TextBuffer& buffer) const noexcept;

  /// Case-insensitive equality/ordering (labels are stored lowercased, so
  /// this is plain comparison).
  friend bool operator==(const DnsName&, const DnsName&) noexcept = default;
  friend auto operator<=>(const DnsName&, const DnsName&) noexcept = default;

  // --- wire format ---

  /// Encode with compression: longest previously written suffix becomes a
  /// pointer; newly written suffixes are registered in `compression`.
  /// Pass nullptr to disable compression (e.g. inside unknown RDATA).
  /// With compression, `writer` must hold the message from its first byte.
  void encode(ByteWriter& writer, CompressionTable* compression) const;

  /// Decode at the reader's position, following compression pointers.
  /// On return the reader is positioned after the name as it appeared
  /// in-line (pointers do not move the cursor past their target).
  [[nodiscard]] static DnsName decode(ByteReader& reader);

 private:
  /// Labels stored lowercased.
  std::vector<std::string> labels_;
};

/// Hash for unordered containers (matches case-insensitive equality).
struct DnsNameHash {
  [[nodiscard]] std::size_t operator()(const DnsName& name) const noexcept;
};

}  // namespace eum::dns
