// Typed RDATA for the record types the mapping system uses.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "dns/wire.h"
#include "net/ip.h"

namespace eum::dns {

struct ARecord {
  net::IpV4Addr address;
  friend bool operator==(const ARecord&, const ARecord&) noexcept = default;
};

struct AaaaRecord {
  net::IpV6Addr address;
  friend bool operator==(const AaaaRecord&, const AaaaRecord&) noexcept = default;
};

struct NsRecord {
  DnsName nameserver;
  friend bool operator==(const NsRecord&, const NsRecord&) noexcept = default;
};

struct CnameRecord {
  DnsName target;
  friend bool operator==(const CnameRecord&, const CnameRecord&) noexcept = default;
};

struct SoaRecord {
  DnsName mname;       ///< primary name server
  DnsName rname;       ///< responsible mailbox
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;  ///< negative-caching TTL (RFC 2308)
  friend bool operator==(const SoaRecord&, const SoaRecord&) noexcept = default;
};

struct TxtRecord {
  /// Character-strings; each must be <= 255 octets.
  std::vector<std::string> strings;
  friend bool operator==(const TxtRecord&, const TxtRecord&) noexcept = default;
};

/// Unknown/opaque RDATA carried verbatim.
struct RawRecord {
  std::vector<std::uint8_t> data;
  friend bool operator==(const RawRecord&, const RawRecord&) noexcept = default;
};

using RData = std::variant<ARecord, AaaaRecord, NsRecord, CnameRecord, SoaRecord, TxtRecord,
                           RawRecord>;

/// The wire RecordType corresponding to a typed RData (RawRecord has no
/// inherent type, so the caller's record type is returned for it).
[[nodiscard]] RecordType rdata_type(const RData& rdata, RecordType fallback);

/// Encode RDATA (without the RDLENGTH prefix). Compression is applied to
/// embedded names in NS/CNAME/SOA per RFC 1035 when `compression` is given.
void encode_rdata(const RData& rdata, ByteWriter& writer, CompressionTable* compression);

/// Decode RDATA of `type` occupying exactly `rdlength` octets at the reader.
[[nodiscard]] RData decode_rdata(RecordType type, std::uint16_t rdlength, ByteReader& reader);

}  // namespace eum::dns
