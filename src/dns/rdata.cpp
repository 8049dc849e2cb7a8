#include "dns/rdata.h"

#include <algorithm>

namespace eum::dns {

namespace {

struct TypeVisitor {
  RecordType fallback;
  RecordType operator()(const ARecord&) const { return RecordType::A; }
  RecordType operator()(const AaaaRecord&) const { return RecordType::AAAA; }
  RecordType operator()(const NsRecord&) const { return RecordType::NS; }
  RecordType operator()(const CnameRecord&) const { return RecordType::CNAME; }
  RecordType operator()(const SoaRecord&) const { return RecordType::SOA; }
  RecordType operator()(const TxtRecord&) const { return RecordType::TXT; }
  RecordType operator()(const RawRecord&) const { return fallback; }
};

struct EncodeVisitor {
  ByteWriter& writer;
  CompressionTable* compression;

  void operator()(const ARecord& r) const {
    const auto bytes = r.address.bytes();
    writer.bytes(bytes);
  }
  void operator()(const AaaaRecord& r) const { writer.bytes(r.address.bytes()); }
  void operator()(const NsRecord& r) const { r.nameserver.encode(writer, compression); }
  void operator()(const CnameRecord& r) const { r.target.encode(writer, compression); }
  void operator()(const SoaRecord& r) const {
    r.mname.encode(writer, compression);
    r.rname.encode(writer, compression);
    writer.u32(r.serial);
    writer.u32(r.refresh);
    writer.u32(r.retry);
    writer.u32(r.expire);
    writer.u32(r.minimum);
  }
  void operator()(const TxtRecord& r) const {
    for (const std::string& s : r.strings) {
      if (s.size() > 255) throw WireError{"TXT character-string longer than 255 octets"};
      writer.u8(static_cast<std::uint8_t>(s.size()));
      writer.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }
  }
  void operator()(const RawRecord& r) const { writer.bytes(r.data); }
};

}  // namespace

RecordType rdata_type(const RData& rdata, RecordType fallback) {
  return std::visit(TypeVisitor{fallback}, rdata);
}

void encode_rdata(const RData& rdata, ByteWriter& writer, CompressionTable* compression) {
  std::visit(EncodeVisitor{writer, compression}, rdata);
}

RData decode_rdata(RecordType type, std::uint16_t rdlength, ByteReader& reader) {
  const std::size_t end = reader.offset() + rdlength;
  if (end > reader.buffer().size()) throw WireError{"RDATA extends past message"};

  const auto check_consumed = [&](const char* what) {
    if (reader.offset() != end) throw WireError{std::string{"RDATA length mismatch in "} + what};
  };

  switch (type) {
    case RecordType::A: {
      if (rdlength != 4) throw WireError{"A RDATA must be 4 octets"};
      const auto raw = reader.bytes(4);
      return ARecord{net::IpV4Addr{raw[0], raw[1], raw[2], raw[3]}};
    }
    case RecordType::AAAA: {
      if (rdlength != 16) throw WireError{"AAAA RDATA must be 16 octets"};
      const auto raw = reader.bytes(16);
      net::IpV6Addr::Bytes bytes{};
      std::copy(raw.begin(), raw.end(), bytes.begin());
      return AaaaRecord{net::IpV6Addr{bytes}};
    }
    case RecordType::NS: {
      NsRecord r{DnsName::decode(reader)};
      check_consumed("NS");
      return r;
    }
    case RecordType::CNAME: {
      CnameRecord r{DnsName::decode(reader)};
      check_consumed("CNAME");
      return r;
    }
    case RecordType::SOA: {
      SoaRecord r;
      r.mname = DnsName::decode(reader);
      r.rname = DnsName::decode(reader);
      r.serial = reader.u32();
      r.refresh = reader.u32();
      r.retry = reader.u32();
      r.expire = reader.u32();
      r.minimum = reader.u32();
      check_consumed("SOA");
      return r;
    }
    case RecordType::TXT: {
      TxtRecord r;
      while (reader.offset() < end) {
        const std::uint8_t len = reader.u8();
        if (reader.offset() + len > end) throw WireError{"TXT string extends past RDATA"};
        const auto raw = reader.bytes(len);
        r.strings.emplace_back(reinterpret_cast<const char*>(raw.data()), raw.size());
      }
      return r;
    }
    default: {
      const auto raw = reader.bytes(rdlength);
      return RawRecord{{raw.begin(), raw.end()}};
    }
  }
}

}  // namespace eum::dns
