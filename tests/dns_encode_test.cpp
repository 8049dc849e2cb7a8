// Encoder differential: Message::encode / encode_into (wire-offset
// compression table) against a reference encoder kept here that registers
// suffixes in a std::map<DnsName> — the layout the table must reproduce
// byte for byte: the same pointers, the same first-registered offsets and
// the same 0x3FFF registration cutoff.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "dns/message.h"
#include "util/rng.h"

namespace eum::dns {
namespace {

using ReferenceMap = std::map<DnsName, std::uint16_t>;

void reference_name(const DnsName& name, ByteWriter& writer, ReferenceMap* compression) {
  DnsName suffix = name;
  while (!suffix.is_root()) {
    if (compression != nullptr) {
      if (const auto it = compression->find(suffix); it != compression->end()) {
        writer.u16(static_cast<std::uint16_t>(0xC000 | it->second));
        return;
      }
      if (writer.size() <= 0x3FFF) {
        compression->emplace(suffix, static_cast<std::uint16_t>(writer.size()));
      }
    }
    const std::string& label = suffix.labels().front();
    writer.u8(static_cast<std::uint8_t>(label.size()));
    writer.bytes({reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
    suffix = suffix.parent();
  }
  writer.u8(0);
}

void reference_rdata(const RData& rdata, ByteWriter& writer, ReferenceMap* compression) {
  if (const auto* ns = std::get_if<NsRecord>(&rdata)) {
    reference_name(ns->nameserver, writer, compression);
  } else if (const auto* cname = std::get_if<CnameRecord>(&rdata)) {
    reference_name(cname->target, writer, compression);
  } else if (const auto* soa = std::get_if<SoaRecord>(&rdata)) {
    reference_name(soa->mname, writer, compression);
    reference_name(soa->rname, writer, compression);
    for (const std::uint32_t field :
         {soa->serial, soa->refresh, soa->retry, soa->expire, soa->minimum}) {
      writer.u32(field);
    }
  } else {
    encode_rdata(rdata, writer, nullptr);  // no names inside
  }
}

void reference_record(const ResourceRecord& record, ByteWriter& writer,
                      ReferenceMap* compression) {
  reference_name(record.name, writer, compression);
  writer.u16(static_cast<std::uint16_t>(rdata_type(record.rdata, record.type)));
  writer.u16(static_cast<std::uint16_t>(record.rclass));
  writer.u32(record.ttl);
  const std::size_t rdlength_at = writer.size();
  writer.u16(0);
  reference_rdata(record.rdata, writer, compression);
  writer.patch_u16(rdlength_at, static_cast<std::uint16_t>(writer.size() - rdlength_at - 2));
}

std::vector<std::uint8_t> reference_encode(const Message& message) {
  ByteWriter writer;
  ReferenceMap compression;
  const Header& h = message.header;
  writer.u16(h.id);
  std::uint16_t flags = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(h.opcode) & 0xF) << 11 |
      (static_cast<std::uint16_t>(h.rcode) & 0xF));
  if (h.is_response) flags |= 0x8000;
  if (h.authoritative) flags |= 0x0400;
  if (h.truncated) flags |= 0x0200;
  if (h.recursion_desired) flags |= 0x0100;
  if (h.recursion_available) flags |= 0x0080;
  writer.u16(flags);
  writer.u16(static_cast<std::uint16_t>(message.questions.size()));
  writer.u16(static_cast<std::uint16_t>(message.answers.size()));
  writer.u16(static_cast<std::uint16_t>(message.authorities.size()));
  writer.u16(static_cast<std::uint16_t>(message.additionals.size() + (message.edns ? 1 : 0)));
  for (const Question& q : message.questions) {
    reference_name(q.name, writer, &compression);
    writer.u16(static_cast<std::uint16_t>(q.type));
    writer.u16(static_cast<std::uint16_t>(q.rclass));
  }
  for (const auto* section : {&message.answers, &message.authorities, &message.additionals}) {
    for (const ResourceRecord& r : *section) reference_record(r, writer, &compression);
  }
  if (const auto& edns = message.edns) {
    writer.u8(0);
    writer.u16(static_cast<std::uint16_t>(RecordType::OPT));
    writer.u16(edns->udp_payload_size);
    writer.u32((std::uint32_t{edns->extended_rcode} << 24) |
               (std::uint32_t{edns->version} << 16) | (edns->dnssec_ok ? 0x8000U : 0U));
    const std::size_t rdlength_at = writer.size();
    writer.u16(0);
    for (const EdnsOption& option : edns->options) {
      writer.u16(option.code);
      const std::size_t optlen_at = writer.size();
      writer.u16(0);
      if (option.client_subnet) {
        option.client_subnet->encode_data(writer);
      } else {
        writer.bytes(option.raw);
      }
      writer.patch_u16(optlen_at, static_cast<std::uint16_t>(writer.size() - optlen_at - 2));
    }
    writer.patch_u16(rdlength_at, static_cast<std::uint16_t>(writer.size() - rdlength_at - 2));
  }
  return writer.take();
}

/// Both production entry points against the reference; encode_into runs
/// into a dirty, previously used buffer.
void expect_reference_bytes(const Message& message, const std::string& what) {
  const std::vector<std::uint8_t> expected = reference_encode(message);
  EXPECT_EQ(message.encode(), expected) << what;
  std::vector<std::uint8_t> reused(77, 0xEE);
  message.encode_into(reused);
  EXPECT_EQ(reused, expected) << what;
}

net::IpAddr v4(const char* text) { return *net::IpAddr::parse(text); }

ResourceRecord record(const char* owner, RData rdata) {
  ResourceRecord r;
  r.name = DnsName::from_text(owner);
  r.rdata = std::move(rdata);
  r.type = rdata_type(r.rdata, RecordType::TXT);
  r.ttl = 300;
  return r;
}

TEST(EncoderDifferential, ServedResponseShape) {
  // The answer the mapping system serves: question, two A records for the
  // qname and an OPT record echoing ECS.
  for (const RecordType type : {RecordType::A, RecordType::AAAA}) {
    for (int q = 0; q < 64; ++q) {
      const DnsName qname = DnsName::from_text("q" + std::to_string(q * 97) + ".g.cdn.example");
      Message response = Message::make_response(Message::make_query(
          static_cast<std::uint16_t>(q), qname, type,
          ClientSubnetOption::for_query(v4("1.2.3.4"), 24)));
      response.header.authoritative = true;
      for (std::uint8_t s = 1; s <= 2; ++s) {
        ResourceRecord r;
        r.name = qname;
        r.type = type;
        r.ttl = 20;
        if (type == RecordType::A) {
          r.rdata = ARecord{net::IpV4Addr{203, 0, 113, s}};
        } else {
          r.rdata = AaaaRecord{*net::IpV6Addr::parse("2001:db8::" + std::to_string(s))};
        }
        response.answers.push_back(std::move(r));
      }
      response.edns->set_client_subnet(
          ClientSubnetOption::for_query(v4("1.2.3.4"), 24).with_scope(24));
      expect_reference_bytes(response, qname.to_string());
    }
  }
}

TEST(EncoderDifferential, NsCnameSoaRdataNamesShareSuffixes) {
  Message m;
  m.header.is_response = true;
  m.questions.push_back({DnsName::from_text("www.shop.example"), RecordType::A});
  m.answers.push_back(record("www.shop.example", CnameRecord{DnsName::from_text("e7.g.cdn.example")}));
  m.answers.push_back(record("e7.g.cdn.example", ARecord{net::IpV4Addr{203, 0, 0, 1}}));
  m.authorities.push_back(record("g.cdn.example", NsRecord{DnsName::from_text("ns1.g.cdn.example")}));
  m.authorities.push_back(record("g.cdn.example", NsRecord{DnsName::from_text("ns2.cdn.example")}));
  m.authorities.push_back(record(
      "cdn.example", SoaRecord{DnsName::from_text("ns1.cdn.example"),
                               DnsName::from_text("hostmaster.cdn.example"), 1, 2, 3, 4, 5}));
  m.additionals.push_back(record("ns1.g.cdn.example", ARecord{net::IpV4Addr{203, 0, 0, 53}}));
  m.additionals.push_back(record("shop.example", TxtRecord{{"a", "bc"}}));
  m.additionals.push_back(record("shop.example", RawRecord{{1, 2, 3}}));
  expect_reference_bytes(m, "shared suffixes");
}

TEST(EncoderDifferential, MixedCaseInputCompressesCaseInsensitively) {
  Message m;
  m.questions.push_back({DnsName::from_text("WWW.Example.COM"), RecordType::A});
  m.answers.push_back(record("www.EXAMPLE.com", ARecord{net::IpV4Addr{192, 0, 2, 1}}));
  m.answers.push_back(record("Mail.Example.Com.", CnameRecord{DnsName::from_text("wWw.eXample.cOm")}));
  m.authorities.push_back(record("EXAMPLE.COM", NsRecord{DnsName::from_text("NS.Example.Com")}));
  expect_reference_bytes(m, "mixed case");
  // Every later occurrence of www.example.com is one pointer back to the
  // question name at offset 12.
  const std::vector<std::uint8_t> wire = m.encode();
  EXPECT_EQ(wire[12 + 17 + 4], 0xC0);
  EXPECT_EQ(wire[12 + 17 + 5], 12);
}

TEST(EncoderDifferential, MoreSuffixesThanTheInlineTableHolds) {
  Message m;
  m.header.is_response = true;
  // Each owner adds two new suffixes, so the table spills well past its
  // inline capacity; the NS targets then point back at early and late ones.
  for (int i = 0; i < 3 * static_cast<int>(CompressionTable::kInline); ++i) {
    const std::string owner = "h" + std::to_string(i) + ".zone" + std::to_string(i) + ".example";
    m.answers.push_back(record(owner.c_str(), ARecord{net::IpV4Addr{10, 0, 0, 1}}));
  }
  for (int i = 0; i < 3 * static_cast<int>(CompressionTable::kInline); i += 7) {
    const std::string target = "ns.zone" + std::to_string(i) + ".example";
    m.authorities.push_back(record("example", NsRecord{DnsName::from_text(target)}));
  }
  expect_reference_bytes(m, "spilled table");

  CompressionTable table;
  ByteWriter writer;
  for (const ResourceRecord& r : m.answers) r.name.encode(writer, &table);
  EXPECT_GT(table.size(), CompressionTable::kInline);
}

TEST(EncoderDifferential, NamesPastThePointerRangeAreWrittenInFull) {
  // A TCP-sized message: 255-octet TXT strings push later names past
  // offset 0x3FFF, where suffixes are no longer registered but can still
  // point back at ones registered earlier.
  Message m;
  m.header.is_response = true;
  m.questions.push_back({DnsName::from_text("big.example"), RecordType::TXT});
  const TxtRecord filler{{std::string(255, 'x'), std::string(255, 'y')}};
  for (int i = 0; i < 90; ++i) {
    const std::string owner = "t" + std::to_string(i % 40) + ".s" + std::to_string(i) + ".big.example";
    m.answers.push_back(record(owner.c_str(), filler));
    m.answers.push_back(record("big.example", CnameRecord{DnsName::from_text(owner)}));
  }
  const std::vector<std::uint8_t> wire = m.encode();
  ASSERT_GT(wire.size(), 2U * 0x3FFF);
  expect_reference_bytes(m, "past 0x3FFF");
  EXPECT_EQ(Message::decode(wire).encode(), wire);
}

TEST(EncoderDifferential, RegistrationCutoffIsInclusiveAt0x3FFF) {
  // A filler TXT record places the next owner name at exactly `start`.
  // A suffix written at 0x3FFF is the last one a pointer can reach; one
  // written at 0x4000 must not be registered.
  for (const std::size_t start : {0x3FFEU, 0x3FFFU, 0x4000U}) {
    Message m;
    m.header.is_response = true;
    // header 12 + root owner 1 + fixed RR fields 10 = TXT RDATA offset.
    std::size_t rdata = start - 23;
    TxtRecord filler;
    while (rdata > 256) {
      filler.strings.emplace_back(255, 'f');
      rdata -= 256;
    }
    filler.strings.emplace_back(rdata - 1, 'f');
    m.answers.push_back(record(".", filler));
    m.answers.push_back(record("edge.example", ARecord{net::IpV4Addr{192, 0, 2, 1}}));
    m.answers.push_back(record("edge.example", ARecord{net::IpV4Addr{192, 0, 2, 2}}));
    const std::vector<std::uint8_t> wire = m.encode();
    const std::size_t second_owner = start + DnsName::from_text("edge.example").wire_length() + 14;
    ASSERT_GT(wire.size(), second_owner + 1);
    if (start <= 0x3FFF) {
      EXPECT_EQ(wire[second_owner], 0xC0 | (start >> 8)) << start;
      EXPECT_EQ(wire[second_owner + 1], start & 0xFF) << start;
    } else {
      EXPECT_EQ(wire[second_owner], 4) << start;  // "edge" written in full
    }
    expect_reference_bytes(m, "owner at " + std::to_string(start));
  }
}

TEST(EncoderDifferential, RandomMessages) {
  util::Rng rng{0xE7C0DE};
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  // A small label alphabet forces shared suffixes, repeated labels
  // ("a.a.x") and names that are suffixes of each other.
  const std::vector<std::string> labels{"a", "A", "b", "cdn", "CDN", "example", "g", "ns1", "x"};
  const auto name = [&] {
    std::string text;
    for (std::size_t n = below(5); n > 0; --n) text += labels[below(labels.size())] + ".";
    return DnsName::from_text(text.empty() ? "." : text);
  };
  const auto rdata = [&]() -> RData {
    switch (below(7)) {
      case 0: return ARecord{net::IpV4Addr{static_cast<std::uint32_t>(rng())}};
      case 1: return AaaaRecord{*net::IpV6Addr::parse("2001:db8::1")};
      case 2: return NsRecord{name()};
      case 3: return CnameRecord{name()};
      case 4: return SoaRecord{name(), name(), 1, 2, 3, 4, 5};
      case 5: return TxtRecord{{std::string(below(256), 't')}};
      default: return RawRecord{std::vector<std::uint8_t>(below(8), 0xC0)};
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(trial);
    m.header.is_response = below(2) == 0;
    for (std::size_t n = below(3); n > 0; --n) m.questions.push_back({name(), RecordType::A});
    for (auto* section : {&m.answers, &m.authorities, &m.additionals}) {
      for (std::size_t n = below(trial % 10 == 0 ? 120 : 8); n > 0; --n) {
        ResourceRecord r;
        r.name = name();
        r.rdata = rdata();
        r.type = rdata_type(r.rdata, static_cast<RecordType>(99));
        section->push_back(std::move(r));
      }
    }
    if (below(2) == 0) {
      m.edns = EdnsRecord{};
      m.edns->set_client_subnet(ClientSubnetOption::for_query(v4("198.51.100.7"), 24));
    }
    expect_reference_bytes(m, "trial " + std::to_string(trial));
    if (testing::Test::HasFailure()) return;
  }
}

TEST(EncoderDifferential, EveryDecodableFuzzCorpusMessage) {
  std::size_t compared = 0;
  for (const char* dir : {EUM_FUZZ_DIR "/corpus", EUM_FUZZ_DIR "/regressions/message"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in{entry.path(), std::ios::binary};
      const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in}, {}};
      Message message;
      try {
        message = Message::decode(bytes);
      } catch (const WireError&) {
        continue;  // not a message (name/ECS/trie/zone inputs, rejects)
      }
      expect_reference_bytes(message, entry.path().string());
      ++compared;
    }
  }
  EXPECT_GE(compared, 4U);  // at least the fuzz/corpus/message seeds
}

}  // namespace
}  // namespace eum::dns
