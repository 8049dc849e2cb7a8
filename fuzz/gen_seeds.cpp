// Seed-corpus generator: writes the checked-in seed inputs under
// fuzz/corpus/<harness>/ by exercising the same builders the test suites
// use. Regenerate (deterministic) with:
//
//   cmake --build build --target fuzz_gen_seeds
//   build/fuzz/fuzz_gen_seeds fuzz/corpus
//
// Seeds are starting points for coverage-guided exploration, not pins;
// crash pins live in fuzz/regressions/ and are never regenerated.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dns/message.h"
#include "net/prefix.h"

namespace {

namespace fs = std::filesystem;
using eum::dns::ClientSubnetOption;
using eum::dns::DnsName;
using eum::dns::Message;
using eum::dns::RecordClass;
using eum::dns::RecordType;
using eum::dns::ResourceRecord;

void write_file(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out{dir / name, std::ios::binary};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::cout << (dir / name).string() << ": " << bytes.size() << " bytes\n";
}

std::vector<std::uint8_t> str_bytes(const std::string& text) {
  return {text.begin(), text.end()};
}

/// Mirrors the "complex message" the mutation tests start from: CNAME
/// chain, A set, SOA authority, TXT additional, ECS with scope.
std::vector<std::uint8_t> complex_response() {
  const auto ecs = ClientSubnetOption::for_query(*eum::net::IpAddr::parse("203.0.113.7"), 24);
  Message response = Message::make_response(
      Message::make_query(7, DnsName::from_text("www.a-shop.example"), RecordType::A, ecs));
  response.answers.push_back(ResourceRecord{DnsName::from_text("www.a-shop.example"),
                                            RecordType::CNAME, RecordClass::IN, 300,
                                            eum::dns::CnameRecord{DnsName::from_text("e7.g.cdn.example")}});
  for (int i = 0; i < 3; ++i) {
    response.answers.push_back(ResourceRecord{
        DnsName::from_text("e7.g.cdn.example"), RecordType::A, RecordClass::IN, 20,
        eum::dns::ARecord{eum::net::IpV4Addr{203, 0, 0, static_cast<std::uint8_t>(i + 1)}}});
  }
  eum::dns::SoaRecord soa;
  soa.mname = DnsName::from_text("ns1.g.cdn.example");
  soa.rname = DnsName::from_text("hostmaster.g.cdn.example");
  soa.minimum = 30;
  response.authorities.push_back(ResourceRecord{DnsName::from_text("g.cdn.example"),
                                                RecordType::SOA, RecordClass::IN, 30, soa});
  response.additionals.push_back(ResourceRecord{DnsName::from_text("info.g.cdn.example"),
                                                RecordType::TXT, RecordClass::IN, 60,
                                                eum::dns::TxtRecord{{"k=v", "cluster=7"}}});
  response.edns->set_client_subnet(ecs.with_scope(24));
  return response.encode();
}

void message_seeds(const fs::path& dir) {
  write_file(dir, "query_a_ecs.bin",
             Message::make_query(1, DnsName::from_text("www.example"), RecordType::A,
                                 ClientSubnetOption::for_query(
                                     *eum::net::IpAddr::parse("198.51.100.9"), 24))
                 .encode());
  write_file(dir, "query_aaaa.bin",
             Message::make_query(2, DnsName::from_text("v6.cdn.example"), RecordType::AAAA)
                 .encode());
  write_file(dir, "complex_response.bin", complex_response());
  Message nx = Message::make_response(
      Message::make_query(3, DnsName::from_text("gone.example"), RecordType::A));
  nx.header.rcode = eum::dns::Rcode::nx_domain;
  write_file(dir, "nxdomain.bin", nx.encode());
}

void name_seeds(const fs::path& dir) {
  // Mode byte 0 (even) = text parse; 1 (odd) = wire decode.
  write_file(dir, "text_simple.bin", str_bytes(std::string{'\0'} + "www.a-shop.example"));
  write_file(dir, "text_trailing_dot.bin", str_bytes(std::string{'\0'} + "e7.g.cdn.example."));
  write_file(dir, "text_maxlabel.bin",
             str_bytes(std::string{'\0'} + std::string(63, 'a') + ".example"));
  // Wire: 3www7example0, then a compressed reference to offset 4.
  std::vector<std::uint8_t> wire{1, 3, 'w', 'w', 'w', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0};
  write_file(dir, "wire_simple.bin", wire);
  std::vector<std::uint8_t> compressed{1, 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
                                       1, 'a', 0xC0, 0x00};
  write_file(dir, "wire_pointer.bin", compressed);
}

void ecs_seeds(const fs::path& dir) {
  {
    eum::dns::ByteWriter writer;
    ClientSubnetOption::for_query(*eum::net::IpAddr::parse("203.0.113.7"), 24)
        .with_scope(20)
        .encode_data(writer);
    write_file(dir, "v4_24_scope20.bin", writer.take());
  }
  {
    eum::dns::ByteWriter writer;
    ClientSubnetOption::for_query(*eum::net::IpAddr::parse("2001:db8::1"), 56)
        .encode_data(writer);
    write_file(dir, "v6_56.bin", writer.take());
  }
  {
    eum::dns::ByteWriter writer;
    ClientSubnetOption::for_query(*eum::net::IpAddr::parse("10.1.2.3"), 21).encode_data(writer);
    write_file(dir, "v4_21_oddbits.bin", writer.take());
  }
  write_file(dir, "v4_source0.bin", {0x00, 0x01, 0, 0});
}

void zone_file_seeds(const fs::path& dir) {
  write_file(dir, "basic.zone", str_bytes(
      "$ORIGIN cdn.example.\n"
      "$TTL 300\n"
      "@      SOA ns1 hostmaster 2014032801 3600 600 86400 30\n"
      "www    A 203.0.113.1\n"
      "www 60 A 203.0.113.2\n"
      "alias  CNAME www\n"
      "child  NS ns.child.example.\n"
      "info   TXT \"hello world\"\n"));
  write_file(dir, "v6_and_comments.zone", str_bytes(
      "@ SOA ns hm 1 2 3 4 5 ; inline comment\n"
      "; full-line comment\n"
      "v6 AAAA 2001:db8::7\n"
      "a.b.c A 198.51.100.4\n"));
  write_file(dir, "relative_origin.zone", str_bytes(
      "$ORIGIN g.cdn.example.\n"
      "@ SOA ns1.g.cdn.example. hostmaster 1 1 1 1 1\n"
      "e7 A 203.0.113.9\n"
      "e7 A 203.0.113.10\n"
      "txt TXT plain \"quoted string\" another\n"));
}

void prefix_trie_seeds(const fs::path& dir) {
  // Op stream: insert 10.0.0.0/8=42; insert 10.1.0.0/16=7; lpm 10.1.2.3;
  // exact 10.0.0.0/8; erase 10.1.0.0/16; lpm 10.1.2.3 again.
  write_file(dir, "v4_ops.bin", {
      0, 0, 8, 10, 0, 0, 0, 42,        // insert v4 /8 10.0.0.0 -> 42
      0, 0, 16, 10, 1, 0, 0, 7,        // insert v4 /16 10.1.0.0 -> 7
      3, 0, 10, 1, 2, 3,               // lpm v4 10.1.2.3
      2, 0, 8, 10, 0, 0, 0,            // exact v4 10.0.0.0/8
      1, 0, 16, 10, 1, 0, 0,           // erase v4 /16
      3, 0, 10, 1, 2, 3,               // lpm again
  });
  write_file(dir, "v6_ops.bin", {
      0, 1, 32, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9,
      3, 1, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
  });
  write_file(dir, "default_route.bin", {
      0, 0, 0, 0, 0, 0, 0, 99,         // insert 0.0.0.0/0 -> 99
      3, 0, 255, 255, 255, 255,        // lpm 255.255.255.255
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fuzz_gen_seeds CORPUS_DIR (e.g. fuzz/corpus)\n";
    return 2;
  }
  const fs::path base{argv[1]};
  message_seeds(base / "message");
  name_seeds(base / "name");
  ecs_seeds(base / "ecs");
  zone_file_seeds(base / "zone_file");
  prefix_trie_seeds(base / "prefix_trie");
  std::cout << "seed corpus written under " << base.string() << "\n";
  return 0;
}
