// Pins the allocation-free miss path: encoding the served response shape
// (question, two A/AAAA answers, OPT with ECS) into a warmed buffer makes
// no heap allocation. A separate executable because it replaces the global
// operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dns/message.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

// Not inlined: GCC would otherwise see free() meet operator new's pointer
// at the call sites and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace eum::dns {
namespace {

Message served_response(RecordType type) {
  const DnsName qname = DnsName::from_text("q1234.g.cdn.example");
  const ClientSubnetOption ecs =
      ClientSubnetOption::for_query(*net::IpAddr::parse("198.51.100.7"), 24);
  Message response = Message::make_response(Message::make_query(7, qname, type, ecs));
  response.header.authoritative = true;
  for (std::uint8_t s = 1; s <= 2; ++s) {
    ResourceRecord& r = response.answers.emplace_back();
    r.name = qname;
    r.type = type;
    r.ttl = 20;
    if (type == RecordType::A) {
      r.rdata = ARecord{net::IpV4Addr{203, 0, 113, s}};
    } else {
      r.rdata = AaaaRecord{*net::IpV6Addr::parse("2001:db8::" + std::to_string(s))};
    }
  }
  response.edns->set_client_subnet(ecs.with_scope(24));
  return response;
}

TEST(EncodeAllocation, ServedResponseIntoWarmedBufferAllocatesNothing) {
  for (const RecordType type : {RecordType::A, RecordType::AAAA}) {
    const Message response = served_response(type);
    std::vector<std::uint8_t> wire;
    response.encode_into(wire);  // warm: the buffer grows to the answer's size once
    const std::vector<std::uint8_t> first = wire;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    response.encode_into(wire);
    const std::size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocations, 0U) << "qtype " << static_cast<int>(type);
    EXPECT_EQ(wire, first);
  }
}

TEST(EncodeAllocation, EncodeMakesOneAllocation) {
  const Message response = served_response(RecordType::A);
  (void)response.encode();  // warm the per-thread scratch buffer
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const std::vector<std::uint8_t> wire = response.encode();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1U);
  EXPECT_FALSE(wire.empty());
}

TEST(EncodeAllocation, CounterSeesAllocations) {
  // Guards the two tests above against a counter that never counts.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  std::vector<std::uint8_t> grown;
  grown.reserve(4096);
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace eum::dns
