#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "dns/message.h"
#include "dnsserver/answer_cache.h"
#include "dnsserver/authoritative.h"
#include "util.h"

namespace eumbench {

using namespace eum;

namespace {

enum Name : std::uint8_t {
  kServeDatagram,  // root: one datagram, the serve loop's own glue as self time
  kProbe,
  kFind,
  kRender,
  kDecode,
  kHandle,
  kHandler,
  kLdnsLookup,
  kEncode,
  kStore,
  // Components of the handler, re-timed outside the datagram tree on the
  // same inputs (the mapping handler gives no hook inside itself).
  kBlockLookup,
  kMap,
  // remap_churn control-plane steps.
  kFlap,
  kRebuild,
  kVisible,
  kNameCount,
};

constexpr const char* kNames[kNameCount] = {
    "udp.serve_datagram", "answer_cache.probe",  "answer_cache.find", "answer_cache.render",
    "dns.decode",         "authoritative.handle", "mapping.handler",  "topo.ldns_lookup",
    "dns.encode",         "answer_cache.store",  "topo.block_lookup", "map_snapshot.map",
    "map_maker.flap",     "map_maker.rebuild",   "map_maker.publish_visible",
};

/// Spans in the datagram tree, whose self times add up to a datagram.
constexpr bool in_datagram_tree(Name name) { return name <= kStore; }
/// Spans timed by the tracer's own clock reads (the flap spans are built
/// from timestamps taken elsewhere).
constexpr bool clock_timed(Name name) { return name < kFlap; }

constexpr std::uint32_t kNoParent = 0xFFFFFFFFU;

struct Span {
  Name name = kServeDatagram;
  std::uint32_t parent = kNoParent;
  std::uint32_t query = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  std::uint32_t begin(Name name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, open_.empty() ? kNoParent : open_.back(), query_, now_ns(), 0});
    open_.push_back(index);
    return index;
  }
  void end(std::uint32_t index) {
    spans_[index].end = now_ns();
    open_.pop_back();
  }
  void add(Name name, std::uint32_t parent, std::int64_t start, std::int64_t end) {
    spans_.push_back(Span{name, parent, query_, start, end});
  }
  void set_query(std::uint32_t query) { query_ = query; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t query_ = 0;
};

/// RAII span, compiled away in the untraced replay.
template <bool kTraced>
class Scope {
 public:
  Scope(Tracer* tracer, Name name) : tracer_(tracer) {
    if constexpr (kTraced) index_ = tracer_->begin(name);
  }
  ~Scope() {
    if constexpr (kTraced) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = 0;
};

/// The handler wrapper of the traced engine: the same fallback-resolver
/// patch as the served engine, with a span around the whole handler and
/// one around its own resolver lookup.
struct HandlerProbe {
  Tracer* tracer = nullptr;  ///< null while replaying untraced
  std::uint64_t decisions = 0;
  std::uint64_t with_block = 0;
  std::uint64_t fallback = 0;
  std::optional<dnsserver::DynamicQuery> last;  ///< the patched query, for re-timing
};

/// Span clock costs, calibrated on empty spans.
struct SpanCost {
  double inside_ns = 0;  ///< what an empty span records as its own duration
  double child_ns = 0;   ///< what a child span adds to its parent beyond its own duration
};

SpanCost calibrate(Tracer& tracer) {
  constexpr std::size_t kPairs = 100'000;
  tracer.clear();
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::uint32_t parent = tracer.begin(kServeDatagram);
    tracer.end(tracer.begin(kProbe));
    tracer.end(parent);
  }
  std::vector<double> inside;
  std::vector<double> parent_minus_child;
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i + 1 < spans.size(); i += 2) {
    const auto parent = static_cast<double>(spans[i].end - spans[i].start);
    const auto child = static_cast<double>(spans[i + 1].end - spans[i + 1].start);
    inside.push_back(child);
    parent_minus_child.push_back(parent - child);
  }
  tracer.clear();
  SpanCost cost;
  cost.inside_ns = median(std::move(inside));
  cost.child_ns = median(std::move(parent_minus_child)) - cost.inside_ns;
  return cost;
}

template <bool kTraced>
std::size_t replay(Context& ctx, const std::vector<std::vector<std::uint8_t>>& wires,
                   dnsserver::AuthoritativeServer& engine, dnsserver::AnswerCache& cache,
                   HandlerProbe& handler, Tracer* tracer, std::size_t first, std::size_t count) {
  const net::IpAddr source{net::IpV4Addr{127, 0, 0, 1}};
  const std::shared_ptr<const control::MapSnapshot> snapshot = ctx.history.capture();
  std::vector<std::uint8_t> out;
  std::size_t sink = 0;
  std::uint64_t version = 0;
  for (std::size_t i = first; i < first + count; ++i) {
    // One version read per 32-datagram batch, as the serve loop does.
    if ((i - first) % 32 == 0) {
      version = ctx.stack.maker().version_cell().load(std::memory_order_acquire);
    }
    const std::span<const std::uint8_t> datagram = wires[i];
    if constexpr (kTraced) tracer->set_query(static_cast<std::uint32_t>(i));
    handler.last.reset();
    {
      Scope<kTraced> root{tracer, kServeDatagram};
      std::optional<dnsserver::QueryProbe> probe;
      {
        Scope<kTraced> span{tracer, kProbe};
        probe = dnsserver::QueryProbe::parse(datagram);
      }
      const dnsserver::AnswerCache::Entry* hit = nullptr;
      if (probe) {
        Scope<kTraced> span{tracer, kFind};
        hit = cache.find(*probe, version);
      }
      if (hit != nullptr) {
        Scope<kTraced> span{tracer, kRender};
        cache.render(*hit, *probe, out);
        sink += out.size();
        continue;
      }
      dns::Message query;
      {
        Scope<kTraced> span{tracer, kDecode};
        query = dns::Message::decode(datagram);
      }
      dns::Message response;
      {
        Scope<kTraced> span{tracer, kHandle};
        response = engine.handle(query, source);
      }
      std::vector<std::uint8_t> wire;
      {
        Scope<kTraced> span{tracer, kEncode};
        wire = response.encode();
        const std::size_t limit = dnsserver::effective_udp_payload_limit(
            query.edns.has_value(), query.edns ? query.edns->udp_payload_size : 0);
        if (wire.size() > limit) {
          response.answers.clear();
          response.authorities.clear();
          response.additionals.clear();
          response.header.truncated = true;
          wire = response.encode();
        }
      }
      if (probe) {
        Scope<kTraced> span{tracer, kStore};
        cache.store(*probe, version, wire);
      }
      sink += wire.size();
    }
    if constexpr (kTraced) {
      if (handler.last) {
        // Re-time the handler's topology and snapshot lookups on the same
        // inputs, outside the datagram tree.
        const dnsserver::DynamicQuery& q = *handler.last;
        std::optional<topo::BlockId> block;
        if (q.client_block) {
          Scope<kTraced> span{tracer, kBlockLookup};
          const topo::ClientBlock* found =
              ctx.stack.world().block_by_prefix(net::IpPrefix{q.client_block->address(), 24});
          if (found != nullptr) block = found->id;
        }
        const std::string qname = q.qname.to_string();
        Scope<kTraced> span{tracer, kMap};
        const auto result = snapshot->map(ctx.stack.fallback_ldns().id, block, qname, 0.0);
        sink += result ? result->servers.size() : 0;
      }
    }
  }
  return sink;
}

void write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "name,query,parent,start_ns,end_ns\n");
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  for (const Span& span : spans) {
    std::fprintf(out, "%s,%u,%lld,%lld,%lld\n", kNames[span.name], span.query,
                 span.parent == kNoParent ? -1LL : static_cast<long long>(span.parent),
                 static_cast<long long>(span.start - t0), static_cast<long long>(span.end - t0));
  }
  std::fclose(out);
}

}  // namespace

TraceReport run_traced_replay(Context& ctx, std::size_t queries, std::uint64_t stream,
                              const std::string& out_path, const std::function<void()>& between) {
  TraceReport report;
  const std::vector<load::QuerySpec> specs = ctx.workload.generate(queries, stream);
  std::vector<std::vector<std::uint8_t>> wires;
  wires.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wires.push_back(ctx.workload.model().encode(specs[i], static_cast<std::uint16_t>(i)));
  }

  HandlerProbe handler;
  const topo::World* world = &ctx.stack.world();
  const net::IpAddr fallback = ctx.stack.fallback_ldns().address;
  dnsserver::AuthoritativeServer engine;
  engine.add_dynamic_domain(
      dns::DnsName::from_text(Stack::kZone),
      [&handler, world, fallback, inner = ctx.stack.mapping_handler()](
          const dnsserver::DynamicQuery& query) -> std::optional<dnsserver::DynamicAnswer> {
        Tracer* tracer = handler.tracer;
        const std::uint32_t span = tracer != nullptr ? tracer->begin(kHandler) : 0;
        dnsserver::DynamicQuery patched = query;
        const std::uint32_t lookup = tracer != nullptr ? tracer->begin(kLdnsLookup) : 0;
        const bool unknown = world->ldns_by_address(query.resolver) == nullptr;
        if (tracer != nullptr) tracer->end(lookup);
        if (unknown) patched.resolver = fallback;
        std::optional<dnsserver::DynamicAnswer> answer = inner(patched);
        if (tracer != nullptr) tracer->end(span);
        handler.decisions += 1;
        handler.fallback += unknown ? 1 : 0;
        handler.with_block += answer && answer->ecs_scope_len > 0 ? 1 : 0;
        handler.last = std::move(patched);
        return answer;
      });
  const dnsserver::AnswerCache::Config cache_config{Stack::kCacheEntries, 4096};

  Tracer tracer{queries * 12 + 1024};
  const SpanCost cost = calibrate(tracer);
  report.empty_span_ns = cost.inside_ns;

  // The stream is replayed twice from a cold cache, first without spans
  // (for the tracing overhead) and then traced; with churn, clusters flap
  // beside both passes, and the flaps are traced in the second. `between`
  // runs after every chunk of both passes, so what it measures sees the
  // host at the same moments as the replay.
  const bool churn = ctx.workload.churn();
  auto pass = [&]<bool kTraced>(std::bool_constant<kTraced>) {
    dnsserver::AnswerCache cache{cache_config};
    std::optional<Flapper> flapper;
    if (churn) flapper.emplace(ctx, kTraceFlapCadence);
    std::int64_t replay_ns = 0;
    for (std::size_t chunk = 0; chunk < kTraceChunks; ++chunk) {
      const std::size_t first = queries * chunk / kTraceChunks;
      const std::size_t last = queries * (chunk + 1) / kTraceChunks;
      const std::int64_t t0 = now_ns();
      (void)replay<kTraced>(ctx, wires, engine, cache, handler, &tracer, first, last - first);
      replay_ns += now_ns() - t0;
      between();
    }
    if (flapper) {
      const FlapStats flap = flapper->finish();
      if constexpr (kTraced) {
        for (const FlapEvent& event : flap.events) {
          const auto parent = static_cast<std::uint32_t>(tracer.spans().size());
          tracer.add(kFlap, kNoParent, event.killed_ns, event.visible_ns);
          tracer.add(kRebuild, parent, event.killed_ns, event.built_ns);
          tracer.add(kVisible, parent, event.built_ns, event.visible_ns);
          report.flaps += 1;
        }
      }
    }
    return static_cast<double>(replay_ns) / static_cast<double>(queries);
  };
  report.untraced_query_ns = pass(std::false_type{});
  handler = HandlerProbe{};
  handler.tracer = &tracer;
  report.traced_query_ns = pass(std::true_type{});
  handler.tracer = nullptr;
  if (handler.decisions > 0) {
    report.ecs_share =
        static_cast<double>(handler.with_block) / static_cast<double>(handler.decisions);
    report.fallback_ldns_share =
        static_cast<double>(handler.fallback) / static_cast<double>(handler.decisions);
  }

  // Self time: duration minus the children's recorded durations, minus the
  // span's own clock cost and the part of each child's cost that falls
  // outside the child's interval.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<std::uint32_t> children(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    child_ns[span.parent] += static_cast<double>(span.end - span.start);
    children[span.parent] += 1;
  }
  std::vector<std::vector<double>> self(kNameCount);
  std::vector<double> handler_total;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end - span.start);
    if (span.name == kHandler) handler_total.push_back(duration - cost.inside_ns);
    const double overhead =
        clock_timed(span.name) ? cost.inside_ns + children[i] * cost.child_ns : 0.0;
    self[span.name].push_back(duration - child_ns[i] - overhead);
  }
  for (std::size_t n = 0; n < kNameCount; ++n) {
    if (self[n].empty()) continue;
    const double per_query = static_cast<double>(self[n].size()) / static_cast<double>(queries);
    const double med = median(self[n]);
    report.self_ns[kNames[n]] = med;
    if (in_datagram_tree(static_cast<Name>(n))) report.layer_sum_ns += med * per_query;
  }
  report.handler_ns = median(std::move(handler_total));
  if (!out_path.empty()) write_csv(out_path, spans);
  return report;
}

}  // namespace eumbench
