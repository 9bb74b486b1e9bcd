#include "driver/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "driver/validate.h"
#include "graph/legal_graph.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "service/executor.h"
#include "service/gateway.h"
#include "service/protocol.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

namespace svc = mpcstab::service;
using Clock = std::chrono::steady_clock;

double us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

svc::HttpRequest parse_wire(const std::string& wire) {
  const svc::GatewayOptions defaults;
  svc::HttpRequestParser parser(defaults.max_head_bytes,
                                defaults.max_body_bytes);
  parser.feed(wire);
  return parser.request();
}

/// The gateway's result body for a computed request (gateway.cpp).
std::string result_body(const svc::Request& req, const svc::ExecResult& r) {
  std::string body = std::move(svc::JsonObject()
                                   .field("event", "result")
                                   .field("ok", true)
                                   .field("op", req.op)
                                   .field("rounds", r.rounds)
                                   .field("words", r.words)
                                   .raw("metrics", r.metrics_json)
                                   .raw("answer", r.answer_json))
                         .str();
  body += '\n';
  return body;
}

void add_self_times(const mpcstab::obs::SpanNode& node,
                    std::map<std::string, double>& self_us) {
  std::uint64_t children = 0;
  for (const auto& child : node.children) {
    children += child.wall_ns;
    add_self_times(child, self_us);
  }
  self_us[node.name] +=
      static_cast<double>(node.wall_ns - std::min(node.wall_ns, children)) /
      1000.0;
}

/// Per-thread timings of the traced pass.
struct Timings {
  std::vector<double> http_parse, parse, canonical, lookup, insert, execute,
      serialize, bytes, execute_on, layers;
  std::uint64_t lookups = 0, hits = 0, rounds = 0;
  std::map<std::string, double> self_us;
  std::vector<std::pair<std::uint64_t, std::string>> comparables;
};

/// Runs `body(thread, index)` on `threads` threads over consecutive stream
/// indices until `seconds` have passed; returns (requests, elapsed seconds).
template <class Body>
std::pair<std::uint64_t, double> closed_loop(unsigned threads, double seconds,
                                             Body&& body) {
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (Clock::now() < deadline) body(t, next.fetch_add(1));
    });
  }
  for (std::thread& w : workers) w.join();
  return {next.load(), std::chrono::duration<double>(Clock::now() - start)
                           .count()};
}

}  // namespace

ReplayResult replay(const Stream& stream, double seconds) {
  ReplayResult out;
  const unsigned threads = connections(stream.workload());
  const bool hot = stream.workload() == Workload::kHotCache;
  const svc::AdmissionLimits limits;
  Failures failures;

  svc::Gateway gateway((svc::GatewayOptions()));
  svc::ResultCache cache(svc::GatewayOptions().cache_budget_bytes);
  if (hot) {
    for (std::uint64_t key = 0; key < stream.templates(); ++key) {
      const Planned p = stream.at(key);
      const svc::HttpResponse res = gateway.handle(parse_wire(http_post(p.body)));
      const Verdict v = validate(res.serialize(), Expectation{&p, "miss", {}});
      if (!v.ok) {
        failures.add("in-process warm-up of key " + std::to_string(key) +
                     ": " + v.reason);
        continue;
      }
      cache.insert(svc::canonical_request(
                       *svc::parse_request(p.body).request),
                   v.body);
      out.comparables.emplace_back(key,
                                   comparable(p, v.answer, v.rounds, v.words));
    }
  }

  // Untraced pass: Gateway::handle as the daemon's session thread calls it.
  std::vector<std::vector<double>> handle(threads);
  const auto [untraced_n, untraced_s] =
      closed_loop(threads, seconds, [&](unsigned t, std::uint64_t i) {
        const svc::HttpRequest http = parse_wire(http_post(stream.at(i).body));
        const Clock::time_point t0 = Clock::now();
        const svc::HttpResponse res = gateway.handle(http);
        handle[t].push_back(us(t0, Clock::now()));
        if (res.status != 200) {
          failures.add("in-process request " + std::to_string(i) +
                       " returned status " + std::to_string(res.status));
        }
      });
  out.untraced_requests = untraced_n;
  out.untraced_rps = static_cast<double>(untraced_n) / untraced_s;
  std::vector<double> all_handle;
  for (const auto& v : handle) all_handle.insert(all_handle.end(), v.begin(), v.end());
  out.handle_us = summarize(std::move(all_handle));

  // Traced pass: the same work through each layer's entry point.
  mpcstab::obs::Registry::global().reset_values();
  std::vector<Timings> timings(threads);
  const auto [traced_n, traced_s] =
      closed_loop(threads, seconds, [&](unsigned t, std::uint64_t i) {
        Timings& tm = timings[t];
        const Planned p = stream.at(i);
        const std::string wire = http_post(p.body);
        const Clock::time_point t0 = Clock::now();
        const svc::GatewayOptions defaults;
        svc::HttpRequestParser parser(defaults.max_head_bytes,
                                      defaults.max_body_bytes);
        parser.feed(wire);
        const Clock::time_point t1 = Clock::now();
        const svc::ParsedRequest parsed = svc::parse_request(parser.request().body);
        const Clock::time_point t2 = Clock::now();
        if (!parsed.request) {
          failures.add("in-process parse of request " + std::to_string(i));
          return;
        }
        const svc::Request& req = *parsed.request;
        const std::string canonical = svc::canonical_request(req);
        const Clock::time_point t3 = Clock::now();
        double layers = us(t0, t1) + us(t1, t2) + us(t2, t3);
        tm.http_parse.push_back(us(t0, t1));
        tm.parse.push_back(us(t1, t2));
        tm.canonical.push_back(us(t2, t3));
        std::optional<std::string> body;
        if (!canonical.empty()) {
          const Clock::time_point l0 = Clock::now();
          body = cache.lookup(canonical);
          const double lookup = us(l0, Clock::now());
          tm.lookup.push_back(lookup);
          layers += lookup;
          ++tm.lookups;
          tm.hits += body.has_value();
        }
        const char* x_cache =
            canonical.empty() ? "bypass" : (body ? "hit" : "miss");
        if (!body) {
          svc::ExecOptions opts;
          opts.capture_record = true;
          const Clock::time_point e0 = Clock::now();
          const svc::ExecResult r = svc::execute(req, opts, limits);
          const double execute = us(e0, Clock::now());
          tm.execute.push_back(execute);
          layers += execute;
          if (!r.ok || !r.record) {
            failures.add("in-process request " + std::to_string(i) + ": " +
                         r.error_kind + " " + r.error_message);
            return;
          }
          tm.rounds += r.rounds;
          for (const auto& span : r.record->spans.children) {
            if (span.name == req.op) {
              tm.execute_on.push_back(static_cast<double>(span.wall_ns) / 1000.0);
            }
            add_self_times(span, tm.self_us);
          }
          tm.comparables.emplace_back(
              i, comparable(p, r.answer_json, r.rounds, r.words));
          body = result_body(req, r);
          if (!canonical.empty()) {
            const Clock::time_point c0 = Clock::now();
            cache.insert(canonical, *body);
            const double insert = us(c0, Clock::now());
            tm.insert.push_back(insert);
            layers += insert;
          }
        }
        svc::HttpResponse res;
        res.content_type = "application/json";
        res.extra_headers.emplace_back("X-Cache", x_cache);
        res.body = std::move(*body);
        const Clock::time_point s0 = Clock::now();
        const std::string out_wire = res.serialize();
        const double serialize = us(s0, Clock::now());
        tm.serialize.push_back(serialize);
        tm.bytes.push_back(static_cast<double>(out_wire.size()));
        tm.layers.push_back(layers + serialize);
      });
  out.traced_requests = traced_n;
  out.traced_rps = static_cast<double>(traced_n) / traced_s;
  for (const auto& sample : mpcstab::obs::Registry::global().snapshot()) {
    using Type = mpcstab::obs::MetricSample::Type;
    if (sample.type == Type::kCounter) {
      out.registry[sample.name] = sample.value;
    } else if (sample.type == Type::kHistogram) {
      out.registry[sample.name + ".count"] = sample.value;
      out.registry[sample.name + ".sum"] = sample.sum;
    }
  }

  const auto merged = [&](std::vector<double> Timings::*field) {
    std::vector<double> all;
    for (const Timings& tm : timings) {
      all.insert(all.end(), (tm.*field).begin(), (tm.*field).end());
    }
    return summarize(std::move(all));
  };
  out.http_parse_us = merged(&Timings::http_parse);
  out.parse_us = merged(&Timings::parse);
  out.canonical_us = merged(&Timings::canonical);
  out.cache_lookup_us = merged(&Timings::lookup);
  out.cache_insert_us = merged(&Timings::insert);
  out.execute_us = merged(&Timings::execute);
  out.serialize_us = merged(&Timings::serialize);
  out.response_bytes = merged(&Timings::bytes);
  out.execute_on_us = merged(&Timings::execute_on);
  out.layer_us_per_request = merged(&Timings::layers).mean;
  for (Timings& tm : timings) {
    out.cache_lookups += tm.lookups;
    out.cache_hits += tm.hits;
    out.rounds += tm.rounds;
    for (const auto& [name, value] : tm.self_us) out.self_us[name] += value;
    for (auto& c : tm.comparables) out.comparables.push_back(std::move(c));
  }

  // Probes: graph build and pool acquisition happen inside execute; time
  // them on their own for the first engine requests of the stream.
  std::vector<double> build, acquire, edges;
  for (std::uint64_t i = 0; !hot && i < std::min<std::uint64_t>(traced_n, 32);
       ++i) {
    const auto parsed = svc::parse_request(stream.at(i).body);
    const Clock::time_point b0 = Clock::now();
    const mpcstab::LegalGraph g = mpcstab::LegalGraph::with_identity(
        svc::build_graph(parsed.request->graph));
    build.push_back(us(b0, Clock::now()));
    edges.push_back(static_cast<double>(g.graph().m()));
    const Clock::time_point a0 = Clock::now();
    mpcstab::PoolHandle pool = mpcstab::acquire_job_pool();
    acquire.push_back(us(a0, Clock::now()));
  }
  out.graph_build_us = summarize(std::move(build));
  out.pool_acquire_us = summarize(std::move(acquire));
  out.graph_edges = summarize(std::move(edges));

  out.failures = failures.count;
  out.first_failure = failures.first;
  return out;
}

std::vector<std::pair<std::uint64_t, std::string>> replay_sample(
    const Stream& stream, std::uint64_t count, std::string* failure) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Planned p = stream.at(i);
    const svc::ExecResult r =
        svc::execute(*svc::parse_request(p.body).request, {}, {});
    if (!r.ok) {
      *failure = "in-process request " + std::to_string(i) + ": " +
                 r.error_kind + " " + r.error_message;
      continue;
    }
    out.emplace_back(i, comparable(p, r.answer_json, r.rounds, r.words));
  }
  return out;
}

}  // namespace perfbench
