// perfbench_driver — the query-service benchmark's load driver.
//
//   perfbench_driver --daemon PATH --workload NAME --seed N --seconds S
//                    --trace 0|1 [--report PATH]
//
// Spawns `mpcstabd serve --http-port 0` (several times, timing set-up),
// warms it, then sends closed-loop POST /v1/query traffic over loopback
// from one thread per connection, a fresh connection per request, and
// validates every response (validate.h). Responses are cross-checked
// against an in-process execution of the same requests. With --trace 1 the
// socket phase gets half of the time and the in-process replay (replay.h)
// the other half, and the per-layer metrics are printed instead of the
// end-to-end ones. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --report writes every end-to-end and per-layer figure, with bases and
// sample counts, as JSON. Exits 1 on any failed or mismatched response.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/daemon.h"
#include "driver/replay.h"
#include "driver/stats.h"
#include "driver/validate.h"
#include "driver/workload.h"
#include "service/protocol.h"

namespace {

using namespace perfbench;
using mpcstab::service::JsonObject;
using Clock = std::chrono::steady_clock;

/// Thread budget (MPCSTAB_THREADS) and engine admission limit
/// (MPCSTAB_MAX_ENGINES) of the daemon and of the in-process replay, pinned
/// so runs on either side of a change compare like with like. The budget is
/// 2, not the 4 CPUs of the reference host: on a 4-vCPU VM a 4-wide pool's
/// fork-join barriers wait on every vCPU, and host preemption moved
/// cold_exchange throughput by up to 2x between runs; 2-wide jobs ran
/// faster and steadier there. The limit keeps cold_local at 4 concurrent
/// one-thread jobs.
constexpr const char* kThreadBudget = "2";
constexpr const char* kMaxEngines = "4";
constexpr int kSetups = 7;  ///< daemon set-ups per run; setup_s is the median
/// Throughput is the median rate over this many equal-count blocks of
/// completions, so a host stall in a few blocks does not move it.
constexpr std::size_t kRateBlocks = 20;
/// Daemon responses kept for the in-process cross-check, by stream index.
constexpr std::uint64_t kKeptResponses = 1u << 17;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[noreturn]] void fatal(const std::string& what) {
  std::cerr << "perfbench_driver: " << what << "\n";
  std::exit(1);
}

struct Args {
  std::string daemon, report;
  Workload workload = Workload::kHotCache;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--daemon") {
      a.daemon = value;
    } else if (flag == "--report") {
      a.report = value;
    } else if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) fatal("unknown workload " + value);
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else {
      fatal("unknown flag " + flag);
    }
  }
  if (a.daemon.empty() || !have_workload || a.seconds <= 0) {
    fatal("usage: --daemon PATH --workload NAME --seed N --seconds S "
          "--trace 0|1 [--report PATH]");
  }
  return a;
}

/// The daemon's Prometheus exposition ("" when the scrape fails).
std::string scrape(std::uint16_t port) {
  return http_get(port, "/metrics").value_or("");
}

/// Pow2 bucket counts of a histogram family in a scraped exposition.
std::vector<std::uint64_t> buckets_in(const std::string& page,
                                      const std::string& family) {
  std::vector<std::uint64_t> buckets;
  std::istringstream lines(page);
  std::string line;
  const std::string prefix = family + "_bucket{le=\"";
  std::uint64_t previous = 0;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0 || line[prefix.size()] == '+') continue;
    const std::uint64_t cumulative =
        std::stoull(line.substr(line.rfind(' ') + 1));
    buckets.push_back(cumulative - previous);
    previous = cumulative;
  }
  return buckets;
}

/// A counter family's value in a scraped exposition (0 when absent).
std::uint64_t counter_in(const std::string& page, const std::string& family) {
  const std::size_t at = page.find("\n" + family + " ");
  return at == std::string::npos
             ? 0
             : std::stoull(page.substr(at + family.size() + 2));
}

constexpr const char* kQueueWait = "mpcstab_engine_queue_wait_ns";
constexpr const char* kCacheHits = "mpcstab_service_cache_hits_total";
constexpr const char* kCacheMisses = "mpcstab_service_cache_misses_total";

class Benchmark {
 public:
  explicit Benchmark(const Args& args)
      : args_(args),
        setup_(args.workload, args.seed, kSetupRun),
        measured_(args.workload, args.seed, kMeasuredRun),
        hot_(args.workload == Workload::kHotCache) {
    // Graph specs do not depend on the seed: one BFS per template.
    for (std::uint64_t k = 0; k < measured_.templates(); ++k) {
      const Planned p = measured_.at(k);
      components_.push_back(p.op == "connectivity"
                                ? std::optional(bfs_components(p.body))
                                : std::nullopt);
    }
    warm_bodies_.resize(measured_.templates());
    warm_comparables_.resize(measured_.templates());
    baseline_.resize(measured_.templates());
  }

  int run();

 private:
  Expectation expect(const Planned& p, std::string_view x_cache) const {
    return Expectation{&p, x_cache, components_[p.key]};
  }

  std::unique_ptr<Daemon> set_up();
  void measure(Daemon& daemon, double seconds);
  void cross_check(const std::vector<std::pair<std::uint64_t, std::string>>&
                       in_process);
  std::string end_to_end_json(JsonObject& report);
  std::string per_layer_json(const ReplayResult& r, JsonObject& report);

  Args args_;
  Stream setup_, measured_;
  bool hot_;
  std::vector<std::optional<std::uint64_t>> components_;
  std::vector<std::string> warm_bodies_;       ///< hot_cache: body per key
  std::vector<std::string> warm_comparables_;  ///< hot_cache: per key
  /// mpc-native (rounds, words) per template, recorded at set-up.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> baseline_;
  Failures failures_;

  std::vector<double> setup_s_;
  // Socket phase.
  std::vector<double> latency_us_;
  std::vector<double> done_s_;  ///< completion times of served requests
  std::uint64_t attempted_ = 0, served_ = 0;
  double elapsed_s_ = 0, cpu_s_ = 0, rss_mb_ = 0;
  std::vector<std::string> responses_;  ///< comparable per stream index
  std::vector<std::uint64_t> queue_wait_buckets_;
  std::uint64_t daemon_hits_ = 0, daemon_misses_ = 0;
};

std::unique_ptr<Daemon> Benchmark::set_up() {
  const Clock::time_point start = Clock::now();
  std::string error;
  std::unique_ptr<Daemon> daemon = Daemon::spawn(args_.daemon, &error);
  if (!daemon) fatal(error);
  // Warm-up: hot_cache fills every key of the measured stream; the cold
  // workloads send each template once (set-up seeds, so the measured
  // requests stay misses) and record the mpc-native rounds and words.
  const Stream& stream = hot_ ? measured_ : setup_;
  std::atomic<std::uint64_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t k; (k = next.fetch_add(1)) < stream.templates();) {
        const Planned p = stream.at(k);
        const std::optional<std::string> wire =
            http_exchange(daemon->port(), http_post(p.body));
        const Verdict v =
            validate(wire.value_or(""),
                     expect(p, p.cacheable() ? "miss" : "bypass"));
        if (!v.ok) {
          failures_.add("warm-up request " + std::to_string(k) + ": " +
                        v.reason);
          continue;
        }
        warm_bodies_[k] = v.body;
        warm_comparables_[k] = comparable(p, v.answer, v.rounds, v.words);
        baseline_[k] = {v.rounds, v.words};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  setup_s_.push_back(seconds_since(start));
  return daemon;
}

void Benchmark::measure(Daemon& daemon, double seconds) {
  const unsigned conns = connections(args_.workload);
  if (!hot_) responses_.resize(kKeptResponses);
  const std::string before = scrape(daemon.port());

  std::vector<std::vector<double>> latencies(conns), done(conns);
  std::atomic<std::uint64_t> next{0};
  const double cpu0 = daemon.cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        const std::uint64_t i = next.fetch_add(1);
        const Planned p = measured_.at(i);
        const std::string wire_out = http_post(p.body);
        const Clock::time_point t0 = Clock::now();
        const std::optional<std::string> wire =
            http_exchange(daemon.port(), wire_out);
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        const std::string_view x_cache =
            !p.cacheable() ? "bypass" : (hot_ ? "hit" : "miss");
        const Verdict v = validate(wire.value_or(""), expect(p, x_cache));
        if (!v.ok) {
          failures_.add("request " + std::to_string(i) + ": " + v.reason);
          continue;
        }
        if (hot_ && v.body != warm_bodies_[p.key]) {
          failures_.add("hit " + std::to_string(i) +
                        " differs from the body its miss produced");
          continue;
        }
        if (p.backend == "mpc-native" &&
            std::pair(v.rounds, v.words) != baseline_[p.key]) {
          failures_.add("request " + std::to_string(i) +
                        ": mpc-native rounds/words differ from set-up");
          continue;
        }
        if (!hot_ && i < kKeptResponses) {
          responses_[i] = comparable(p, v.answer, v.rounds, v.words);
        }
        done[c].push_back(seconds_since(start));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  elapsed_s_ = seconds_since(start);
  cpu_s_ = daemon.cpu_seconds() - cpu0;
  rss_mb_ = daemon.rss_peak_mb();
  attempted_ = next.load();
  for (unsigned c = 0; c < conns; ++c) {
    latency_us_.insert(latency_us_.end(), latencies[c].begin(),
                       latencies[c].end());
    done_s_.insert(done_s_.end(), done[c].begin(), done[c].end());
  }
  served_ = done_s_.size();
  // Daemon-side deltas over the measured window only.
  const std::string after = scrape(daemon.port());
  const std::vector<std::uint64_t> waits0 = buckets_in(before, kQueueWait);
  queue_wait_buckets_ = buckets_in(after, kQueueWait);
  for (std::size_t i = 0; i < queue_wait_buckets_.size(); ++i) {
    queue_wait_buckets_[i] -= i < waits0.size() ? waits0[i] : 0;
  }
  daemon_hits_ = counter_in(after, kCacheHits) - counter_in(before, kCacheHits);
  daemon_misses_ =
      counter_in(after, kCacheMisses) - counter_in(before, kCacheMisses);
}

void Benchmark::cross_check(
    const std::vector<std::pair<std::uint64_t, std::string>>& in_process) {
  for (const auto& [i, got] : in_process) {
    const std::string* want = nullptr;
    if (hot_) {
      want = &warm_comparables_[i % measured_.templates()];
    } else if (i < attempted_ && i < kKeptResponses && !responses_[i].empty()) {
      want = &responses_[i];
    }
    if (want != nullptr && *want != got) {
      failures_.add("request " + std::to_string(i) +
                    ": daemon and in-process answers differ: " + *want +
                    " vs " + got);
    }
  }
}


/// Extra report members ("k":v,...) from a JsonObject, braces stripped.
std::string members(JsonObject& obj) {
  std::string s = std::move(obj).str();
  return s.substr(1, s.size() - 2);
}

/// The metrics of one run: the result line's {"value","unit"} objects, the
/// report's entries with their sample counts or bases, and a readable line.
struct Metrics {
  JsonObject line, report;

  void add(const std::string& name, double value, const char* unit,
           const std::string& detail = "") {
    JsonObject entry;
    entry.field("value", value).field("unit", unit);
    std::string text = std::move(entry).str();
    line.raw(name, text);
    if (!detail.empty()) text.insert(text.size() - 1, "," + detail);
    report.raw(name, text);
    std::cout << "  " << name << " = " << value << " " << unit;
    if (!detail.empty()) std::cout << "  (" << detail << ")";
    std::cout << "\n";
  }
};

std::string samples(std::size_t n) {
  JsonObject o;
  o.field("samples", static_cast<std::uint64_t>(n));
  return members(o);
}

std::string base(double value, const char* what) {
  JsonObject o;
  o.field("base", value).field("base_is", what);
  return members(o);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

std::string Benchmark::end_to_end_json(JsonObject& report) {
  Metrics m;
  const Summary lat = summarize(latency_us_);
  const std::uint64_t n = latency_us_.size();
  {
    JsonObject o;
    o.field("samples", served_)
        .field("blocks", static_cast<std::uint64_t>(kRateBlocks))
        .field("whole_run", ratio(static_cast<double>(served_), elapsed_s_));
    m.add("throughput_rps", block_rate(done_s_, kRateBlocks), "1/s",
          members(o));
  }
  m.add("latency_p50_us", lat.p50, "us", samples(n));
  {
    JsonObject o;
    o.field("samples", n)
        .field("percentile", lat.tail_percentile)
        .field("max", lat.max);
    m.add("latency_p99_us", lat.tail, "us", members(o));
  }
  m.add("cpu_us_per_req", ratio(cpu_s_ * 1e6, static_cast<double>(attempted_)),
        "us", samples(attempted_));
  m.add("rss_peak_mb", rss_mb_, "MB");
  const Summary setup = summarize(setup_s_);
  m.add("setup_s", setup.p50, "s", samples(setup.n));
  {
    JsonObject o;
    o.field("failed", failures_.count)
        .field("base", attempted_)
        .field("base_is", "requests attempted");
    m.add("error_rate",
          ratio(static_cast<double>(failures_.count),
                static_cast<double>(attempted_)),
          "ratio", members(o));
  }
  report.raw("end_to_end", std::move(m.report).str());
  return std::move(m.line).str();
}

std::string Benchmark::per_layer_json(const ReplayResult& r,
                                      JsonObject& report) {
  Metrics m;
  const Summary lat = summarize(latency_us_);
  const double requests = static_cast<double>(r.traced_requests);
  const auto per_request = [&](double total) { return ratio(total, requests); };
  const auto reg = [&](const std::string& name) {
    const auto it = r.registry.find(name);
    return it == r.registry.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto self = [&](const std::string& span) {
    const auto it = r.self_us.find(span);
    return it == r.self_us.end() ? 0.0 : it->second;
  };
  const std::string traced = samples(r.traced_requests);

  m.add("server.socket_us", lat.p50 - r.handle_us.p50, "us",
        base(lat.p50, "socket latency p50 us minus Gateway::handle p50"));
  m.add("gateway.http_parse_us", r.http_parse_us.p50, "us",
        samples(r.http_parse_us.n));
  m.add("gateway.handle_us", r.handle_us.p50, "us", samples(r.handle_us.n));
  m.add("gateway.cache_lookup_us", r.cache_lookup_us.p50, "us",
        samples(r.cache_lookup_us.n));
  m.add("gateway.cache_insert_us", r.cache_insert_us.p50, "us",
        samples(r.cache_insert_us.n));
  m.add("gateway.serialize_us", r.serialize_us.p50, "us",
        samples(r.serialize_us.n));
  m.add("gateway.response_bytes", r.response_bytes.mean, "bytes",
        samples(r.response_bytes.n));
  m.add("gateway.cache_hit_ratio",
        ratio(static_cast<double>(r.cache_hits),
              static_cast<double>(r.cache_lookups)),
        "ratio", base(static_cast<double>(r.cache_lookups), "cache lookups"));
  m.add("protocol.parse_us", r.parse_us.p50, "us", samples(r.parse_us.n));
  m.add("protocol.canonical_us", r.canonical_us.p50, "us",
        samples(r.canonical_us.n));
  m.add("graph.build_us", r.graph_build_us.p50, "us",
        samples(r.graph_build_us.n));
  m.add("graph.edges", r.graph_edges.mean, "count",
        samples(r.graph_edges.n));
  m.add("executor.execute_us", r.execute_us.p50, "us",
        samples(r.execute_us.n));
  m.add("executor.pool_acquire_us", r.pool_acquire_us.p50, "us",
        samples(r.pool_acquire_us.n));
  const std::uint64_t waits = std::accumulate(
      queue_wait_buckets_.begin(), queue_wait_buckets_.end(), std::uint64_t{0});
  m.add("executor.queue_wait_p50_us",
        bucket_quantile(queue_wait_buckets_, 0.50) / 1000.0, "us",
        samples(waits));
  m.add("executor.queue_wait_p99_us",
        bucket_quantile(queue_wait_buckets_, 0.99) / 1000.0, "us",
        samples(waits));
  m.add("engine.execute_on_us", r.execute_on_us.p50, "us",
        samples(r.execute_on_us.n));
  for (const char* span : {"hash-to-min", "palette-iteration", "mis",
                           "simulations", "connectivity"}) {
    m.add(std::string("engine.self_us.") + span, per_request(self(span)), "us",
          traced);
  }
  const double paced = self("paced-exchange");
  m.add("mpc.paced_exchange_us", per_request(paced), "us", traced);
  m.add("mpc.exchange_share", ratio(paced, r.execute_on_us.sum), "ratio",
        base(r.execute_on_us.sum, "engine.execute_on us, summed"));
  m.add("mpc.exchanges", per_request(reg("cluster.exchanges")), "count", traced);
  m.add("mpc.words", per_request(reg("cluster.words")), "count", traced);
  m.add("mpc.rounds", per_request(static_cast<double>(r.rounds)), "count",
        traced);
  m.add("mpc.charged_rounds", per_request(reg("cluster.charged_rounds")),
        "count", traced);
  m.add("mpc.paced_rounds",
        per_request(reg("pacing.paced_rounds") + reg("shuffle.paced_rounds")),
        "count", traced);
  m.add("mpc.batch_engine_calls", per_request(reg("batching.engine_calls")),
        "count", traced);
  m.add("mpc.arena_allocs", per_request(reg("cluster.arena_allocs")), "count",
        traced);
  m.add("pool.task_wait_us", per_request(reg("pool.task_wait_ns.sum") / 1000.0),
        "us", traced);
  m.add("pool.serial_fallback", per_request(reg("pool.serial_fallback")),
        "count", traced);
  m.add("pool.job_threads",
        ratio(reg("pool.job_threads.sum"), reg("pool.job_threads.count")),
        "count", samples(static_cast<std::size_t>(reg("pool.job_threads.count"))));
  m.add("obs.trace_overhead",
        ratio(r.untraced_rps - r.traced_rps, r.untraced_rps), "ratio",
        base(r.untraced_rps, "untraced in-process requests per second"));
  m.add("layer_coverage", ratio(r.layer_us_per_request, lat.mean), "ratio",
        base(lat.mean, "socket latency mean us"));
  report.raw("per_layer", std::move(m.report).str());
  return std::move(m.line).str();
}

int Benchmark::run() {
  // Set up several times; measure against the last daemon.
  std::unique_ptr<Daemon> daemon;
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) daemon->stop();
    daemon = set_up();
  }
  const double socket_s = args_.trace ? args_.seconds / 2 : args_.seconds;
  measure(*daemon, socket_s);
  if (!daemon->stop()) failures_.add("daemon did not exit cleanly");

  // Cross-check daemon answers against the same requests run in process.
  std::optional<ReplayResult> traced;
  if (args_.trace) {
    traced = replay(measured_, args_.seconds / 4);
    cross_check(traced->comparables);
    if (traced->failures > 0) {
      failures_.add("in-process replay: " + traced->first_failure);
    }
  } else {
    std::string failure;
    const std::uint64_t sample =
        hot_ ? 10 : std::min<std::uint64_t>(2 * measured_.templates(), served_);
    cross_check(replay_sample(measured_, sample, &failure));
    if (!failure.empty()) failures_.add(failure);
  }

  JsonObject report;
  report.field("workload", workload_name(args_.workload))
      .field("seed", args_.seed)
      .field("seconds", args_.seconds)
      .field("trace", args_.trace)
      .field("loop", "closed")
      .field("connections",
             static_cast<std::uint64_t>(connections(args_.workload)))
      .field("thread_budget", kThreadBudget)
      .field("max_engines", kMaxEngines)
      .field("daemon_cache_hits", daemon_hits_)
      .field("daemon_cache_misses", daemon_misses_);
  std::cout << "perfbench " << workload_name(args_.workload)
            << " seed=" << args_.seed << " trace=" << args_.trace << "\n";
  const std::string end_to_end = end_to_end_json(report);
  const std::string metrics =
      traced ? per_layer_json(*traced, report) : end_to_end;
  report.field("correct", failures_.count == 0)
      .field("failed", failures_.count)
      .field("first_failure", failures_.first);
  if (!args_.report.empty()) {
    std::ofstream(args_.report) << std::move(report).str() << "\n";
  }
  if (failures_.count > 0) {
    std::cerr << "perfbench_driver: " << failures_.count
              << " failed or mismatched response(s); first: "
              << failures_.first << "\n";
  }
  std::cout << std::move(JsonObject()
                             .field("correct", failures_.count == 0)
                             .field("attempted", attempted_)
                             .field("failed", failures_.count)
                             .raw("metrics", metrics))
                   .str()
            << std::endl;
  return failures_.count == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  ::setenv("MPCSTAB_THREADS", kThreadBudget, 1);
  ::setenv("MPCSTAB_MAX_ENGINES", kMaxEngines, 1);
  const Args args = parse_args(argc, argv);
  Benchmark bench(args);
  return bench.run();
}
