// Tests of the benchmark's own logic: the tail-percentile rule, request
// stream determinism, and response validation. Run with
// `ctest --test-dir <build dir>` or the perfbench_test binary directly.
#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "driver/stats.h"
#include "driver/validate.h"
#include "driver/workload.h"
#include "obs/registry.h"
#include "service/gateway.h"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond    \
                << ") failed\n";                                      \
    }                                                                 \
  } while (0)

void test_tail_rule() {
  // With enough samples the rule is the nearest-rank 99th percentile.
  CHECK(tail_rank(1000).index == 989);
  CHECK(tail_rank(1000).beyond == 10);
  CHECK(tail_rank(1000).percentile == 99.0);
  CHECK(tail_rank(5000).index == 4949);
  CHECK(tail_rank(5000).beyond == 50);
  // Fewer than 1000: the highest percentile with ten samples beyond it.
  CHECK(tail_rank(300).index == 289);
  CHECK(tail_rank(300).beyond == 10);
  CHECK(tail_rank(300).percentile < 99.0);
  CHECK(tail_rank(11).index == 0);
  CHECK(tail_rank(11).beyond == 10);
  // Ten or fewer: no percentile qualifies; the maximum is reported.
  CHECK(tail_rank(10).index == 9);
  CHECK(tail_rank(10).beyond == 0);
  for (std::size_t n = 11; n < 3000; ++n) CHECK(tail_rank(n).beyond >= 10);

  std::vector<double> values;
  for (int i = 300; i >= 1; --i) values.push_back(i);
  const Summary s = summarize(values);
  CHECK(s.n == 300);
  CHECK(s.p50 == 150.5);
  CHECK(s.tail == 290.0);
  CHECK(summarize({3, 1, 2}).p50 == 2.0);

  // Block throughput ignores a stall that a whole-run average would absorb:
  // 100 completions at 10/s with a 5 s pause in the middle.
  std::vector<double> done;
  for (int i = 1; i <= 100; ++i) done.push_back(0.1 * i + (i > 50 ? 5.0 : 0.0));
  CHECK(std::abs(block_rate(done, 20) - 10.0) < 1e-9);
  CHECK(block_rate({}, 20) == 0.0);
  CHECK(block_rate({0.5}, 20) == 2.0);

  // The daemon-histogram quantile matches the registry's own estimate.
  mpcstab::obs::Histogram h;
  std::vector<std::uint64_t> buckets(64, 0);
  for (std::uint64_t v = 1; v < 100000; v = v * 3 + 7) {
    h.observe(v);
    std::size_t b = 0;
    while ((std::uint64_t{2} << b) <= v) ++b;
    ++buckets[b];
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double mine = bucket_quantile(buckets, q);
    const double theirs = static_cast<double>(h.quantile(q));
    CHECK(std::abs(mine - theirs) < 1.0 ||
          theirs == static_cast<double>(h.max()));
  }
}

void test_streams() {
  for (const Workload w : {Workload::kHotCache, Workload::kColdLocal,
                           Workload::kColdExchange}) {
    const Stream a(w, 42, kMeasuredRun), again(w, 42, kMeasuredRun);
    const Stream other_run(w, 42, kSetupRun), other_seed(w, 43, kMeasuredRun);
    std::set<std::string> bodies;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      const std::string body = a.at(i).body;
      CHECK(body == again.at(i).body);
      CHECK(http_post(body) == http_post(again.at(i).body));
      CHECK(body != other_run.at(i).body);
      CHECK(body != other_seed.at(i).body);
      bodies.insert(body);
    }
    // Cold requests never repeat; hot_cache cycles through its 256 keys.
    CHECK(bodies.size() == (w == Workload::kHotCache ? 256u : 2000u));
  }
}

std::string replace_first(std::string s, const std::string& from,
                          const std::string& to) {
  const std::size_t at = s.find(from);
  if (at != std::string::npos) s.replace(at, from.size(), to);
  return s;
}

void test_validation() {
  const Stream stream(Workload::kHotCache, 7, kMeasuredRun);
  const Planned p = stream.at(0);  // connectivity on a cycle
  CHECK(p.op == "connectivity");
  mpcstab::service::Gateway gateway((mpcstab::service::GatewayOptions()));
  mpcstab::service::HttpRequest http;
  http.method = "POST";
  http.target = "/v1/query";
  http.version = "HTTP/1.1";
  http.body = p.body;
  const std::string wire = gateway.handle(http).serialize();
  const Expectation expect{&p, "miss", bfs_components(p.body)};
  CHECK(*expect.components == 1);

  const Verdict ok = validate(wire, expect);
  CHECK(ok.ok);
  CHECK(ok.answer.find("\"components\":1") != std::string::npos);
  CHECK(comparable(p, ok.answer, ok.rounds, ok.words) ==
        ok.answer + "|" + std::to_string(ok.rounds) + "|" +
            std::to_string(ok.words));

  // Truncated: the body is shorter than its Content-Length.
  CHECK(!validate(wire.substr(0, wire.size() - 5), expect).ok);
  CHECK(!validate(wire.substr(0, wire.find("\r\n\r\n")), expect).ok);
  CHECK(!validate("", expect).ok);
  // Corrupted: broken JSON, a wrong answer, a wrong status or cache state.
  const std::size_t body_at = wire.find("\r\n\r\n") + 4;
  std::string broken = wire;
  broken[body_at] = 'x';
  CHECK(!validate(broken, expect).ok);
  CHECK(!validate(replace_first(wire, "\"components\":1", "\"components\":2"),
                  expect)
             .ok);
  CHECK(!validate(replace_first(wire, "\"ok\":true", "\"ok\":fals"), expect).ok);
  CHECK(!validate(replace_first(wire, "200 OK", "500 Internal Server Error"),
                  expect)
             .ok);
  CHECK(!validate(wire, Expectation{&p, "hit", expect.components}).ok);
  CHECK(!validate(wire, Expectation{&p, "miss", 2}).ok);
}

}  // namespace

int main() {
  test_tail_rule();
  test_streams();
  test_validation();
  if (failures == 0) std::cout << "perfbench_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
