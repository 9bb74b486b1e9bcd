// Response validation for the query-service benchmark: every response the
// driver receives is checked here before it counts as served.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "driver/workload.h"

namespace perfbench {

/// What a correct response to one planned request must show.
struct Expectation {
  const Planned* planned = nullptr;
  std::string_view x_cache;  ///< "hit", "miss" or "bypass"
  /// Connectivity: the component count of the driver's own BFS.
  std::optional<std::uint64_t> components;
};

/// Failed responses and cross-check mismatches, counted from many threads;
/// the first reason is kept.
struct Failures {
  std::mutex mutex;
  std::uint64_t count = 0;
  std::string first;

  void add(std::string what) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (count++ == 0) first = std::move(what);
  }
};

/// A validated response, reduced to what cross-checks compare.
struct Verdict {
  bool ok = false;
  std::string reason;        ///< why !ok
  std::string body;          ///< the response body
  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
  std::string answer;        ///< the answer object, verbatim
};

/// Checks one raw HTTP response: status 200, framing (Content-Length equals
/// the body actually received, so truncation fails), X-Cache, the result
/// event schema and the op's answer invariants (component count, proper
/// coloring, independent set, simulation and seed counts).
Verdict validate(std::string_view wire, const Expectation& expect);

/// What an in-process replay and a daemon response must agree on: the
/// answer, rounds and words. The native backend's answer carries effort
/// counters that depend on scheduling, so only its component count is kept.
std::string comparable(const Planned& p, std::string_view answer,
                       std::uint64_t rounds, std::uint64_t words);

/// The answer object of a gateway result body (verbatim).
std::optional<std::string> answer_of(std::string_view body);

/// Component count of a request's graph by breadth-first search over the
/// service's own generator (service::build_graph).
std::uint64_t bfs_components(std::string_view request_body);

}  // namespace perfbench
