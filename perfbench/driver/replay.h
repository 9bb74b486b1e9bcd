// The traced run's in-process replay: the measured request stream driven
// through the service's public entry points inside the driver process, with
// a timer around each layer's call. Spans inside the program are not used
// beyond what it already records (the engine span tree of a captured run
// and the obs registry counters).
//
// Two passes over the same stream indices, each with the workload's thread
// count and its own fresh cache:
//   untraced  Gateway::handle per request, as the daemon's session thread
//             calls it; gives gateway.handle_us and the untraced rate.
//   traced    the same work decomposed into its layer calls
//             (HttpRequestParser::feed, parse_request, canonical_request,
//             ResultCache lookup/insert, service::execute with a captured
//             span tree, HttpResponse::serialize), each timed.
// Then a few serial probes time graph building and job-pool acquisition,
// which happen inside service::execute.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/stats.h"
#include "driver/workload.h"

namespace perfbench {

struct ReplayResult {
  // Untraced pass.
  std::uint64_t untraced_requests = 0;
  double untraced_rps = 0.0;
  Summary handle_us;

  // Traced pass.
  std::uint64_t traced_requests = 0;
  double traced_rps = 0.0;
  Summary http_parse_us, parse_us, canonical_us, cache_lookup_us,
      cache_insert_us, execute_us, serialize_us, response_bytes,
      execute_on_us;
  double layer_us_per_request = 0.0;  ///< mean sum of the timed layer calls
  std::uint64_t cache_lookups = 0, cache_hits = 0;
  std::uint64_t rounds = 0;           ///< sum of ExecResult rounds
  /// Engine span self time (us), summed over the traced pass, by span name.
  std::map<std::string, double> self_us;
  /// Registry deltas over the traced pass (counters; histogram counts and
  /// sums as "<name>.count" / "<name>.sum").
  std::map<std::string, std::uint64_t> registry;

  // Probes.
  Summary graph_build_us, pool_acquire_us, graph_edges;

  /// (stream index, comparable(...)) of every engine response computed
  /// in process, for the cross-check against the daemon.
  std::vector<std::pair<std::uint64_t, std::string>> comparables;
  std::uint64_t failures = 0;
  std::string first_failure;
};

/// Runs both passes for `seconds` each. hot_cache warms both passes' caches
/// with every key first (comparables of the warm-up land under index=key).
ReplayResult replay(const Stream& stream, double seconds);

/// Serial in-process execution of stream indices [0, count): comparables
/// for the cross-check of a run without the traced replay.
std::vector<std::pair<std::uint64_t, std::string>> replay_sample(
    const Stream& stream, std::uint64_t count, std::string* failure);

}  // namespace perfbench
