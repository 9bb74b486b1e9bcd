// Request streams of the query-service benchmark.
//
// A stream is a pure function of (workload, workload seed, run index): the
// i-th request of a stream is the same byte string on every machine and
// every run, so the daemon under load and the in-process replay see
// identical traffic. The run index separates the phases of one benchmark
// run (setup warm-up, measured traffic): request seeds are unique per run
// index, because re-sending a request to a warm daemon silently turns its
// cache miss into a hit.
//
// Workloads (connection counts are the closed-loop client count):
//   hot_cache      2 connections, round-robin over 256 cacheable requests on
//                  small graphs (all five engine ops); setup warms every key,
//                  so every measured response is a cache hit.
//   cold_local     4 connections, every request a miss: hash-to-min
//                  connectivity on a 48x48 grid, mis on a 4-regular n=2048
//                  graph, lifting on a path n=512, coloring on a cycle
//                  n=512, native connectivity on the grid.
//   cold_exchange  1 connection, mpc-native connectivity misses on a cycle
//                  n=256, a 24x24 grid and a random n=2048 p=0.002 graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

enum class Workload : std::uint8_t { kHotCache, kColdLocal, kColdExchange };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload w);

/// Closed-loop client connections (and in-process replay threads).
unsigned connections(Workload w);

/// Run indices of the phases of one benchmark run.
inline constexpr std::uint32_t kSetupRun = 0;     ///< warm-up requests
inline constexpr std::uint32_t kMeasuredRun = 1;  ///< measured traffic

/// One request of a stream plus what a correct response must show.
struct Planned {
  std::string body;            ///< the request JSON document
  std::string op;
  std::string backend = "mpc";
  std::uint64_t key = 0;       ///< hot_cache: key index; cold: mix slot
  std::uint64_t simulations = 0;  ///< lifting: requested simulations
  std::uint64_t seeds = 0;        ///< sensitivity: requested seed count
  bool cacheable() const { return backend != "native"; }
};

class Stream {
 public:
  Stream(Workload w, std::uint64_t seed, std::uint32_t run_index);

  /// The i-th request (i < 2^24).
  Planned at(std::uint64_t i) const;

  /// Distinct request shapes: hot_cache keys, or cold mix slots.
  std::uint64_t templates() const;

  Workload workload() const { return workload_; }

 private:
  Workload workload_;
  std::uint64_t seed_base_;  ///< request seeds are seed_base_ + offset
};

/// The full HTTP/1.1 request bytes the client sends for `body`.
std::string http_post(std::string_view body);

}  // namespace perfbench
