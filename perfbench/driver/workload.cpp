#include "driver/workload.h"

#include <array>

#include "rng/splitmix.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kHotKeys = 256;
constexpr std::array<const char*, 5> kHotOps = {
    "connectivity", "coloring", "mis", "lifting", "sensitivity"};

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Small graph (<= 512 nodes) for hot_cache key `v`. mis keeps to cycles,
/// paths and grids: its LOCAL rounds overflow the local space on trees and
/// on small regular graphs.
std::string hot_graph(std::string_view op, std::uint64_t v) {
  const std::uint64_t n = 64 + 32 * (v % 14);  // 64 .. 480
  switch (op == "mis" ? v % 3 : v % 5) {
    case 0: return R"({"type":"cycle","n":)" + num(n) + "}";
    case 1: return R"({"type":"path","n":)" + num(n) + "}";
    case 2:
      return R"({"type":"grid","rows":)" + num(8 + v % 8) + R"(,"cols":16})";
    case 3:
      return R"({"type":"regular","n":)" + num(n) + R"(,"degree":4,"seed":)" +
             num(1 + v) + "}";
    default:
      return R"({"type":"tree","n":)" + num(n) + R"(,"seed":)" + num(1 + v) +
             "}";
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot_cache") return Workload::kHotCache;
  if (name == "cold_local") return Workload::kColdLocal;
  if (name == "cold_exchange") return Workload::kColdExchange;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kHotCache: return "hot_cache";
    case Workload::kColdLocal: return "cold_local";
    case Workload::kColdExchange: return "cold_exchange";
  }
  return "?";
}

unsigned connections(Workload w) {
  switch (w) {
    case Workload::kHotCache: return 2;
    case Workload::kColdLocal: return 4;
    case Workload::kColdExchange: return 1;
  }
  return 1;
}

Stream::Stream(Workload w, std::uint64_t seed, std::uint32_t run_index)
    : workload_(w) {
  // Seeds stay below 2^53 (the service parses JSON numbers as doubles):
  // 20 mixed bits of the workload seed, 8 bits of run index, then 24 bits
  // of request offset, so requests of different run indices never share a
  // seed and hence never a cache key.
  const std::uint64_t mixed = mpcstab::splitmix64(seed) & 0xFFFFFu;
  seed_base_ = ((mixed << 8) | (run_index & 0xFFu)) << 24;
}

std::uint64_t Stream::templates() const {
  switch (workload_) {
    case Workload::kHotCache: return kHotKeys;
    case Workload::kColdLocal: return 5;
    case Workload::kColdExchange: return 3;
  }
  return 1;
}

Planned Stream::at(std::uint64_t i) const {
  Planned p;
  p.key = i % templates();
  // hot_cache repeats its keys; cold requests are all distinct.
  const std::uint64_t seed =
      seed_base_ + (workload_ == Workload::kHotCache ? p.key : i) + 1;
  const std::string tail = R"(,"seed":)" + num(seed) + "}";
  switch (workload_) {
    case Workload::kHotCache: {
      p.op = kHotOps[p.key % kHotOps.size()];
      const std::uint64_t v = p.key / kHotOps.size();
      if (p.op == "lifting") {
        p.simulations = 4;
        p.body = R"({"op":"lifting","graph":{"type":"path","n":)" +
                 num(64 + 32 * (v % 14)) + R"(},"radius":3,"simulations":4)" +
                 tail;
      } else if (p.op == "sensitivity") {
        p.seeds = 4 + v % 4;
        p.body = R"({"op":"sensitivity","radius":)" + num(2 + v % 2) +
                 R"(,"seeds":)" + num(p.seeds) + tail;
      } else {
        p.body = R"({"op":")" + p.op + R"(","graph":)" + hot_graph(p.op, v) +
                 tail;
      }
      break;
    }
    case Workload::kColdLocal: {
      static constexpr std::array<const char*, 5> kMix = {
          R"({"op":"connectivity","graph":{"type":"grid","rows":48,"cols":48})",
          R"({"op":"mis","graph":{"type":"regular","n":2048,"degree":4,"seed":7})",
          R"({"op":"lifting","graph":{"type":"path","n":512},"radius":3,"simulations":8)",
          R"({"op":"coloring","graph":{"type":"cycle","n":512})",
          R"({"op":"connectivity","backend":"native","graph":{"type":"grid","rows":48,"cols":48})",
      };
      static constexpr std::array<const char*, 5> kOps = {
          "connectivity", "mis", "lifting", "coloring", "connectivity"};
      p.op = kOps[p.key];
      if (p.key == 2) p.simulations = 8;
      if (p.key == 4) p.backend = "native";
      p.body = kMix[p.key] + tail;
      break;
    }
    case Workload::kColdExchange: {
      static constexpr std::array<const char*, 3> kGraphs = {
          R"({"type":"cycle","n":256})",
          R"({"type":"grid","rows":24,"cols":24})",
          R"({"type":"random","n":2048,"p":0.002,"seed":11})",
      };
      p.op = "connectivity";
      p.backend = "mpc-native";
      p.body = std::string(R"({"op":"connectivity","backend":"mpc-native","graph":)") +
               kGraphs[p.key] + tail;
      break;
    }
  }
  return p;
}

std::string http_post(std::string_view body) {
  std::string wire =
      "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";
  wire.append(body);
  return wire;
}

}  // namespace perfbench
