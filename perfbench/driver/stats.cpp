#include "driver/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

TailRank tail_rank(std::size_t n) {
  TailRank t;
  if (n == 0) return t;
  if (n <= 10) {
    t.index = n - 1;
  } else {
    // Nearest rank of the 99th percentile, pulled down until ten samples
    // lie beyond it.
    const auto p99 = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(n)));
    t.index = std::min(p99 - 1, n - 11);
  }
  t.beyond = n - 1 - t.index;
  t.percentile = 100.0 * static_cast<double>(t.index + 1) /
                 static_cast<double>(n);
  return t;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.sum = std::accumulate(values.begin(), values.end(), 0.0);
  s.mean = s.sum / static_cast<double>(s.n);
  s.p50 = s.n % 2 == 1
              ? values[s.n / 2]
              : 0.5 * (values[s.n / 2 - 1] + values[s.n / 2]);
  const TailRank t = tail_rank(s.n);
  s.tail = values[t.index];
  s.max = values.back();
  s.tail_percentile = t.percentile;
  return s;
}

double block_rate(std::vector<double> done_s, std::size_t blocks) {
  blocks = std::min(blocks, done_s.size());
  if (blocks == 0) return 0.0;
  std::sort(done_s.begin(), done_s.end());
  const std::size_t per_block = done_s.size() / blocks;
  std::vector<double> rates;
  double previous_end = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double end = done_s[(b + 1) * per_block - 1];
    const double span = end - previous_end;
    if (span > 0) rates.push_back(static_cast<double>(per_block) / span);
    previous_end = end;
  }
  return summarize(std::move(rates)).p50;
}

double bucket_quantile(const std::vector<std::uint64_t>& buckets, double q) {
  const std::uint64_t total =
      std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
  if (total == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] < rank) {
      cumulative += buckets[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
    const double hi = std::ldexp(1.0, static_cast<int>(i) + 1) - 1.0;
    const double inside = static_cast<double>(rank - cumulative - 1) /
                          static_cast<double>(buckets[i]);
    return lo + (hi - lo) * inside;
  }
  return 0.0;
}

}  // namespace perfbench
