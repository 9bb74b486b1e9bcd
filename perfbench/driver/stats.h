// Sample statistics for the query-service benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The tail percentile a sample of `n` values can support: the highest
/// percentile, at most the 99th, with at least ten samples beyond it. Its
/// nearest-rank index into the sorted sample is `index`; `beyond` samples
/// are larger-ranked. A sample of ten or fewer values has no such
/// percentile: the rule then returns its maximum with `beyond` < 10.
struct TailRank {
  std::size_t index = 0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
TailRank tail_rank(std::size_t n);

/// Summary of one timing sample (any unit).
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;    ///< median (midpoint of the two middle values)
  double tail = 0.0;   ///< value at tail_rank
  double tail_percentile = 0.0;
  double max = 0.0;
  double sum = 0.0;
};
Summary summarize(std::vector<double> values);

/// Completions per second, robust to short stalls: the sorted completion
/// times (seconds since the start) are cut into `blocks` runs of equal
/// count, each block's rate is its count over the time since the previous
/// block ended, and the median block rate is returned. Fewer completions
/// than blocks use one completion per block; none gives 0.
double block_rate(std::vector<double> done_s, std::size_t blocks);

/// Nearest-rank quantile of a pow2-bucketed histogram, interpolated inside
/// the landing bucket exactly as obs::Histogram::quantile does; `buckets[i]`
/// counts values in [2^i, 2^(i+1)) (bucket 0 holds 0 and 1).
double bucket_quantile(const std::vector<std::uint64_t>& buckets, double q);

}  // namespace perfbench
