#pragma once

// Measurement helpers of the benchmark: order statistics over samples,
// process resource readers, and the one-line JSON result writer. They read
// the process from outside the library; nothing here touches virtual time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample
/// (1-based), p in (0, 100]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Nearest-rank median (the 50th percentile above).
double median(std::vector<double> v);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// of n samples: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The sample-count rule: the fewest samples for which the nearest-rank
/// p-th percentile has at least `tail` samples beyond it.
std::size_t samples_needed(double p, std::size_t tail = 10);

/// getrusage(RUSAGE_SELF) in the units the benchmark reports. Covers every
/// thread of the process.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0.0;        // peak resident set of the process so far
};
Usage read_usage();

/// Current resident set of the process, from /proc/self/statm (0 when the
/// file cannot be read).
double read_rss_mb();

/// Seconds on std::chrono::steady_clock since an arbitrary fixed origin.
double now_s();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}. Values keep all their
/// digits (shortest round-trip form).
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
