// Self-tests of the benchmark's own helpers, and a tiny smoke run of every
// workload so a broken workload fails in seconds rather than mid-benchmark.
// Run through `python3 perfbench/run.py --self-test`; exits non-zero on any
// failure.
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentiles() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  expect(pb::percentile(ten, 50) == 5.0, "nearest-rank p50 of 1..10 is 5");
  expect(pb::percentile(ten, 90) == 9.0, "nearest-rank p90 of 1..10 is 9");
  expect(pb::percentile(ten, 100) == 10.0, "nearest-rank p100 is the maximum");
  expect(pb::percentile(ten, 1) == 1.0, "nearest-rank p1 of 10 samples is the minimum");
  expect(pb::median(ten) == 5.0, "median is the nearest-rank p50");
  expect(pb::percentile({}, 90) == 0.0, "empty sample gives 0");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(pb::percentile(hundred, 90) == 90.0, "p90 of 1..100 is 90, not 91");
  expect(pb::samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  expect(pb::samples_beyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  expect(pb::samples_needed(90) == 100, "p90 needs 100 samples for 10 beyond");
  expect(pb::samples_needed(50) == 20, "p50 needs 20 samples for 10 beyond");
  expect(pb::samples_needed(95) == 200, "p95 needs 200 samples for 10 beyond");
  expect(pb::samples_beyond(0, 90) == 0, "no samples, none beyond");
}

void test_readers() {
  const pb::Usage u0 = pb::read_usage();
  const double rss0 = pb::read_rss_mb();
  volatile double sink = 0.0;
  const double t0 = pb::now_s();
  while (pb::now_s() - t0 < 0.05) sink = sink + 1.0;
  std::vector<char> block(64u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = static_cast<char>(i);
  const pb::Usage u1 = pb::read_usage();
  const double rss1 = pb::read_rss_mb();
  expect(u1.user_s + u1.sys_s > u0.user_s + u0.sys_s, "getrusage CPU time grows while busy");
  expect(u1.ctx_switches >= u0.ctx_switches, "context switch count never decreases");
  expect(rss0 > 0.0, "statm resident set is positive");
  expect(rss1 - rss0 > 48.0, "resident set grows by a touched 64 MiB block");
  expect(u1.max_rss_mb >= rss1 - 1.0, "peak resident set covers the current one");
  expect(block[4096] == static_cast<char>(4096), "touched block keeps its data");
}

void test_result_line() {
  const std::string s = pb::result_json(true, 3, 0, {{"a_ms", 0.1, "ms"}, {"n", 2, "count"}});
  expect(s == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": "
              "{\"value\": 0.1, \"unit\": \"ms\"}, \"n\": {\"value\": 2, \"unit\": \"count\"}}}",
         "result line format: " + s);
}

void test_fill() {
  const float a = pb::fill_value(7, 1, 2, 3, 0);
  expect(a == pb::fill_value(7, 1, 2, 3, 0), "fill is a function of its inputs");
  expect(a != pb::fill_value(8, 1, 2, 3, 0), "fill depends on the seed");
  expect(a != pb::fill_value(7, 1, 2, 3, 1), "fill depends on the quantity");
  bool exact = true;
  for (int x = -4; x < 64; ++x) {
    const float v = pb::fill_value(3, x, x * 7, -x, x & 3);
    exact = exact && v >= 0.0f && v < 16777216.0f && v == static_cast<float>(static_cast<long>(v));
  }
  expect(exact, "fill values are integers below 2^24 (exact in f32)");
}

void smoke(const pb::Workload& full) {
  const pb::Workload w = pb::tiny(full);
  pb::RoundOptions opt;
  opt.seed = 5;
  const pb::Round plain = pb::run_round(w, opt);
  opt.traced = true;
  opt.layer_calls = true;
  const pb::Round traced = pb::run_round(w, opt);
  const std::string n = "smoke " + w.name + ": ";
  expect(plain.error.empty() && traced.error.empty(),
         n + "rounds complete " + plain.error + " " + traced.error);
  expect(plain.failed == 0 && traced.failed == 0, n + "no failed exchanges");
  expect(plain.attempted == static_cast<std::uint64_t>(w.iterations) + 1,
         n + "warm-up plus every timed exchange attempted");
  expect(plain.wall_ms.size() == static_cast<std::size_t>(w.iterations) &&
             plain.virt_ms.size() == plain.wall_ms.size(),
         n + "one wall and one virtual sample per timed exchange");
  expect(!plain.virt_ms.empty() && plain.virt_ms.front() > 0.0, n + "virtual time advances");
  expect(plain.virt_ms == traced.virt_ms, n + "traced virtual times equal untraced ones");
  expect(plain.setup_s > 0.0 && plain.run_s >= plain.setup_s, n + "setup within the round");
  expect(traced.has_critical_path && traced.crit_busy_ms > 0.0, n + "traced critical path");
  expect(traced.verify_plan_ms > 0.0, n + "verify_plan timed");
  expect(traced.handoffs > 0 && traced.vgpu_ops > 0, n + "engine and runtime counters move");
  if (w.nodes > 1) expect(traced.mpi_messages > 0, n + "MPI messages counted");
  std::uint64_t bytes = 0;
  for (const auto& [m, b] : plain.method_bytes) bytes += b;
  expect(bytes > 0, n + "exchanges move halo bytes");
  if (w.checker) expect(plain.hb_edges > 0, n + "checker logs happens-before edges");
  if (w.observers) expect(plain.explain_records > 0, n + "explain ledger records decisions");
  if (w.persistent) expect(plain.plan_replays > 0, n + "compiled plan replays");
}

}  // namespace

int main() {
  test_percentiles();
  test_readers();
  test_result_line();
  test_fill();
  for (const auto& w : pb::workloads()) smoke(w);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
