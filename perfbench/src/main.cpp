// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload weak32 --seed 1 --seconds 20 --trace 0
//
// Runs one workload in rounds (one Cluster at a time) until --seconds is
// spent, checks every output, prints each metric by name with its unit, and
// ends with one JSON result line. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer metrics from rounds that alternate
// untraced, traced (a dtrace Collector and a Telemetry attached) and, when
// the workload brings its own observers or checker, detached.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace pb = perfbench;

namespace {

// Keeps a run on a slow host well inside the 180 s limit, whatever the
// sample-count rule asks.
constexpr double kHardCapS = 60.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (f == "--workload") a->workload = v;
    else if (f == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") a->seconds = std::atof(v);
    else if (f == "--trace") a->trace = std::atoi(v);
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

std::vector<double> pooled_wall(const std::vector<pb::Round>& rounds) {
  std::vector<double> v;
  for (const auto& r : rounds) v.insert(v.end(), r.wall_ms.begin(), r.wall_ms.end());
  return v;
}

template <typename F>
double median_over(const std::vector<pb::Round>& rounds, F&& f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return pb::median(v);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double per_exchange(std::uint64_t n, const pb::Round& r) {
  return static_cast<double>(n) / static_cast<double>(std::max<std::size_t>(r.wall_ms.size(), 1));
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t halo_errors = 0;
  std::uint64_t findings = 0;
  std::uint64_t rejections = 0;
  std::vector<std::string> problems;

  // Every round's virtual exchange times must equal the reference: the
  // model is deterministic, and observers cost zero virtual time.
  void add(const std::vector<pb::Round>& rounds, const std::vector<double>& virt_ref,
           const char* phase) {
    for (const auto& r : rounds) {
      attempted += r.attempted;
      failed += r.failed;
      halo_errors += r.halo_errors;
      findings += r.check_findings;
      rejections += r.plan_rejections;
      if (!r.error.empty()) problems.push_back(std::string(phase) + " round threw: " + r.error);
      else if (r.virt_ms != virt_ref) {
        problems.push_back(std::string(phase) + " round's virtual exchange times differ");
      }
    }
  }
};

// Median wall time of each timed iteration index across rounds: shows any
// growth with the exchange count instead of hiding it in a pooled median.
void print_wall_by_iteration(const std::vector<pb::Round>& rounds) {
  std::size_t k = 0;
  for (const auto& r : rounds) k = std::max(k, r.wall_ms.size());
  std::printf("wall ms by timed iteration (median over rounds):");
  for (std::size_t i = 0; i < k; ++i) {
    if (k > 12 && i == 6) {
      std::printf(" ...");
      i = k - 6;
    }
    std::vector<double> v;
    for (const auto& r : rounds) {
      if (i < r.wall_ms.size()) v.push_back(r.wall_ms[i]);
    }
    std::printf(" %.1f", pb::median(v));
  }
  std::printf("\n");
}

// --trace 0: one warm-up round, then measured rounds until the budget is
// spent: at least three (setup_s is their median) and enough samples for ten
// beyond the tail percentile. The warm-up round is the process's cold start
// (its heap grows, its pages fault in); it counts for correctness and gives
// peak_rss_mb, but its times would put a cold cluster into the tail.
std::vector<pb::Metric> end_to_end(const pb::Workload& w, const pb::RoundOptions& opt,
                                   double budget_s, Tally& tally) {
  const std::size_t need = pb::samples_needed(w.tail_pct);
  const double t0 = pb::now_s();
  const pb::Round warm = pb::run_round(w, opt);
  // The peak of a process that ran the workload once: later rounds only add
  // allocator fragmentation that grows with the round count.
  const double peak_rss_mb = pb::read_usage().max_rss_mb;
  std::vector<pb::Round> rounds;
  std::size_t samples = 0;
  while (warm.error.empty()) {
    rounds.push_back(pb::run_round(w, opt));
    samples += rounds.back().wall_ms.size();
    const double used = pb::now_s() - t0;
    if (!rounds.back().error.empty() || used > kHardCapS) break;
    if (rounds.size() >= 3 && samples >= need && used + rounds.back().run_s > budget_s) break;
  }
  const std::vector<double>& virt = warm.virt_ms;
  tally.add({warm}, virt, "warm-up");
  tally.add(rounds, virt, "untraced");
  if (rounds.empty()) return {};
  const std::vector<double> wall = pooled_wall(rounds);
  std::printf("warm-up round: setup %.3f s, run %.3f s, wall median %.1f ms\n", warm.setup_s,
              warm.run_s, pb::median(warm.wall_ms));
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const pb::Round& r = rounds[i];
    std::printf("round %zu: setup %.3f s, run %.3f s, wall median %.1f ms\n", i, r.setup_s,
                r.run_s, pb::median(r.wall_ms));
  }
  print_wall_by_iteration(rounds);
  std::printf("rounds %zu; wall samples %zu, tail = p%.0f with %zu beyond; virtual samples %zu "
              "per round, identical in every round\n",
              rounds.size(), wall.size(), w.tail_pct, pb::samples_beyond(wall.size(), w.tail_pct),
              virt.size());
  return {
      {"virt_exchange_ms.median", pb::median(virt), "virt_ms"},
      {"virt_exchange_ms.p90", pb::percentile(virt, 90), "virt_ms"},
      {"wall_exchange_ms.median", pb::median(wall), "ms"},
      {"wall_exchange_ms.tail", pb::percentile(wall, w.tail_pct), "ms"},
      {"setup_s", median_over(rounds, [](const pb::Round& r) { return r.setup_s; }), "s"},
      {"run_s", median_over(rounds, [](const pb::Round& r) { return r.run_s; }), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// --trace 1: one traced round that also makes the in-engine layer calls
// (it doubles as the process warm-up and is kept out of the wall ratios),
// then cycles of untraced, traced and (for workloads with their own
// observers or checker) detached rounds, so drift hits every kind alike.
std::vector<pb::Metric> per_layer(const pb::Workload& w, const pb::RoundOptions& opt,
                                  double budget_s, Tally& tally) {
  const bool twin = w.observers || w.checker;
  pb::RoundOptions traced_opt = opt;
  traced_opt.traced = true;
  pb::RoundOptions detached_opt = opt;
  detached_opt.detach_observers = true;

  const double t0 = pb::now_s();
  traced_opt.layer_calls = true;
  const pb::Round first = pb::run_round(w, traced_opt);
  traced_opt.layer_calls = false;
  std::vector<pb::Round> plain;
  std::vector<pb::Round> traced;
  std::vector<pb::Round> detached;
  while (first.error.empty()) {
    const double c0 = pb::now_s();
    plain.push_back(pb::run_round(w, opt));
    traced.push_back(pb::run_round(w, traced_opt));
    if (twin) detached.push_back(pb::run_round(w, detached_opt));
    const double used = pb::now_s() - t0;
    const bool failed = !plain.back().error.empty() || !traced.back().error.empty() ||
                        (twin && !detached.back().error.empty());
    if (failed || used > kHardCapS || used + (pb::now_s() - c0) > budget_s) break;
  }
  const std::vector<double>& virt = first.virt_ms;
  tally.add({first}, virt, "traced");
  tally.add(plain, virt, "untraced");
  tally.add(traced, virt, "traced");
  tally.add(detached, virt, "detached");
  std::printf("rounds: 1 traced with layer calls, then %zu untraced, %zu traced, %zu detached\n",
              plain.size(), traced.size(), detached.size());
  if (plain.empty() || traced.empty()) return {};

  const pb::Round& t = traced.back();
  const pb::Round& p = plain.back();
  const double wall_plain = pb::median(pooled_wall(plain));
  const double wall_traced = pb::median(pooled_wall(traced));
  const double wall_detached = twin ? pb::median(pooled_wall(detached)) : wall_plain;
  const auto per_plain = [&](auto f) {
    return median_over(plain, [&](const pb::Round& r) {
      return f(r) / static_cast<double>(std::max<std::size_t>(r.wall_ms.size(), 1));
    });
  };
  const pb::LayerCalls calls = pb::time_layer_calls(w);
  if (!t.has_critical_path) tally.problems.push_back("traced round produced no critical path");

  std::vector<pb::Metric> m = {
      {"simtime.handoffs_per_exchange", per_exchange(t.handoffs, t), "count"},
      {"simtime.events_per_exchange", per_exchange(t.events, t), "count"},
      {"simtime.max_run_queue", static_cast<double>(t.max_run_queue), "count"},
      {"simtime.us_per_handoff",
       median_over(plain,
                   [](const pb::Round& r) {
                     return ratio(r.timed_wall_s * 1e6, static_cast<double>(r.handoffs));
                   }),
       "us"},
      {"proc.user_ms_per_exchange",
       per_plain([](const pb::Round& r) { return r.usage_delta.user_s * 1e3; }), "ms"},
      {"proc.sys_ms_per_exchange",
       per_plain([](const pb::Round& r) { return r.usage_delta.sys_s * 1e3; }), "ms"},
      {"proc.os_ctx_switches_per_exchange",
       per_plain([](const pb::Round& r) {
         return static_cast<double>(r.usage_delta.ctx_switches);
       }),
       "count"},
      // From the process's first round: later rounds reuse freed heap, so
      // only a fresh heap shows the memory the exchanges take.
      {"proc.rss_mb_per_exchange",
       first.rss_growth_mb / static_cast<double>(std::max(w.iterations - 1, 1)), "MB"},
      {"simpi.messages_per_exchange", per_exchange(t.mpi_messages, t), "count"},
      {"simpi.bytes_per_exchange", per_exchange(t.mpi_bytes, t), "B"},
      {"simpi.retries", static_cast<double>(t.mpi_retries), "count"},
      {"vgpu.ops_per_exchange", per_exchange(t.vgpu_ops, t), "count"},
      {"vgpu.graph_launches_per_exchange", per_exchange(t.graph_launches, t), "count"},
      {"vgpu.buffers", static_cast<double>(t.buffers), "count"},
      {"vgpu.bytes_per_exchange", per_exchange(t.vgpu_bytes, t), "B"},
      // Computed: modelled payload bytes per exchange over measured wall
      // time, counted only where the payload really moves (materialized).
      {"vgpu.host_gb_per_s",
       w.materialized ? ratio(per_exchange(t.vgpu_bytes, t) / 1e9, wall_plain * 1e-3) : 0.0,
       "GB/s"},
      {"core.cluster_ctor_s",
       median_over(plain, [](const pb::Round& r) { return r.cluster_ctor_s; }), "s"},
      {"core.realize_s", median_over(plain, [](const pb::Round& r) { return r.realize_s; }), "s"},
      {"core.warmup_exchange_s",
       median_over(plain, [](const pb::Round& r) { return r.warmup_exchange_s; }), "s"},
      {"core.partition_ms", calls.partition_ms, "ms"},
      {"core.placement_ms", calls.placement_ms, "ms"},
      {"qap.solve_ms", calls.qap_solve_ms, "ms"},
  };
  std::uint64_t transfers = 0;
  for (const auto& [name, n] : p.method_messages) transfers += n;
  m.push_back({"core.transfers_per_exchange", per_exchange(transfers, p), "count"});
  for (const char* method : {"kernel", "peer", "colocated", "cuda_aware", "staged"}) {
    const auto n = p.method_messages.find(method);
    const auto b = p.method_bytes.find(method);
    m.push_back({std::string("core.method_transfers.") + method,
                 per_exchange(n != p.method_messages.end() ? n->second : 0, p), "count"});
    m.push_back({std::string("core.method_bytes.") + method,
                 per_exchange(b != p.method_bytes.end() ? b->second : 0, p), "B"});
  }
  const std::vector<pb::Metric> rest = {
      {"plan.compiles", static_cast<double>(t.plan_compiles), "count"},
      {"plan.replays", static_cast<double>(t.plan_replays), "count"},
      {"plan.hits", static_cast<double>(t.plan_hits), "count"},
      {"plan.verifications", static_cast<double>(t.plan_verifications), "count"},
      {"plan.rejections", static_cast<double>(tally.rejections), "count"},
      {"verify.plan_ms", first.verify_plan_ms, "ms"},
      {"check.findings", static_cast<double>(tally.findings), "count"},
      {"check.hb_edges_per_exchange", per_exchange(t.hb_edges, t), "count"},
      {"check.overhead_x", w.checker ? ratio(wall_plain, wall_detached) : 0.0, "x"},
      {"round.wall_growth_x",
       median_over(plain,
                   [](const pb::Round& r) {
                     return r.wall_ms.empty() ? 0.0 : ratio(r.wall_ms.back(), r.wall_ms.front());
                   }),
       "x"},
      {"dtrace.spans_per_exchange", per_exchange(t.spans, t), "count"},
      {"dtrace.critical_path_ms", t.crit_busy_ms + t.crit_wait_ms, "virt_ms"},
      {"explain.records", static_cast<double>(t.explain_records), "count"},
      {"watch.incidents", static_cast<double>(t.watch_incidents), "count"},
      {"observers.overhead_x", ratio(wall_traced, wall_detached), "x"},
      {"trace.overhead_x", ratio(wall_traced, wall_plain), "x"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* lane : {"cpu", "kernel", "d2h", "h2d", "peer", "wire"}) {
    const auto it = t.crit_lane_ms.find(lane);
    m.push_back({std::string("virt.crit.") + lane + "_ms",
                 it != t.crit_lane_ms.end() ? it->second : 0.0, "virt_ms"});
  }
  m.push_back({"virt.crit.wait_ms", t.crit_wait_ms, "virt_ms"});
  m.push_back({"virt.overlap_efficiency", t.overlap_efficiency, "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]\n"
                 "workloads:");
    for (const auto& w : pb::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const pb::Workload* found = pb::find_workload(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const pb::Workload w = a.tiny ? pb::tiny(*found) : *found;
  std::printf("perfbench %s: %dn x %dr, %lld^3, radius %d, %d quantities, %s, %s%s%s; seed %llu, "
              "%d timed exchanges per round, trace %d\n",
              w.name.c_str(), w.nodes, w.ranks_per_node, static_cast<long long>(w.edge), w.radius,
              w.quantities, w.persistent ? "persistent" : "eager",
              w.materialized ? "materialized" : "phantom", w.checker ? ", checker" : "",
              w.observers ? ", observers" : "", static_cast<unsigned long long>(a.seed),
              w.iterations, a.trace);
  std::fflush(stdout);

  pb::RoundOptions opt;
  opt.seed = a.seed;
  Tally tally;
  const std::vector<pb::Metric> metrics =
      a.trace == 0 ? end_to_end(w, opt, a.seconds, tally) : per_layer(w, opt, a.seconds, tally);

  for (const auto& m : metrics) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double error_rate =
      ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted));
  std::printf("checks: %llu exchanges, %llu failed (error_rate %.6f), %lld halo mismatches, "
              "%llu checker findings, %llu plan rejections\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), error_rate,
              static_cast<long long>(tally.halo_errors),
              static_cast<unsigned long long>(tally.findings),
              static_cast<unsigned long long>(tally.rejections));
  for (const auto& p : tally.problems) std::printf("problem: %s\n", p.c_str());
  const bool correct = tally.failed == 0 && tally.problems.empty() && !metrics.empty();
  std::printf("%s\n", pb::result_json(correct, std::max<std::uint64_t>(tally.attempted, 1),
                                      tally.failed, metrics)
                          .c_str());
  return 0;
}
