#pragma once

// The benchmark's workloads and the round that runs one of them. A round is
// one complete run of a workload: construct a Cluster, realize, one untimed
// warm-up exchange, a fixed number of timed exchanges, the correctness
// checks, and teardown. The benchmark repeats rounds, one Cluster at a
// time, until its time budget is spent.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Workload {
  std::string name;
  int nodes = 1;
  int ranks_per_node = 6;
  std::int64_t edge = 0;   // cubic domain edge, grid points
  int radius = 3;
  int quantities = 4;      // f32 quantities
  bool persistent = false; // compiled plans (set_persistent + set_verify_plans)
  bool materialized = false;
  // check::Checker attached; each iteration also fills, exchanges and checks
  // every halo, as examples/check_exchange does.
  bool checker = false;
  bool observers = false;  // dtrace Collector, Telemetry, Watch, explain Ledger
  int iterations = 1;      // timed exchanges per round
  // Wall-time tail percentile: the highest whole-5 percentile that keeps at
  // least ten samples beyond it in a 20 s run (three measured rounds).
  double tail_pct = 90;
};

/// The four workloads, in the order the benchmark documents them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The same workload at a size that runs in well under a second, for the
/// self-test smoke runs: fewer nodes, a small domain, two timed exchanges.
Workload tiny(const Workload& w);

/// What to attach on top of the workload's own configuration.
struct RoundOptions {
  std::uint64_t seed = 1;
  bool traced = false;          // attach a dtrace Collector and a Telemetry
  bool detach_observers = false;  // twin without the workload's observers/checker
  bool layer_calls = false;     // time verify_plan on the round's own plans
};

/// Everything one round measured. Times are host wall seconds or
/// milliseconds on steady_clock unless named virt_*.
struct Round {
  std::string error;  // non-empty: the round threw (exception text)
  std::uint64_t attempted = 0;  // exchanges attempted, warm-up included
  std::uint64_t failed = 0;

  // setup_s and its segments.
  double cluster_ctor_s = 0.0;
  double realize_s = 0.0;
  double warmup_exchange_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;  // whole round, teardown and checks included

  std::vector<double> wall_ms;  // per timed iteration, rank 0 between barriers
  std::vector<double> virt_ms;  // per timed exchange, max over ranks

  // Deltas over the timed iterations (all ranks).
  std::uint64_t handoffs = 0;
  std::uint64_t events = 0;
  std::uint64_t max_run_queue = 0;
  std::uint64_t vgpu_ops = 0;
  std::uint64_t graph_launches = 0;
  std::uint64_t buffers = 0;  // allocated by the end of the round
  Usage usage_delta;          // rusage over the timed iterations
  double timed_wall_s = 0.0;  // sum of wall_ms, in seconds
  std::map<std::string, std::uint64_t> method_messages;  // per method, job-wide
  std::map<std::string, std::uint64_t> method_bytes;

  // Filled when a Telemetry is attached (traced, or the workload's own).
  std::uint64_t mpi_messages = 0;
  std::uint64_t mpi_bytes = 0;
  std::uint64_t mpi_retries = 0;
  std::uint64_t vgpu_bytes = 0;

  // Compiled plans (rank 0's cache).
  std::uint64_t plan_compiles = 0;
  std::uint64_t plan_replays = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_verifications = 0;
  std::uint64_t plan_rejections = 0;
  double verify_plan_ms = 0.0;  // with layer_calls: verify_plan over rank 0's plans

  // Correctness.
  std::int64_t halo_errors = 0;
  std::uint64_t check_findings = 0;
  std::uint64_t hb_edges = 0;
  double rss_growth_mb = 0.0;  // resident set after the last vs the first timed exchange

  // Observers (zero when not attached).
  std::uint64_t spans = 0;  // collector spans recorded over the timed iterations
  std::uint64_t explain_records = 0;
  std::uint64_t watch_incidents = 0;

  // Virtual critical path of the last timed exchange (traced rounds only).
  bool has_critical_path = false;
  double crit_busy_ms = 0.0;
  double crit_wait_ms = 0.0;
  double overlap_efficiency = 0.0;
  std::map<std::string, double> crit_lane_ms;  // cpu, kernel, d2h, h2d, peer, wire, other
};

Round run_round(const Workload& w, const RoundOptions& opt);

/// Out-of-engine layer calls on the workload's own inputs, each the median
/// of repeated calls: HierarchicalPartition construction, a cold Placement
/// (what Cluster::placement_cached computes on a miss), and
/// qap::solve_exhaustive on node 0's instance.
struct LayerCalls {
  double partition_ms = 0.0;
  double placement_ms = 0.0;
  double qap_solve_ms = 0.0;
};
LayerCalls time_layer_calls(const Workload& w);

/// The analytic value of grid point g of quantity q under `seed`: an
/// integer below 2^24, so it is exact in f32 and every comparison is
/// bit-exact.
float fill_value(std::uint64_t seed, std::int64_t x, std::int64_t y, std::int64_t z, int q);

}  // namespace perfbench
