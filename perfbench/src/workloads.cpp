#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <string_view>

#include "check/checker.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "core/partition.h"
#include "core/placement.h"
#include "dtrace/collector.h"
#include "explain/explain.h"
#include "qap/qap.h"
#include "telemetry/critical_path.h"
#include "telemetry/telemetry.h"
#include "topo/archetype.h"
#include "watch/watch.h"

namespace perfbench {

using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;

namespace {

// Halo cells start as this value before every checked exchange, so a halo
// the exchange failed to write cannot pass. fill_value() never yields it.
constexpr float kPoison = -1.0f;

// Closest cube to 750^3 points per GPU (§IV-D), as bench_weak_scaling sizes it.
std::int64_t weak_edge(int gpus) {
  return static_cast<std::int64_t>(std::round(750.0 * std::cbrt(static_cast<double>(gpus))));
}

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Visit every halo cell of quantity q (the storage box minus the interior),
// skipping interior rows instead of testing every cell.
template <typename F>
void for_each_halo_cell(LocalDomain& ld, int r, F&& f) {
  const Dim3 sz = ld.size();
  for (std::int64_t z = -r; z < sz.z + r; ++z) {
    for (std::int64_t y = -r; y < sz.y + r; ++y) {
      const bool interior_row = z >= 0 && z < sz.z && y >= 0 && y < sz.y;
      if (interior_row) {
        for (std::int64_t x = -r; x < 0; ++x) f(x, y, z);
        for (std::int64_t x = sz.x; x < sz.x + r; ++x) f(x, y, z);
      } else {
        for (std::int64_t x = -r; x < sz.x + r; ++x) f(x, y, z);
      }
    }
  }
}

// Seeded interior values, poisoned halos.
void fill(DistributedDomain& dd, std::uint64_t seed, int nq) {
  const int r = dd.radius().max();
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 o = ld.origin();
    const Dim3 sz = ld.size();
    for (int q = 0; q < nq; ++q) {
      auto v = ld.view<float>(static_cast<std::size_t>(q));
      for (std::int64_t z = 0; z < sz.z; ++z)
        for (std::int64_t y = 0; y < sz.y; ++y)
          for (std::int64_t x = 0; x < sz.x; ++x)
            v(x, y, z) = fill_value(seed, o.x + x, o.y + y, o.z + z, q);
      for_each_halo_cell(ld, r, [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        v(x, y, z) = kPoison;
      });
    }
  });
}

// Halo cells that differ, bit for bit, from the analytic value of the
// (periodically wrapped) grid point they mirror.
std::int64_t check_halos(DistributedDomain& dd, std::uint64_t seed, int nq) {
  const int r = dd.radius().max();
  const Dim3 domain = dd.domain();
  std::int64_t bad = 0;
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 o = ld.origin();
    for (int q = 0; q < nq; ++q) {
      auto v = ld.view<float>(static_cast<std::size_t>(q));
      for_each_halo_cell(ld, r, [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(domain);
        bad += std::bit_cast<std::uint32_t>(v(x, y, z)) !=
               std::bit_cast<std::uint32_t>(fill_value(seed, g.x, g.y, g.z, q));
      });
    }
  });
  return bad;
}

// Method names as the benchmark reports them.
const char* method_key(stencil::Method m) {
  switch (m) {
    case stencil::Method::kKernel: return "kernel";
    case stencil::Method::kPeer: return "peer";
    case stencil::Method::kColocated: return "colocated";
    case stencil::Method::kCudaAwareMpi: return "cuda_aware";
    case stencil::Method::kStaged: return "staged";
  }
  return "other";
}

constexpr stencil::Method kMethods[] = {stencil::Method::kKernel, stencil::Method::kPeer,
                                        stencil::Method::kColocated,
                                        stencil::Method::kCudaAwareMpi, stencil::Method::kStaged};

// Per-domain exchange counters (always on, sender side), per method.
void method_counters(const DistributedDomain& dd, std::map<std::string, std::uint64_t>& msgs,
                     std::map<std::string, std::uint64_t>& bytes, std::int64_t sign) {
  const auto& reg = dd.telemetry().metrics();
  for (const auto m : kMethods) {
    const std::string label = std::string("{method=\"") + stencil::to_string(m) + "\"}";
    msgs[method_key(m)] += static_cast<std::uint64_t>(
        sign * static_cast<std::int64_t>(reg.counter_value("exchange_messages_total" + label)));
    bytes[method_key(m)] += static_cast<std::uint64_t>(
        sign * static_cast<std::int64_t>(reg.counter_value("exchange_bytes_total" + label)));
  }
}

// Critical-path lane classes: what kind of resource a recorded lane is.
std::string lane_class(const std::string& lane) {
  const auto ends = [&](std::string_view suf) {
    return lane.size() >= suf.size() &&
           lane.compare(lane.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (lane.rfind("mpi.", 0) == 0) return "wire";
  if (ends(".cpu") || ends(".mpi")) return "cpu";
  if (ends(".kernel")) return "kernel";
  if (ends(".d2h")) return "d2h";
  if (ends(".h2d")) return "h2d";
  if (lane.rfind("gpu", 0) == 0 && lane.find("->") != std::string::npos) return "peer";
  return "other";
}

// Counters rank 0 snapshots at the start and end of the timed iterations.
struct Snapshot {
  std::uint64_t handoffs = 0, events = 0, ops = 0, graphs = 0, spans = 0;
  std::uint64_t mpi_messages = 0, mpi_bytes = 0, mpi_retries = 0, vgpu_bytes = 0;
  Usage usage;
};

Snapshot snapshot(stencil::Cluster& c, const stencil::trace::Recorder* rec,
                  const stencil::telemetry::Telemetry* tel) {
  Snapshot s;
  s.handoffs = c.engine().context_switches();
  s.events = c.engine().events_processed();
  s.ops = c.runtime().ops_issued();
  s.graphs = c.runtime().graphs_launched();
  s.spans = rec != nullptr ? rec->records().size() : 0;
  if (tel != nullptr) {
    const auto& m = tel->metrics();
    s.mpi_messages = m.counter_value("mpi_messages_total");
    s.mpi_bytes = m.counter_value("mpi_bytes_total");
    s.mpi_retries = m.counter_value("mpi_retries_total");
    s.vgpu_bytes = m.counter_value("vgpu_bytes_total");
  }
  s.usage = read_usage();
  return s;
}

// Milliseconds per call of f: the median of `reps` batches, each repeating
// f until it has run for at least `batch_s`, so sub-microsecond calls are
// timed as reliably as long ones.
template <typename F>
double median_ms_of(F&& f, int reps, double batch_s = 0.0) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    double t = t0;
    int calls = 0;
    do {
      f();
      ++calls;
      t = now_s();
    } while (t - t0 < batch_s);
    ms.push_back((t - t0) * 1e3 / calls);
  }
  return median(ms);
}

}  // namespace

float fill_value(std::uint64_t seed, std::int64_t x, std::int64_t y, std::int64_t z, int q) {
  const std::uint64_t h =
      mix(mix(seed) ^ (static_cast<std::uint64_t>(x) * 0x100000001b3ULL) ^
          (static_cast<std::uint64_t>(y) * 0xc2b2ae3d27d4eb4fULL) ^
          (static_cast<std::uint64_t>(z) * 0x165667b19e3779f9ULL) ^
          (static_cast<std::uint64_t>(q) << 56));
  return static_cast<float>(h >> 40);  // 24 bits: exact in f32
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload w;
    w.name = "weak32";
    w.nodes = 32;
    w.ranks_per_node = 6;
    w.edge = weak_edge(32 * 6);
    w.radius = 3;
    w.quantities = 4;
    w.iterations = 12;
    w.tail_pct = 70;
    v.push_back(w);

    w = Workload{};
    w.name = "node_payload";
    w.nodes = 1;
    w.ranks_per_node = 6;
    w.edge = 256;
    w.radius = 3;
    w.quantities = 4;
    w.materialized = true;
    w.iterations = 23;
    w.tail_pct = 85;
    v.push_back(w);

    w = Workload{};
    w.name = "planned_observed";
    w.nodes = 4;
    w.ranks_per_node = 6;
    w.edge = 254;
    w.radius = 1;
    w.quantities = 1;
    w.persistent = true;
    w.observers = true;
    w.iterations = 60;
    v.push_back(w);

    w = Workload{};
    w.name = "checked";
    w.nodes = 2;
    w.ranks_per_node = 3;
    w.edge = 32;
    w.radius = 1;
    w.quantities = 2;
    w.materialized = true;
    w.checker = true;
    // Three timed exchanges (four with the warm-up, ~1.1 GB): the checker
    // slows every exchange, and with three per round the median and p75
    // each fall inside one exchange's cluster, not between two.
    w.iterations = 3;
    w.tail_pct = 75;
    v.push_back(w);
    return v;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload tiny(const Workload& w) {
  Workload t = w;
  t.nodes = std::min(w.nodes, 2);
  t.ranks_per_node = std::min(w.ranks_per_node, 3);
  t.edge = 24;
  t.iterations = 2;
  return t;
}

Round run_round(const Workload& w, const RoundOptions& opt) {
  namespace st = stencil;
  Round r;
  const int nq = w.quantities;
  const int K = w.iterations;
  const bool own_observers = w.observers && !opt.detach_observers;
  const bool use_checker = w.checker && !opt.detach_observers;
  const bool with_collector = own_observers || opt.traced;

  // Observers outlive the cluster that points at them.
  st::dtrace::Collector collector;
  st::telemetry::Telemetry tel;
  st::watch::Watch watch;
  st::explain::Ledger ledger;
  std::unique_ptr<st::check::Checker> checker;

  // Written by whichever rank runs (the engine runs one at a time).
  std::vector<std::vector<double>> virt(static_cast<std::size_t>(K),
                                        std::vector<double>(static_cast<std::size_t>(
                                            w.nodes * w.ranks_per_node)));
  std::vector<std::int64_t> bad_at(static_cast<std::size_t>(K) + 1, 0);  // [0] = warm-up
  std::vector<std::uint64_t> findings_at(static_cast<std::size_t>(K), 0);
  st::sim::Time win0 = INT64_MAX;  // virtual window of the last timed exchange
  st::sim::Time win1 = 0;
  Snapshot s0;
  Snapshot s1;
  double t_realized = 0.0;
  double t_filled = 0.0;
  double t_warm = 0.0;
  double rss_first = 0.0;
  double rss_last = 0.0;

  const double t_start = now_s();
  {
    st::Cluster cluster(st::topo::summit(), w.nodes, w.ranks_per_node);
    r.cluster_ctor_s = now_s() - t_start;
    cluster.set_mem_mode(w.materialized ? st::vgpu::MemMode::kMaterialized
                                        : st::vgpu::MemMode::kPhantom);
    if (with_collector) {
      cluster.set_collector(&collector);
      cluster.set_telemetry(&tel);
    }
    if (own_observers) {
      cluster.set_watch(&watch);
      cluster.set_explain(&ledger);
    }
    if (use_checker) {
      checker = std::make_unique<st::check::Checker>(cluster.engine());
      cluster.set_checker(checker.get());
    }
    const st::trace::Recorder* rec = with_collector ? &collector : nullptr;
    const st::telemetry::Telemetry* telp = with_collector ? &tel : nullptr;
    const Dim3 domain{w.edge, w.edge, w.edge};

    try {
      cluster.run([&](st::RankCtx& ctx) {
        const bool lead = ctx.rank() == 0;
        const auto me = static_cast<std::size_t>(ctx.rank());
        DistributedDomain dd(ctx, domain);
        dd.set_radius(w.radius);
        for (int q = 0; q < nq; ++q) dd.add_data<float>("q" + std::to_string(q));
        dd.set_methods(st::MethodFlags::kAll);
        dd.set_placement(st::PlacementStrategy::kNodeAware);
        dd.set_persistent(w.persistent);
        if (w.persistent) dd.set_verify_plans(true);
        // Rank 0 reads the clock after a barrier; the second barrier holds
        // every other rank until it has, so no rank's later work (a fill, a
        // halo check) leaks into the interval being timed.
        const auto clocked_barrier = [&](const auto& on_lead) {
          ctx.comm.barrier();
          if (lead) on_lead();
          ctx.comm.barrier();
        };
        dd.realize();
        clocked_barrier([&] { t_realized = now_s(); });

        // Untimed warm-up exchange (compiles and admits the plan when
        // persistent); inputs are generated outside the setup time.
        if (w.materialized) fill(dd, opt.seed, nq);
        clocked_barrier([&] {
          t_filled = now_s();
          ++r.attempted;
        });
        dd.exchange();
        clocked_barrier([&] { t_warm = now_s(); });
        if (w.materialized) bad_at[0] += check_halos(dd, opt.seed, nq);

        std::map<std::string, std::uint64_t> my_msgs;
        std::map<std::string, std::uint64_t> my_bytes;
        method_counters(dd, my_msgs, my_bytes, -1);
        // Poison the halos again (the timed exchanges must write every one)
        // unless each iteration fills for itself.
        if (w.materialized && !w.checker) fill(dd, opt.seed, nq);
        double t_prev = 0.0;
        clocked_barrier([&] {
          s0 = snapshot(ctx.cluster, rec, telp);
          t_prev = now_s();
        });
        // One timed iteration: [fill,] barrier, exchange, [check,] barrier.
        // Rank 0's wall sample spans two trailing-barrier exits.
        for (int it = 0; it < K; ++it) {
          const auto i = static_cast<std::size_t>(it);
          if (w.checker) fill(dd, opt.seed, nq);
          ctx.comm.barrier();
          if (lead) ++r.attempted;
          const st::sim::Time v0 = ctx.engine().now();
          const double t0 = ctx.comm.wtime();
          dd.exchange();
          virt[i][me] = (ctx.comm.wtime() - t0) * 1e3;
          if (it == K - 1) {
            win0 = std::min(win0, v0);
            win1 = std::max(win1, ctx.engine().now());
          }
          if (w.checker) bad_at[i + 1] += check_halos(dd, opt.seed, nq);
          ctx.comm.barrier();
          if (lead) {
            const double t = now_s();
            r.wall_ms.push_back((t - t_prev) * 1e3);
            t_prev = t;
            if (it == 0) rss_first = read_rss_mb();
            if (it == K - 1) rss_last = read_rss_mb();
            if (checker) findings_at[i] = checker->report().findings().size();
          }
        }
        if (lead) s1 = snapshot(ctx.cluster, rec, telp);
        ctx.comm.barrier();  // holds the final checks until rank 0 has its numbers
        if (w.materialized && !w.checker) {
          bad_at[static_cast<std::size_t>(K)] += check_halos(dd, opt.seed, nq);
        }
        method_counters(dd, my_msgs, my_bytes, +1);
        for (const auto& [m, n] : my_msgs) r.method_messages[m] += n;
        for (const auto& [m, n] : my_bytes) r.method_bytes[m] += n;

        if (lead) {
          const auto& ps = dd.plan_stats();
          r.plan_compiles = ps.compiles;
          r.plan_replays = ps.replays;
          r.plan_hits = ps.hits;
          r.plan_verifications = ps.verifications;
          r.plan_rejections = ps.rejections;
        }
        if (opt.layer_calls) {
          // Static verification of this workload's exchange as a compiled
          // plan; an eager workload compiles one with one extra exchange.
          if (!w.persistent) {
            dd.set_persistent(true);
            dd.exchange();
          }
          if (lead) {
            r.verify_plan_ms = median_ms_of(
                [&] {
                  for (const auto& p : dd.plan_cache().entries()) {
                    if (!dd.verify_plan(*p).clean()) ++r.plan_rejections;
                  }
                },
                3);
          }
        }
      });
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.buffers = cluster.runtime().buffers_allocated();
    r.max_run_queue = cluster.engine().max_run_queue_depth();
  }
  r.run_s = now_s() - t_start;

  if (r.error.empty()) {
    r.realize_s = t_realized - t_start - r.cluster_ctor_s;
    r.warmup_exchange_s = t_warm - t_filled;
    r.setup_s = (t_realized - t_start) + r.warmup_exchange_s;
  }
  for (std::size_t it = 0; it < virt.size() && it < r.wall_ms.size(); ++it) {
    r.virt_ms.push_back(*std::max_element(virt[it].begin(), virt[it].end()));
  }
  r.handoffs = s1.handoffs - s0.handoffs;
  r.events = s1.events - s0.events;
  r.vgpu_ops = s1.ops - s0.ops;
  r.graph_launches = s1.graphs - s0.graphs;
  r.spans = s1.spans - s0.spans;
  r.mpi_messages = s1.mpi_messages - s0.mpi_messages;
  r.mpi_bytes = s1.mpi_bytes - s0.mpi_bytes;
  r.mpi_retries = s1.mpi_retries - s0.mpi_retries;
  r.vgpu_bytes = s1.vgpu_bytes - s0.vgpu_bytes;
  r.usage_delta.user_s = s1.usage.user_s - s0.usage.user_s;
  r.usage_delta.sys_s = s1.usage.sys_s - s0.usage.sys_s;
  r.usage_delta.ctx_switches = s1.usage.ctx_switches - s0.usage.ctx_switches;
  for (double ms : r.wall_ms) r.timed_wall_s += ms * 1e-3;

  // Failures: a thrown round fails the exchange it was in; a bad halo or a
  // checker finding fails the exchange it was checked after.
  for (std::size_t i = 0; i < bad_at.size(); ++i) r.halo_errors += bad_at[i];
  std::uint64_t failed = 0;
  if (bad_at[0] != 0) ++failed;
  std::uint64_t seen_findings = 0;
  for (std::size_t i = 0; i < r.wall_ms.size(); ++i) {
    bool bad = bad_at[i + 1] != 0;
    if (checker) {
      bad = bad || findings_at[i] > seen_findings;
      seen_findings = findings_at[i];
    }
    failed += bad ? 1 : 0;
  }
  if (checker) {
    r.check_findings = checker->report().findings().size();
    r.hb_edges = checker->hb_edges().size();
    if (r.check_findings > seen_findings && failed == 0) ++failed;  // teardown lints
  }
  r.rss_growth_mb = rss_last - rss_first;
  if (!r.error.empty()) ++failed;
  if (r.plan_rejections != 0 && failed == 0) ++failed;
  r.failed = failed;
  r.attempted = std::max(r.attempted, failed);  // a round can throw before its first exchange

  if (own_observers) {
    r.explain_records = ledger.total_recorded();
    r.watch_incidents = watch.incidents_opened();
  }

  // Virtual critical path of the last timed exchange, from the causal trace.
  if (with_collector && r.error.empty() && win1 > win0) {
    std::vector<st::trace::OpRecord> spans;
    for (const auto& s : collector.records()) {
      if (s.start >= win0 && s.end <= win1) spans.push_back(s);
    }
    st::telemetry::CriticalPath cp(std::move(spans));
    cp.add_flow_edges(collector.flows());
    const st::telemetry::Analysis an = cp.analyze();
    r.has_critical_path = true;
    r.crit_busy_ms = static_cast<double>(an.critical_busy) / 1e6;
    r.crit_wait_ms = static_cast<double>(an.critical_wait) / 1e6;
    r.overlap_efficiency = an.overlap_efficiency;
    for (const char* k : {"cpu", "kernel", "d2h", "h2d", "peer", "wire", "other"}) {
      r.crit_lane_ms[k] = 0.0;
    }
    for (const auto& hop : an.chain) {
      r.crit_lane_ms[lane_class(hop.lane)] += static_cast<double>(hop.end - hop.start) / 1e6;
    }
  }
  return r;
}

LayerCalls time_layer_calls(const Workload& w) {
  namespace st = stencil;
  const Dim3 domain{w.edge, w.edge, w.edge};
  const st::topo::NodeArchetype arch = st::topo::summit();
  const int gpn = arch.gpus_per_node();
  const std::size_t bytes_per_point = static_cast<std::size_t>(w.quantities) * sizeof(float);
  LayerCalls out;
  out.partition_ms =
      median_ms_of([&] { st::HierarchicalPartition hp(domain, w.nodes, gpn); }, 5, 0.02);
  const st::HierarchicalPartition hp(domain, w.nodes, gpn);
  out.placement_ms = median_ms_of(
      [&] {
        st::Placement pl(hp, arch, st::Radius(w.radius), bytes_per_point,
                         st::Neighborhood::kFull, st::PlacementStrategy::kNodeAware);
      },
      5, 0.02);
  const st::Placement pl(hp, arch, st::Radius(w.radius), bytes_per_point, st::Neighborhood::kFull,
                         st::PlacementStrategy::kNodeAware);
  const st::qap::SquareMatrix flow = pl.node_flow(0);
  out.qap_solve_ms =
      median_ms_of([&] { (void)st::qap::solve_exhaustive(flow, pl.distance()); }, 5, 0.02);
  return out;
}

}  // namespace perfbench
