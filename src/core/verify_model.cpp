#include <algorithm>
#include <map>
#include <sstream>

#include "core/distributed_domain.h"
#include "core/region.h"
#include "core/tagspace.h"
#include "core/transfer_state.h"
#include "simpi/mpi.h"
#include "verify/verify.h"

/// \file verify_model.cpp
/// Lowers a plan::CompiledPlan into the verifier's ExchangeModel
/// (DESIGN.md §14). The local rank is modeled from the compiled artifact
/// itself — program tags, payload sizes, persistent-request sides, group
/// layouts — while every remote rank's plan is re-derived deterministically
/// from one cached ExchangePlan::full over the shared placement, with the
/// local demotion table overriding the methods of shared transfers. A plan that
/// drifted from the derivation (wrong tag, wrong bytes, missing side)
/// therefore surfaces as a matching defect against its peers.

namespace stencil {

namespace {

struct ModelXfer {
  Transfer t;
  std::size_t bytes = 0;     // payload for the plan's quantity subset
  Method method = Method::kStaged;  // current (post-demotion) method
  bool agg_member = false;   // rides in an aggregated group
};

struct ModelGroup {
  int peer = -1;
  int tag = 0;
  std::size_t bytes = 0;
  std::vector<const ModelXfer*> members;  // tag-sorted
};

std::string dir3(Dim3 d) {
  auto c = [](std::int64_t v) { return v > 0 ? "+" : v < 0 ? "-" : "0"; };
  return std::string(c(d.x)) + c(d.y) + c(d.z);
}

verify::Box3 region_box(const Region3& r) {
  verify::Box3 b;
  const std::int64_t lo[3] = {r.origin.x, r.origin.y, r.origin.z};
  const std::int64_t ex[3] = {r.extent.x, r.extent.y, r.extent.z};
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = lo[d];
    b.hi[d] = lo[d] + ex[d];
  }
  return b;
}

verify::Access flat(std::uint64_t buffer, std::uint64_t bytes, bool write) {
  verify::Access a;
  a.buffer = buffer;
  a.write = write;
  a.offset = 0;
  a.bytes = bytes;
  return a;
}

verify::Access flat_at(std::uint64_t buffer, std::uint64_t off, std::uint64_t bytes,
                       bool write) {
  verify::Access a = flat(buffer, bytes, write);
  a.offset = off;
  return a;
}

std::string data_token(int tag) { return "colo:" + std::to_string(tag) + ":data"; }
std::string done_token(int tag) { return "colo:" + std::to_string(tag) + ":done"; }

/// Emits one rank's op sequence mirroring the exchange phases as a planned
/// exchange runs them (exchange_start 0'–3', exchange_finish 4'–7').
class RankEmitter {
 public:
  RankEmitter(verify::RankProgram& rp, int rank) : rp_(rp), rank_(rank) {}

  void order(std::size_t from, std::size_t to) { rp_.order.emplace_back(from, to); }
  /// Mark op `idx` as entitled to the named reserved tag range.
  void claim(std::size_t idx, const char* range) { rp_.ops[idx].claims = range; }

  std::size_t post_recv(int src, int tag, std::size_t bytes, std::string what) {
    verify::Op& o = emit(verify::OpKind::kPostRecv);
    o.peer = src;
    o.tag = tag;
    o.bytes = bytes;
    o.what = std::move(what);
    return rp_.ops.size() - 1;
  }
  std::size_t start_send(int dst, int tag, std::size_t bytes, std::string what,
                         std::vector<verify::Access> acc = {}) {
    verify::Op& o = emit(verify::OpKind::kStartSend);
    o.peer = dst;
    o.tag = tag;
    o.bytes = bytes;
    o.accesses = std::move(acc);
    o.what = std::move(what);
    return rp_.ops.size() - 1;
  }
  std::size_t wait_recv(int src, int tag, std::size_t bytes, std::string what,
                        std::vector<verify::Access> acc = {}) {
    verify::Op& o = emit(verify::OpKind::kWaitRecv);
    o.peer = src;
    o.tag = tag;
    o.bytes = bytes;
    o.accesses = std::move(acc);
    o.what = std::move(what);
    return rp_.ops.size() - 1;
  }
  std::size_t wait_send(int dst, int tag, std::size_t bytes, bool eager,
                        std::string what) {
    verify::Op& o = emit(verify::OpKind::kWaitSend);
    o.peer = dst;
    o.tag = tag;
    o.bytes = bytes;
    o.eager = eager;
    o.what = std::move(what);
    return rp_.ops.size() - 1;
  }
  std::size_t token_wait(std::string token, int gen_delta, int peer, int tag) {
    verify::Op& o = emit(verify::OpKind::kTokenWait);
    o.token = std::move(token);
    o.gen_delta = gen_delta;
    o.peer = peer;
    o.tag = tag;
    return rp_.ops.size() - 1;
  }
  std::size_t token_signal(std::string token, int peer, int tag) {
    verify::Op& o = emit(verify::OpKind::kTokenSignal);
    o.token = std::move(token);
    o.peer = peer;
    o.tag = tag;
    return rp_.ops.size() - 1;
  }
  std::size_t stream_op(std::uint64_t stream, int tag, std::string what,
                        std::vector<verify::Access> acc) {
    verify::Op& o = emit(verify::OpKind::kStream);
    o.stream = stream;
    o.tag = tag;
    o.accesses = std::move(acc);
    o.what = std::move(what);
    return rp_.ops.size() - 1;
  }

 private:
  /// Constructs the op in place; push-of-temporary moved three strings and an
  /// access vector per op, which added up across the whole remote world.
  verify::Op& emit(verify::OpKind kind) {
    verify::Op& o = rp_.ops.emplace_back();
    o.kind = kind;
    o.rank = rank_;
    return o;
  }

  verify::RankProgram& rp_;
  int rank_;
};

std::uint64_t stream_key(const vgpu::Stream& s) {
  if (!s.valid()) return 0;
  return (static_cast<std::uint64_t>(s.device + 1) << 40) | s.id;
}

bool eager_send(Method m, std::size_t bytes) {
  // Host-payload (STAGED / aggregated) sends at or below the eager limit
  // buffer immediately; device payloads (CUDA-aware) always rendezvous.
  return m == Method::kStaged && bytes <= simpi::Job::kEagerLimit;
}

/// Emit the message/token phases shared by the local-artifact and
/// derived-remote paths. `emit_streams` adds the pack/unpack stream work
/// (local rank only — remote access lists are not needed: hazards are
/// per-rank, and remote blocking structure is fully captured without them).
struct PhasePlan {
  std::vector<const ModelXfer*> xfers;  // plan order, bytes > 0
  std::vector<ModelGroup> send_groups;  // peer-ascending
  std::vector<ModelGroup> recv_groups;
};

}  // namespace

verify::ExchangeModel DistributedDomain::verify_model(const plan::CompiledPlan& p) const {
  verify::ExchangeModel m;
  m.name = p.key.str();
  m.world_size = ctx_.comm.size();
  m.ranks.resize(static_cast<std::size_t>(m.world_size));
  for (const auto& rr : tagspace::reserved_ranges()) {
    m.reserved.push_back({rr.lo, rr.hi, rr.name});
  }
  if (ctx_.tenant != nullptr) {
    // Tenant-scoped model: our data tags must stay inside our window, and
    // every other tenant's window is as reserved as the service spans —
    // check_tags rejects any tag that strays into a co-tenant's slice.
    m.tenant_scoped = true;
    m.tenant = tenant_id();
    const tagspace::Range win = tagspace::tenant_data_range(m.tenant);
    m.tenant_window = {win.lo, win.hi, win.name};
    for (int t = 0; t < tagspace::kMaxTenants; ++t) {
      if (t == m.tenant) continue;
      const tagspace::Range other = tagspace::tenant_data_range(t);
      m.reserved.push_back({other.lo, other.hi, "tenant-" + std::to_string(t) + "-data"});
    }
    m.world_rank_of.resize(static_cast<std::size_t>(ctx_.comm.size()));
    for (int r = 0; r < ctx_.comm.size(); ++r) {
      m.world_rank_of[static_cast<std::size_t>(r)] = ctx_.comm.world_rank_of(r);
    }
  }

  const int me = ctx_.comm.rank();
  const int rpn = part_rpn();
  const auto& hp = placement_->partition();

  std::size_t bpp = 0;
  for (std::size_t q : p.key.quantities) bpp += quantities_[q].elem_size;

  // Current (post-demotion) method per tag, from the realized local table.
  // Demotions of message methods are lockstep across both endpoints, so the
  // local view is authoritative for every transfer this rank shares.
  std::map<int, Method> my_method;
  for (const Transfer& t : plan_.transfers()) my_method[t.tag] = t.method;

  // Per-rank transfer lists. The local rank's comes from the compiled
  // artifact; remote ranks are re-derived from the shared placement: one
  // full() derivation, bucketed by endpoint, yields per-rank sets identical
  // to a for_rank() per remote rank at half the cost.
  std::vector<std::vector<ModelXfer>> storage(static_cast<std::size_t>(m.world_size));
  for (const plan::TransferProgram& prog : p.programs) {
    const TransferState& x = *xfers_[prog.xfer_index];
    ModelXfer mx;
    mx.t = x.t;
    mx.t.tag = prog.tag;
    mx.t.method = prog.method;
    mx.bytes = prog.bytes;
    mx.method = prog.method;
    mx.agg_member = x.aggregated && prog.method == Method::kStaged;
    storage[static_cast<std::size_t>(me)].push_back(mx);
  }
  // The world transfer list and slab element counts depend only on the
  // exchange shape, so consecutive admissions reuse the cached derivation;
  // the plan-specific parts (bytes-per-point, demoted methods) are applied
  // per call below.
  VerifyDeriv& vd = verify_deriv_;
  if (vd.placement != placement_ || vd.flags != flags_ || vd.nbhd != nbhd_ ||
      vd.boundary != boundary_ || !(vd.radius == radius_)) {
    vd.placement = placement_;
    vd.flags = flags_;
    vd.nbhd = nbhd_;
    vd.boundary = boundary_;
    vd.radius = radius_;
    vd.xfers.clear();
    const ExchangePlan ep =
        ExchangePlan::full(*placement_, rpn, flags_, nbhd_, boundary_, tenant_id());
    vd.xfers.reserve(ep.transfers().size());
    for (const Transfer& t : ep.transfers()) {
      const Region3 slab = interior_slab(hp.subdomain_size(t.src_idx), t.dir, radius_);
      vd.xfers.emplace_back(t, static_cast<std::size_t>(slab.volume()));
    }
  }
  for (const auto& [t, elems] : vd.xfers) {
    ModelXfer mx;
    mx.t = t;
    mx.bytes = elems * bpp;
    if (mx.bytes == 0) continue;  // asymmetric radius: nothing moves
    const auto it = my_method.find(t.tag);
    mx.method = it != my_method.end() ? it->second : t.method;
    // Aggregation membership is fixed at realize() from the *original*
    // specialization; demotions only add individual STAGED traffic.
    mx.agg_member = aggregate_remote_ && t.method == Method::kStaged;
    if (t.src_rank != me) storage[static_cast<std::size_t>(t.src_rank)].push_back(mx);
    if (t.dst_rank != me && t.dst_rank != t.src_rank) {
      storage[static_cast<std::size_t>(t.dst_rank)].push_back(mx);
    }
  }

  for (int r = 0; r < m.world_size; ++r) {
    const auto& list = storage[static_cast<std::size_t>(r)];
    verify::RankProgram& rp = m.ranks[static_cast<std::size_t>(r)];
    rp.rank = r;
    // Every transfer contributes at most ~4 ops to each endpoint (post/start,
    // wait, pack/unpack, token); reserving up front keeps the large Op structs
    // from being moved on vector growth.
    rp.ops.reserve(list.size() * 4 + 8);
    RankEmitter em(rp, r);

    PhasePlan ph;
    ph.xfers.reserve(list.size());
    for (const ModelXfer& mx : list) ph.xfers.push_back(&mx);
    // Aggregated groups, rebuilt exactly as build_aggregation_groups does:
    // staged members grouped per peer, tag-sorted so both ends agree on the
    // layout. For the local rank the artifact's own groups take precedence.
    auto derive_groups = [&](bool is_send) {
      std::map<int, ModelGroup> by_peer;
      for (const ModelXfer* mx : ph.xfers) {
        if (!mx->agg_member) continue;
        if (is_send && mx->t.src_rank == r) {
          by_peer[mx->t.dst_rank].members.push_back(mx);
        } else if (!is_send && mx->t.dst_rank == r) {
          by_peer[mx->t.src_rank].members.push_back(mx);
        }
      }
      std::vector<ModelGroup> out;
      for (auto& [peer, g] : by_peer) {
        g.peer = peer;
        // Aggregation headers key off the *world* rank (matching the runtime
        // derivation) so concurrent tenants' headers never alias.
        g.tag = is_send ? tagspace::agg_tag(m.world_rank(r))
                        : tagspace::agg_tag(m.world_rank(peer));
        std::sort(g.members.begin(), g.members.end(),
                  [](const ModelXfer* a, const ModelXfer* b) { return a->t.tag < b->t.tag; });
        for (const ModelXfer* mx : g.members) g.bytes += mx->bytes;
        out.push_back(std::move(g));
      }
      return out;
    };
    ph.send_groups = derive_groups(true);
    ph.recv_groups = derive_groups(false);
    if (r == me) {
      // Cross-check the artifact's group layout against the derivation: a
      // disagreement in bytes or membership shows up as a matching defect
      // because the peers' models use the derived layout.
      for (std::size_t i = 0; i < p.send_groups.size() && i < ph.send_groups.size(); ++i) {
        ph.send_groups[i].bytes = p.send_groups[i].bytes;
      }
      for (std::size_t i = 0; i < p.recv_groups.size() && i < ph.recv_groups.size(); ++i) {
        ph.recv_groups[i].bytes = p.recv_groups[i].bytes;
      }
    }

    // Tag -> TransferState for the local rank's access annotations.
    std::map<int, const TransferState*> my_state;
    if (r == me) {
      for (const auto& xp : xfers_) my_state[xp->t.tag] = xp.get();
    }
    auto quantity_boxes = [&](LocalDomain* ld, const Region3& reg, bool write) {
      std::vector<verify::Access> acc;
      if (ld == nullptr) return acc;
      for (std::size_t q : p.key.quantities) {
        verify::Access a;
        a.buffer = ld->data(q).id();
        a.write = write;
        a.is_box = true;
        a.box = region_box(reg);
        acc.push_back(a);
      }
      return acc;
    };
    auto append = [](std::vector<verify::Access>& dst, std::vector<verify::Access> src) {
      for (auto& a : src) dst.push_back(std::move(a));
    };

    // Phase 0': persistent receives, groups first (eager post order).
    std::vector<std::size_t> posted;       // op index of each post
    std::vector<int> posted_group;         // index into ph.recv_groups, or -1
    std::vector<const ModelXfer*> posted_xfer;
    for (std::size_t gi = 0; gi < ph.recv_groups.size(); ++gi) {
      const ModelGroup& g = ph.recv_groups[gi];
      posted.push_back(em.post_recv(g.peer, g.tag, g.bytes, "agg"));
      em.claim(posted.back(), tagspace::kAggRangeName);
      posted_group.push_back(static_cast<int>(gi));
      posted_xfer.push_back(nullptr);
    }
    for (const ModelXfer* mx : ph.xfers) {
      if (mx->t.dst_rank != r || mx->agg_member) continue;
      if (mx->method != Method::kStaged && mx->method != Method::kCudaAwareMpi) continue;
      posted.push_back(em.post_recv(mx->t.src_rank, mx->t.tag, mx->bytes, dir3(mx->t.dir)));
      posted_group.push_back(-1);
      posted_xfer.push_back(mx);
    }

    // Phase 1': KERNEL / PEER frozen chains (local work, no messages).
    if (r == me) {
      for (const ModelXfer* mx : ph.xfers) {
        const TransferState* x = my_state.count(mx->t.tag) ? my_state.at(mx->t.tag) : nullptr;
        if (x == nullptr) continue;
        if (mx->method == Method::kKernel && mx->t.src_rank == r) {
          std::vector<verify::Access> acc = quantity_boxes(x->src_ld, x->src_region, false);
          append(acc, quantity_boxes(x->src_ld, x->dst_region, true));
          em.stream_op(stream_key(x->src_stream), mx->t.tag, "self " + dir3(mx->t.dir),
                       std::move(acc));
        } else if (mx->method == Method::kPeer) {
          std::vector<verify::Access> acc = quantity_boxes(x->src_ld, x->src_region, false);
          if (peer_use_3d(*x)) {
            append(acc, quantity_boxes(x->dst_ld, x->dst_region, true));
            em.stream_op(stream_key(x->src_stream), mx->t.tag, "3d " + dir3(mx->t.dir),
                         std::move(acc));
          } else {
            acc.push_back(flat(x->src_pack.id(), mx->bytes, true));
            acc.push_back(flat(x->dst_pack.id(), mx->bytes, true));
            const std::size_t o1 = em.stream_op(stream_key(x->src_stream), mx->t.tag,
                                                "pack+copy " + dir3(mx->t.dir), std::move(acc));
            std::vector<verify::Access> uacc{flat(x->dst_pack.id(), mx->bytes, false)};
            append(uacc, quantity_boxes(x->dst_ld, x->dst_region, true));
            const std::size_t o2 = em.stream_op(stream_key(x->dst_stream), mx->t.tag,
                                                "unpack " + dir3(mx->t.dir), std::move(uacc));
            em.order(o1, o2);  // ready_ev cross-stream edge
          }
        }
      }
    }

    // Phase 2': COLOCATED senders — flow-control token (previous generation's
    // done) then the IPC push and this generation's data token.
    for (const ModelXfer* mx : ph.xfers) {
      if (mx->method != Method::kColocated || mx->t.src_rank != r) continue;
      const std::size_t w =
          em.token_wait(done_token(mx->t.tag), -1, mx->t.dst_rank, mx->t.tag);
      if (r == me && my_state.count(mx->t.tag) != 0) {
        const TransferState* x = my_state.at(mx->t.tag);
        std::vector<verify::Access> acc = quantity_boxes(x->src_ld, x->src_region, false);
        if (x->src_pack.valid()) acc.push_back(flat(x->src_pack.id(), mx->bytes, true));
        const std::size_t o = em.stream_op(stream_key(x->src_stream), mx->t.tag,
                                           "ipc-push " + dir3(mx->t.dir), std::move(acc));
        em.order(w, o);
      }
      em.token_signal(data_token(mx->t.tag), mx->t.dst_rank, mx->t.tag);
    }

    // Phase 3': STAGED / CUDA-aware sender packs, then group packs.
    std::map<int, std::size_t> pack_of;  // tag -> pack op (send-start edges)
    std::map<int, std::vector<std::size_t>> group_packs;  // send-group idx -> ops
    if (r == me) {
      for (const ModelXfer* mx : ph.xfers) {
        if (mx->t.src_rank != r || mx->agg_member) continue;
        if (mx->method != Method::kStaged && mx->method != Method::kCudaAwareMpi) continue;
        const TransferState* x = my_state.count(mx->t.tag) ? my_state.at(mx->t.tag) : nullptr;
        if (x == nullptr) continue;
        std::vector<verify::Access> acc = quantity_boxes(x->src_ld, x->src_region, false);
        if (mx->method == Method::kStaged) {
          if (staged_zero_copy_) {
            acc.push_back(flat(x->src_host.id(), mx->bytes, true));
          } else {
            acc.push_back(flat(x->src_pack.id(), mx->bytes, true));
            acc.push_back(flat(x->src_host.id(), mx->bytes, true));
          }
        } else {
          acc.push_back(flat(x->src_pack.id(), mx->bytes, true));
        }
        pack_of[mx->t.tag] = em.stream_op(stream_key(x->src_stream), mx->t.tag,
                                          "pack " + dir3(mx->t.dir), std::move(acc));
      }
      for (std::size_t gi = 0; gi < ph.send_groups.size(); ++gi) {
        const ModelGroup& g = ph.send_groups[gi];
        std::size_t off = 0;
        for (const ModelXfer* mx : g.members) {
          const TransferState* x =
              my_state.count(mx->t.tag) ? my_state.at(mx->t.tag) : nullptr;
          if (x != nullptr) {
            std::vector<verify::Access> acc = quantity_boxes(x->src_ld, x->src_region, false);
            acc.push_back(flat(x->src_pack.id(), mx->bytes, true));
            // Staging slice of the merged pinned buffer (host of the group's
            // realize-time AggGroup).
            const AggGroup& grp = *send_groups_[gi];
            acc.push_back(flat_at(grp.host.id(), off, mx->bytes, true));
            group_packs[static_cast<int>(gi)].push_back(
                em.stream_op(stream_key(x->src_stream), mx->t.tag,
                             "agg-pack " + dir3(mx->t.dir), std::move(acc)));
          }
          off += mx->bytes;
        }
      }
    }

    // Phase 4': start every send in frozen plan order (transfers, then
    // groups), each gated on its pack by the ready-event synchronize.
    std::vector<std::size_t> started;
    std::vector<const ModelXfer*> started_xfer;
    std::vector<int> started_group;
    for (const ModelXfer* mx : ph.xfers) {
      if (mx->t.src_rank != r || mx->agg_member) continue;
      if (mx->method != Method::kStaged && mx->method != Method::kCudaAwareMpi) continue;
      std::vector<verify::Access> acc;
      if (r == me && my_state.count(mx->t.tag) != 0) {
        const TransferState* x = my_state.at(mx->t.tag);
        const vgpu::Buffer& payload =
            mx->method == Method::kStaged ? x->src_host : x->src_pack;
        if (payload.valid()) acc.push_back(flat(payload.id(), mx->bytes, false));
      }
      const std::size_t s =
          em.start_send(mx->t.dst_rank, mx->t.tag, mx->bytes, dir3(mx->t.dir), std::move(acc));
      if (pack_of.count(mx->t.tag) != 0) em.order(pack_of.at(mx->t.tag), s);
      started.push_back(s);
      started_xfer.push_back(mx);
      started_group.push_back(-1);
    }
    for (std::size_t gi = 0; gi < ph.send_groups.size(); ++gi) {
      const ModelGroup& g = ph.send_groups[gi];
      std::vector<verify::Access> acc;
      if (r == me && gi < send_groups_.size()) {
        acc.push_back(flat(send_groups_[gi]->host.id(), g.bytes, false));
      }
      const std::size_t s = em.start_send(g.peer, g.tag, g.bytes, "agg", std::move(acc));
      em.claim(s, tagspace::kAggRangeName);
      for (std::size_t po : group_packs[static_cast<int>(gi)]) em.order(po, s);
      started.push_back(s);
      started_xfer.push_back(nullptr);
      started_group.push_back(static_cast<int>(gi));
    }

    // Phase 5': wait for each landed receive (posted order) and fan out its
    // H2D + unpack graph. The payload write is charged to the wait — that is
    // when the landing completes relative to this rank's program.
    for (std::size_t pi = 0; pi < posted.size(); ++pi) {
      const verify::Op post = rp.ops[posted[pi]];  // copy: fields reused below
      std::vector<verify::Access> wacc;
      const int gi = posted_group[pi];
      const ModelXfer* mx = posted_xfer[pi];
      if (r == me) {
        if (gi >= 0 && static_cast<std::size_t>(gi) < recv_groups_.size()) {
          wacc.push_back(flat(recv_groups_[static_cast<std::size_t>(gi)]->host.id(),
                              post.bytes, true));
        } else if (mx != nullptr && my_state.count(mx->t.tag) != 0) {
          const TransferState* x = my_state.at(mx->t.tag);
          const vgpu::Buffer& payload =
              mx->method == Method::kStaged ? x->dst_host : x->dst_pack;
          if (payload.valid()) wacc.push_back(flat(payload.id(), post.bytes, true));
        }
      }
      const std::size_t w = em.wait_recv(post.peer, post.tag, post.bytes,
                                         gi >= 0 ? "agg" : "xfer", std::move(wacc));
      if (gi >= 0) em.claim(w, tagspace::kAggRangeName);
      if (r != me) continue;
      if (gi >= 0 && static_cast<std::size_t>(gi) < ph.recv_groups.size()) {
        const ModelGroup& g = ph.recv_groups[static_cast<std::size_t>(gi)];
        const AggGroup* grp = static_cast<std::size_t>(gi) < recv_groups_.size()
                                  ? recv_groups_[static_cast<std::size_t>(gi)].get()
                                  : nullptr;
        std::size_t off = 0;
        for (const ModelXfer* member : g.members) {
          const TransferState* x =
              my_state.count(member->t.tag) ? my_state.at(member->t.tag) : nullptr;
          if (x != nullptr && grp != nullptr) {
            std::vector<verify::Access> acc{
                flat_at(grp->host.id(), off, member->bytes, false),
                flat(x->dst_pack.id(), member->bytes, true)};
            append(acc, quantity_boxes(x->dst_ld, x->dst_region, true));
            const std::size_t u =
                em.stream_op(stream_key(x->dst_stream), member->t.tag,
                             "agg-unpack " + dir3(member->t.dir), std::move(acc));
            em.order(w, u);
          }
          off += member->bytes;
        }
      } else if (mx != nullptr && my_state.count(mx->t.tag) != 0) {
        const TransferState* x = my_state.at(mx->t.tag);
        std::vector<verify::Access> acc;
        if (mx->method == Method::kStaged) {
          acc.push_back(flat(x->dst_host.id(), mx->bytes, false));
          acc.push_back(flat(x->dst_pack.id(), mx->bytes, true));
        } else {
          acc.push_back(flat(x->dst_pack.id(), mx->bytes, false));
        }
        append(acc, quantity_boxes(x->dst_ld, x->dst_region, true));
        const std::size_t u = em.stream_op(stream_key(x->dst_stream), mx->t.tag,
                                           "unpack " + dir3(mx->t.dir), std::move(acc));
        em.order(w, u);
      }
    }

    // Phase 6': COLOCATED receivers — wait for this generation's data token,
    // unpack, then release the sender's next generation.
    for (const ModelXfer* mx : ph.xfers) {
      if (mx->method != Method::kColocated || mx->t.dst_rank != r) continue;
      const std::size_t w =
          em.token_wait(data_token(mx->t.tag), 0, mx->t.src_rank, mx->t.tag);
      if (r == me && my_state.count(mx->t.tag) != 0) {
        const TransferState* x = my_state.at(mx->t.tag);
        std::vector<verify::Access> acc;
        if (x->dst_pack.valid()) acc.push_back(flat(x->dst_pack.id(), mx->bytes, false));
        append(acc, quantity_boxes(x->dst_ld, x->dst_region, true));
        const std::size_t u = em.stream_op(stream_key(x->dst_stream), mx->t.tag,
                                           "ipc-unpack " + dir3(mx->t.dir), std::move(acc));
        em.order(w, u);
      }
      em.token_signal(done_token(mx->t.tag), mx->t.src_rank, mx->t.tag);
    }

    // Phase 7': drain the sends, same order they started.
    for (std::size_t si = 0; si < started.size(); ++si) {
      const verify::Op s = rp.ops[started[si]];
      const Method sm = started_group[si] >= 0 ? Method::kStaged
                                               : started_xfer[si]->method;
      const std::size_t ws = em.wait_send(s.peer, s.tag, s.bytes, eager_send(sm, s.bytes),
                                          started_group[si] >= 0 ? "agg" : "xfer");
      if (started_group[si] >= 0) em.claim(ws, tagspace::kAggRangeName);
    }
  }

  return m;
}

verify::Report DistributedDomain::verify_plan(const plan::CompiledPlan& p) const {
  return verify::verify(verify_model(p));
}

void DistributedDomain::set_verify_plans(bool on) {
  verify_plans_ = on;
  install_admission();
}

void DistributedDomain::install_admission() {
  if (!verify_plans_) {
    plan_cache_.set_admission(nullptr);
    return;
  }
  plan_cache_.set_admission([this](const plan::CompiledPlan& p) {
    const verify::Report r = verify_plan(p);
    if (r.clean()) return std::string{};
    std::ostringstream os;
    r.write(os);
    return os.str();
  });
}

}  // namespace stencil
