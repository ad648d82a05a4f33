#pragma once

/// \file transfer_state.h
/// Private definitions of DistributedDomain's per-transfer runtime state,
/// shared by distributed_domain.cpp and verify_model.cpp (which lowers the
/// state into the static verifier's IR). Not part of the public API.

#include <memory>
#include <utility>
#include <vector>

#include "core/distributed_domain.h"
#include "core/region.h"
#include "simtime/engine.h"

namespace stencil {

/// The stand-in for a cudaIpcEventHandle pair: a shared channel through
/// which the COLOCATED sender and receiver synchronize without MPI.
/// data_ev/data_gen flow sender -> receiver ("generation N has landed in
/// your buffer"); done_ev/done_gen flow back ("generation N is unpacked,
/// the buffer may be overwritten"). The receiver owns the channel; the
/// sender learns its address during the one-time setup handshake.
struct DistributedDomain::IpcEventChannel {
  vgpu::Event data_ev;
  std::uint64_t data_gen = 0;
  vgpu::Event done_ev;
  std::uint64_t done_gen = 0;
  // Distributed tracing: span id of the sender's "ipc push" marker for the
  // generation in data_gen, so the receiver can draw a causal arrow along
  // the IPC handshake. 0 when the recorder is not causal.
  std::uint64_t data_span = 0;
  sim::Gate gate{"colocated-channel"};
  // Set by the sender when its IPC mapping went stale and it rerouted this
  // generation over MPI; tells a receiver parked on data_gen to fall back.
  bool demoted = false;
};

/// Per-transfer runtime state: streams, packed buffers, staging buffers,
/// and in-flight requests. A transfer where this rank is both sender and
/// receiver (PEER, KERNEL, or MPI-to-self) populates both halves.
struct DistributedDomain::TransferState {
  Transfer t;
  bool i_send = false;
  bool i_recv = false;
  LocalDomain* src_ld = nullptr;
  LocalDomain* dst_ld = nullptr;
  Region3 src_region{};
  Region3 dst_region{};
  std::size_t bytes = 0;         // full-quantity-set message size
  std::size_t active_bytes = 0;  // size for the exchange in flight

  vgpu::Stream src_stream;
  vgpu::Stream dst_stream;
  vgpu::Buffer src_pack;  // device, on src GPU
  vgpu::Buffer dst_pack;  // device, on dst GPU
  vgpu::Buffer src_host;  // pinned host (STAGED sender)
  vgpu::Buffer dst_host;  // pinned host (STAGED receiver)

  std::unique_ptr<IpcEventChannel> channel;  // COLOCATED receiver owns
  IpcEventChannel* peer_channel = nullptr;   // COLOCATED sender's view
  vgpu::IpcMappedPtr mapped;                 // sender's mapping of dst_pack

  vgpu::Event ready_ev;  // sender: packed (+staged) data ready for MPI

  // Runtime demotion bookkeeping. `aggregated` marks membership in an
  // AggGroup fixed at realize(); a transfer demoted to STAGED later is not
  // a member, so the staged phases must handle it individually even when
  // aggregation is on. `handled_seq` marks that the COLOCATED fallback
  // already packed and queued this generation's send, so Phase 3 (which now
  // sees method == kStaged) must not send it twice.
  bool aggregated = false;
  std::uint64_t handled_seq = 0;

  // Which exchange phases this transfer takes part in, by its current
  // method. Local work is the pure-CUDA chain of KERNEL and PEER; an MPI
  // message of its own is sent by CUDA-aware and by individual (not
  // aggregated) STAGED transfers.
  bool is_local_work() const {
    return t.method == Method::kPeer || (t.method == Method::kKernel && i_send);
  }
  bool has_own_message() const {
    return t.method == Method::kCudaAwareMpi || (t.method == Method::kStaged && !aggregated);
  }
  bool sends_message() const { return i_send && has_own_message(); }
  bool receives_message() const { return i_recv && has_own_message(); }

  // The message payloads: pinned staging memory for STAGED, device memory
  // for CUDA-aware MPI.
  simpi::Payload send_payload() {
    return simpi::Payload::of(t.method == Method::kStaged ? src_host : src_pack, 0, active_bytes);
  }
  simpi::Payload recv_payload() {
    return simpi::Payload::of(t.method == Method::kStaged ? dst_host : dst_pack, 0, active_bytes);
  }
};

/// One aggregated STAGED message: every staged transfer between this rank
/// and `peer_rank` (in one direction) rides in a single pinned buffer, each
/// member at its `agg_offset`.
struct DistributedDomain::AggGroup {
  int peer_rank = -1;
  std::size_t bytes = 0;
  vgpu::Buffer host;  // pinned, on this rank's node (sized for all quantities)
  std::vector<std::pair<TransferState*, std::size_t>> members;  // (transfer, full offset)
  // Layout of the exchange in flight (selective exchanges shrink it).
  std::size_t active_bytes = 0;
  std::vector<std::size_t> active_offsets;

  simpi::Payload payload() { return simpi::Payload::of(host, 0, active_bytes); }
};

}  // namespace stencil
