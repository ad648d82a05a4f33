#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/report.h"
#include "check/vclock.h"
#include "simpi/observer.h"
#include "simtime/engine.h"
#include "telemetry/critical_path.h"
#include "vgpu/observer.h"

namespace stencil::telemetry {
class Telemetry;
}

namespace stencil::check {

/// Vector-clock happens-before analyzer for the virtual CUDA/MPI substrate.
///
/// The simulation executes every op on one OS thread, so host sanitizers see
/// nothing; what can race is *virtual* concurrency — streams, events, and
/// MPI requests. The Checker rebuilds the happens-before partial order from
/// the ordering operations alone (stream FIFO, default-stream serialization,
/// event record/wait, stream/device synchronize, request post/completion,
/// barriers — never from virtual-time comparison, which would declare every
/// deterministic schedule race-free) and keeps per-byte-range access history
/// on every vgpu::Buffer it sees. Unordered write/write or read/write pairs
/// become findings naming both ops and the missing edge. On the same feed it
/// lints API misuse: copies through closed IPC mappings, waits on unrecorded
/// events, message truncation, tag-mismatched pairs, unwaited requests, and
/// streams destroyed with unsynchronized work.
///
/// Install with Cluster::set_checker (or Runtime::set_checker +
/// Job::set_checker directly); read `report()` after the run.
class Checker : public vgpu::RuntimeObserver, public simpi::JobObserver {
 public:
  explicit Checker(sim::Engine& eng) : eng_(eng) {}

  CheckReport& report() { return report_; }
  const CheckReport& report() const { return report_; }

  /// Optional telemetry sink: every finding (race, leak, lint, ...) is
  /// counted by kind and triggers a flight-recorder tail dump, exactly like
  /// deadlocks and transport errors. Cluster cross-wires this when both a
  /// checker and a telemetry sink are installed.
  void set_telemetry(telemetry::Telemetry* t) { telemetry_ = t; }

  /// Ordered log of every happens-before edge the checker derived from real
  /// synchronization (event waits, stream/device syncs, MPI post/completion,
  /// barriers), in resource-description form. Feed it to
  /// telemetry::CriticalPath::add_hb_edges to refine the critical chain with
  /// the exact sync structure instead of timeline heuristics. Bounded: after
  /// kMaxHbEdges the log stops growing (analysis windows are short; the cap
  /// only guards arbitrarily long checked runs).
  const std::vector<telemetry::HbEdge>& hb_edges() const { return hb_edges_; }
  void clear_hb_edges() { hb_edges_.clear(); }

  static constexpr std::size_t kMaxHbEdges = 1u << 20;

  /// Run teardown lints (unwaited requests, tag-mismatched pairs, streams
  /// with unsynchronized work). Called automatically at Job end; call
  /// directly when driving the Runtime without a Job.
  void finish();

  // --- vgpu::RuntimeObserver ---------------------------------------------
  void on_op(const vgpu::OpInfo& op) override;
  void on_stream_create(const vgpu::Stream& s) override;
  void on_record_event(const vgpu::Event& ev, const vgpu::Stream& s) override;
  void on_stream_wait_event(const vgpu::Stream& s, const vgpu::Event& ev) override;
  void on_event_synchronize(const vgpu::Event& ev) override;
  void on_event_query(const vgpu::Event& ev, bool complete) override;
  void on_stream_synchronize(const vgpu::Stream& s) override;
  void on_device_synchronize(int ggpu) override;
  void on_stream_destroy(const vgpu::Stream& s) override;
  void on_ipc_misuse(const vgpu::IpcMappedPtr& p, const std::string& what) override;

  // --- simpi::JobObserver -------------------------------------------------
  void on_job_start(int world_size) override;
  void on_job_end() override;
  void on_post(const simpi::MsgInfo& m) override;
  void on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv, bool delivered,
                bool same_node) override;
  void on_truncation(const simpi::MsgInfo& send, const simpi::MsgInfo& recv) override;
  void on_request_done(std::uint64_t serial) override;
  void on_request_cancel(std::uint64_t serial) override;
  void on_barrier_arrive(std::uint64_t generation) override;
  void on_barrier_release(std::uint64_t generation) override;
  void on_persistent_init(const simpi::MsgInfo& m) override;
  void on_persistent_start(const simpi::MsgInfo& m) override;
  void on_persistent_free(std::uint64_t serial, bool active) override;

 private:
  /// One recorded access: performed at `at.tid`'s epoch `at.epoch`. A later
  /// access with clock C is ordered after it iff at.epoch <= C[at.tid], so
  /// the record needs no clock of its own: every ordering test reads only
  /// the incoming access's clock.
  struct AccessRec {
    Epoch at;
    std::string label;  // trace label of the op, plus its logical thread
    sim::Time when = 0;
  };

  /// Access history of one byte range of one buffer. Segments are disjoint
  /// and keyed by start offset in the per-buffer map; they split whenever a
  /// new access covers them partially.
  struct Segment {
    std::size_t end = 0;
    bool has_write = false;
    AccessRec write;
    std::vector<AccessRec> reads;
  };

  struct StreamState {
    Tid tid = 0;
    VClock clock;            // knowledge of the last op enqueued on the stream
    std::string last_label;  // for the destroy-with-pending-work lint
  };

  struct DeviceClocks {
    VClock all;   // join of every op on the device (any stream)
    VClock dflt;  // join of default-stream ops + CUDA-aware MPI occupation
  };

  struct EventState {
    VClock clock;          // stream knowledge captured at record time
    std::string src_desc;  // stream that recorded it (hb-edge log)
  };

  struct ReqState {
    Tid tid = 0;
    VClock completion;  // what wait/test joins into the waiter
    bool resolved = false;
    bool done = false;
    bool cancelled = false;
    bool is_send = false;
    // Persistent lifecycle: one ReqState per Record, re-armed on each start.
    // Active (in flight) means started and not yet completed.
    bool persistent = false;
    bool freed = false;
    std::uint64_t starts = 0;
    int src = -1, dst = -1, tag = 0;
    std::string desc;
  };

  VClock& host_clock();
  StreamState& stream_state(const vgpu::Stream& s);
  const std::string& tid_desc(Tid t) const;
  Tid new_tid(std::string desc);
  void record_access(const vgpu::MemAccess& a, const Epoch& at, const VClock& clock,
                     const std::string& label, sim::Time when);
  /// `clock` is the incoming access's happens-before knowledge.
  void check_pair(const AccessRec& prior, bool prior_is_write, const AccessRec& cur,
                  const VClock& clock, bool cur_is_write);
  void apply_access(Segment& seg, const AccessRec& rec, const VClock& clock, bool write);
  void add_race(FindingKind kind, const AccessRec& prior, const AccessRec& cur);
  std::string edge_hint(Tid from, Tid to) const;
  /// Files a finding: notifies the telemetry sink, then adds to the report.
  void add_finding(Finding f);
  /// Append to the hb-edge log (no-op past kMaxHbEdges). `msg` carries the
  /// message identity (request serial) for edges derived from MPI matching.
  void log_hb(std::string from, std::string to, std::uint64_t msg = 0);
  /// Description of the calling host actor ("rank0", ...), creating its tid.
  const std::string& host_desc();

  sim::Engine& eng_;
  CheckReport report_;
  telemetry::Telemetry* telemetry_ = nullptr;
  Tid next_tid_ = 1;
  std::unordered_map<Tid, std::string> tid_descs_;
  std::unordered_map<int, Tid> host_tids_;  // engine actor id -> tid
  std::unordered_map<Tid, VClock> host_clocks_;
  std::map<std::pair<int, std::uint64_t>, StreamState> streams_;  // (device, id)
  std::unordered_map<int, DeviceClocks> devices_;
  std::unordered_map<const vgpu::Event*, EventState> events_;
  std::unordered_map<std::uint64_t, ReqState> requests_;  // by serial
  std::unordered_map<std::uint64_t, VClock> barriers_;    // by generation
  // Shadow memory: buffer id -> disjoint segments keyed by start offset.
  std::unordered_map<std::uint64_t, std::map<std::size_t, Segment>> shadow_;
  std::vector<telemetry::HbEdge> hb_edges_;
  // Race dedup: (kind, first label, second label) already reported.
  std::set<std::string> reported_;
};

}  // namespace stencil::check
