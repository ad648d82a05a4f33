#include "check/checker.h"

#include <algorithm>

#include "simpi/mpi.h"
#include "telemetry/telemetry.h"
#include "vgpu/runtime.h"

namespace stencil::check {

namespace {

std::string stream_desc(const vgpu::Stream& s) {
  return "gpu" + std::to_string(s.device) +
         (s.id == 0 ? std::string("/default") : "/s" + std::to_string(s.id));
}

std::string req_desc(const simpi::MsgInfo& m) {
  return std::string(m.persistent ? "persistent " : "") + (m.is_send ? "isend" : "irecv") + " r" +
         std::to_string(m.src) + "->r" + std::to_string(m.dst) + " tag=" + std::to_string(m.tag) +
         " (req#" + std::to_string(m.serial) + ")";
}

}  // namespace

VClock& Checker::host_clock() {
  const int actor = eng_.actor_id();
  auto it = host_tids_.find(actor);
  if (it == host_tids_.end()) {
    const std::string& name = eng_.actor_name();
    const Tid t = new_tid(name.empty() ? "actor" + std::to_string(actor) : name);
    it = host_tids_.emplace(actor, t).first;
    host_clocks_[t].bump(t);
  }
  return host_clocks_[it->second];
}

void Checker::log_hb(std::string from, std::string to, std::uint64_t msg) {
  if (hb_edges_.size() >= kMaxHbEdges) return;
  hb_edges_.push_back({std::move(from), std::move(to), eng_.now(), msg});
}

void Checker::add_finding(Finding f) {
  if (telemetry_ != nullptr) telemetry_->on_checker_finding(to_string(f.kind), f.at);
  report_.add(std::move(f));
}

const std::string& Checker::host_desc() {
  host_clock();  // ensure the calling actor has a tid
  return tid_desc(host_tids_[eng_.actor_id()]);
}

Checker::StreamState& Checker::stream_state(const vgpu::Stream& s) {
  const std::pair<int, std::uint64_t> key{s.device, s.id};
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    StreamState st;
    st.tid = new_tid("stream " + stream_desc(s));
    it = streams_.emplace(key, std::move(st)).first;
  }
  return it->second;
}

const std::string& Checker::tid_desc(Tid t) const {
  static const std::string kUnknown = "?";
  auto it = tid_descs_.find(t);
  return it == tid_descs_.end() ? kUnknown : it->second;
}

Tid Checker::new_tid(std::string desc) {
  const Tid t = next_tid_++;
  tid_descs_.emplace(t, std::move(desc));
  return t;
}

std::string Checker::edge_hint(Tid from, Tid to) const {
  return "no happens-before edge from [" + tid_desc(from) + "] to [" + tid_desc(to) +
         "]: order them via an event (record_event + stream_wait_event / "
         "event_synchronize), a stream/device synchronize, or request completion";
}

void Checker::add_race(FindingKind kind, const AccessRec& prior, const AccessRec& cur) {
  const std::string key =
      std::string(to_string(kind)) + "|" + prior.label + "|" + cur.label;
  if (!reported_.insert(key).second) return;
  Finding f;
  f.kind = kind;
  f.first = prior.label + " @ t=" + sim::format_duration(prior.when);
  f.second = cur.label + " @ t=" + sim::format_duration(cur.when);
  f.missing_edge = edge_hint(prior.at.tid, cur.at.tid);
  f.at = eng_.now();
  add_finding(std::move(f));
}

void Checker::check_pair(const AccessRec& prior, bool prior_is_write, const AccessRec& cur,
                         const VClock& clock, bool cur_is_write) {
  if (!prior_is_write && !cur_is_write) return;  // read/read never races
  if (prior.at.ordered_before(clock)) return;
  add_race(prior_is_write && cur_is_write ? FindingKind::kWriteWriteRace
                                          : FindingKind::kReadWriteRace,
           prior, cur);
}

void Checker::apply_access(Segment& seg, const AccessRec& rec, const VClock& clock,
                           bool write) {
  if (write) {
    if (seg.has_write) check_pair(seg.write, true, rec, clock, true);
    for (const AccessRec& r : seg.reads) check_pair(r, false, rec, clock, true);
    seg.write = rec;
    seg.has_write = true;
    seg.reads.clear();
  } else {
    if (seg.has_write) check_pair(seg.write, true, rec, clock, false);
    // Keep only reads not already ordered before this one (their causal
    // history is contained in rec's, so rec subsumes them for any future
    // write's race check).
    seg.reads.erase(std::remove_if(seg.reads.begin(), seg.reads.end(),
                                   [&](const AccessRec& r) {
                                     return r.at.ordered_before(clock);
                                   }),
                    seg.reads.end());
    seg.reads.push_back(rec);
  }
}

void Checker::record_access(const vgpu::MemAccess& a, const Epoch& at, const VClock& clock,
                            const std::string& label, sim::Time when) {
  if (a.buf == nullptr || a.bytes == 0) return;
  auto& segs = shadow_[a.buf->id()];
  const AccessRec rec{at, label, when};
  const std::size_t lo = a.offset;
  const std::size_t hi = a.offset + a.bytes;
  std::size_t cur = lo;

  auto it = segs.lower_bound(lo);
  if (it != segs.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > lo) it = prev;
  }
  while (cur < hi) {
    if (it == segs.end() || it->first >= hi) {
      Segment fresh;
      fresh.end = hi;
      apply_access(fresh, rec, clock, a.write);
      segs.emplace(cur, std::move(fresh));
      return;
    }
    if (it->first > cur) {  // gap before the next segment
      Segment fresh;
      fresh.end = it->first;
      apply_access(fresh, rec, clock, a.write);
      segs.emplace(cur, std::move(fresh));
      cur = it->first;
      continue;
    }
    if (it->first < cur) {  // split off the untouched left part
      Segment right = it->second;
      it->second.end = cur;
      it = segs.emplace(cur, std::move(right)).first;
      continue;
    }
    // it->first == cur: trim to the accessed range, then apply.
    if (it->second.end > hi) {
      Segment right = it->second;
      it->second.end = hi;
      segs.emplace(hi, std::move(right));
    }
    apply_access(it->second, rec, clock, a.write);
    cur = it->second.end;
    ++it;
  }
}

// --- vgpu::RuntimeObserver --------------------------------------------------

void Checker::on_op(const vgpu::OpInfo& op) {
  StreamState& ss = stream_state(*op.stream);
  DeviceClocks& dc = devices_[op.stream->device];
  VClock c = ss.clock;
  c.join(host_clock());
  // Legacy default stream ordering: the default stream serializes behind
  // every stream on the device; other streams serialize behind prior
  // default-stream work.
  c.join(op.stream->id == 0 ? dc.all : dc.dflt);
  const std::uint64_t ep = c.bump(ss.tid);
  const std::string label = *op.label + " [" + tid_desc(ss.tid) + "]";
  if (op.accesses != nullptr) {
    for (const vgpu::MemAccess& a : *op.accesses) {
      record_access(a, Epoch{ss.tid, ep}, c, label, op.start);
    }
  }
  ss.clock = c;
  ss.last_label = label;
  dc.all.join(c);
  if (op.stream->id == 0) dc.dflt.join(c);
}

void Checker::on_stream_create(const vgpu::Stream& s) { stream_state(s); }

void Checker::on_record_event(const vgpu::Event& ev, const vgpu::Stream& s) {
  // Re-recording overwrites: an event captures the stream frontier of its
  // most recent record, exactly like CUDA.
  EventState& es = events_[&ev];
  es.clock = stream_state(s).clock;
  es.src_desc = stream_desc(s);
}

void Checker::on_stream_wait_event(const vgpu::Stream& s, const vgpu::Event& ev) {
  if (!ev.recorded) {
    Finding f;
    f.kind = FindingKind::kWaitUnrecordedEvent;
    f.first = "stream_wait_event on [" + stream_desc(s) + "]";
    f.second = "event was never recorded; the wait is a no-op and orders nothing";
    f.missing_edge = "record_event must happen-before the wait that consumes it";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    stream_state(s).clock.join(it->second.clock);
    log_hb(it->second.src_desc, stream_desc(s));
  }
}

void Checker::on_event_synchronize(const vgpu::Event& ev) {
  if (!ev.recorded) {
    Finding f;
    f.kind = FindingKind::kWaitUnrecordedEvent;
    f.first = "event_synchronize";
    f.second = "event was never recorded; the sync returns immediately and orders nothing";
    f.missing_edge = "record_event must happen-before the synchronize that consumes it";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    host_clock().join(it->second.clock);
    log_hb(it->second.src_desc, host_desc());
  }
}

void Checker::on_event_query(const vgpu::Event& ev, bool complete) {
  // A successful query is a legitimate completion observation (polling):
  // the queried work happened-before everything the caller does next.
  if (!complete || !ev.recorded) return;
  auto it = events_.find(&ev);
  if (it != events_.end()) {
    host_clock().join(it->second.clock);
    log_hb(it->second.src_desc, host_desc());
  }
}

void Checker::on_stream_synchronize(const vgpu::Stream& s) {
  host_clock().join(stream_state(s).clock);
  log_hb(stream_desc(s), host_desc());
}

void Checker::on_device_synchronize(int ggpu) {
  host_clock().join(devices_[ggpu].all);
  log_hb("gpu" + std::to_string(ggpu), host_desc());
}

void Checker::on_stream_destroy(const vgpu::Stream& s) {
  StreamState& ss = stream_state(s);
  if (!ss.clock.leq(host_clock())) {
    Finding f;
    f.kind = FindingKind::kStreamDestroyedPending;
    f.first = "destroy_stream [" + stream_desc(s) + "]";
    f.second = "last unsynchronized op: " + ss.last_label;
    f.missing_edge = "synchronize the stream (or an event recorded after its last op) "
                     "before destroying it";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  streams_.erase({s.device, s.id});
}

void Checker::on_ipc_misuse(const vgpu::IpcMappedPtr& p, const std::string& what) {
  Finding f;
  f.kind = FindingKind::kStaleIpcMapping;
  f.first = what;
  f.second = "mapping to gpu" + std::to_string(p.device) +
             (p.closed ? " (closed by ipc_close_mem_handle)" : " (never opened)");
  f.missing_edge = "all copies through a mapping must happen-before its close";
  f.at = eng_.now();
  add_finding(std::move(f));
}

// --- simpi::JobObserver -----------------------------------------------------

void Checker::on_job_start(int world_size) {
  (void)world_size;
  // Engine actor ids are reused across Job::run calls and the previous
  // run's work is all complete before a new one starts: fence everything.
  VClock fence;
  for (const auto& [tid, c] : host_clocks_) fence.join(c);
  for (const auto& [key, ss] : streams_) fence.join(ss.clock);
  for (const auto& [g, dc] : devices_) fence.join(dc.all);
  for (auto& [tid, c] : host_clocks_) c.join(fence);
  for (auto& [key, ss] : streams_) ss.clock.join(fence);
  for (auto& [g, dc] : devices_) {
    dc.all.join(fence);
    dc.dflt.join(fence);
  }
}

void Checker::on_job_end() { finish(); }

void Checker::on_post(const simpi::MsgInfo& m) {
  ReqState rs;
  rs.desc = req_desc(m);
  rs.tid = new_tid(rs.desc);
  rs.is_send = m.is_send;
  rs.src = m.src;
  rs.dst = m.dst;
  rs.tag = m.tag;
  VClock c = host_clock();
  const std::uint64_t ep = c.bump(rs.tid);
  if (m.is_send && m.payload->buf != nullptr) {
    // MPI reads the send buffer between post and completion; record the
    // read at the request's own epoch so that an overwrite before MPI_Wait
    // races with it even though the host itself never touches the bytes.
    record_access(vgpu::MemAccess{m.payload->buf, m.payload->offset, m.payload->bytes, false},
                  Epoch{rs.tid, ep}, c, rs.desc, eng_.now());
  }
  rs.completion = c;  // eager sends complete with just their post knowledge
  log_hb(host_desc(), "mpi.r" + std::to_string(m.src) + "->r" + std::to_string(m.dst), m.serial);
  requests_.emplace(m.serial, std::move(rs));
}

void Checker::on_match(const simpi::MsgInfo& send, const simpi::MsgInfo& recv, bool delivered,
                       bool same_node) {
  auto sit = requests_.find(send.serial);
  auto rit = requests_.find(recv.serial);
  if (sit == requests_.end() || rit == requests_.end()) return;
  ReqState& ss = sit->second;
  ReqState& rr = rit->second;
  ss.resolved = rr.resolved = true;

  VClock m = ss.completion;
  m.join(rr.completion);
  if (!delivered) {
    // Message lost (fault injection): both waits observe the failure but no
    // data moved, so there is no write access to record.
    if (!send.buffered) ss.completion = m;
    rr.completion = m;
    return;
  }

  const bool dev_s = send.payload->is_device();
  const bool dev_r = recv.payload->is_device();
  const int sgpu = dev_s ? send.payload->buf->owner() : -1;
  const int rgpu = dev_r ? recv.payload->buf->owner() : -1;
  if (!same_node) {
    // Inter-node CUDA-aware path: the library brackets its copies with
    // device synchronization (device_ready_barrier), so the message
    // happens-after all prior work on the involved devices...
    if (dev_s) m.join(devices_[sgpu].all);
    if (dev_r) m.join(devices_[rgpu].all);
  }
  const std::uint64_t ep = m.bump(rr.tid);
  if (recv.payload->buf != nullptr) {
    record_access(
        vgpu::MemAccess{recv.payload->buf, recv.payload->offset, send.payload->bytes, true},
        Epoch{rr.tid, ep}, m, rr.desc, eng_.now());
  }
  if (!send.buffered) ss.completion = m;
  rr.completion = m;
  if (!same_node) {
    // ...and occupies the default streams: subsequent device ops on any
    // stream of the involved devices serialize behind the message.
    if (dev_s) {
      devices_[sgpu].dflt.join(m);
      devices_[sgpu].all.join(m);
    }
    if (dev_r) {
      devices_[rgpu].dflt.join(m);
      devices_[rgpu].all.join(m);
    }
  }
  // Intra-node CUDA-aware messages move over cudaIpc with *no* stream
  // synchronization (the mapping cost is CPU work), so no device joins:
  // callers must order device payloads with the message themselves.
}

void Checker::on_truncation(const simpi::MsgInfo& send, const simpi::MsgInfo& recv) {
  Finding f;
  f.kind = FindingKind::kSizeMismatch;
  f.first = req_desc(send) + " sends " + std::to_string(send.payload->bytes) + "B";
  f.second = req_desc(recv) + " provides only " + std::to_string(recv.payload->bytes) + "B";
  f.missing_edge = "recv buffer must be at least the matched message size";
  f.at = eng_.now();
  add_finding(std::move(f));
}

void Checker::on_request_done(std::uint64_t serial) {
  auto it = requests_.find(serial);
  if (it == requests_.end()) return;
  it->second.done = true;
  host_clock().join(it->second.completion);
  if (it->second.src >= 0) {
    log_hb("mpi.r" + std::to_string(it->second.src) + "->r" + std::to_string(it->second.dst),
           host_desc(), serial);
  }
}

void Checker::on_request_cancel(std::uint64_t serial) {
  auto it = requests_.find(serial);
  if (it != requests_.end()) it->second.cancelled = true;
}

void Checker::on_barrier_arrive(std::uint64_t generation) {
  barriers_[generation].join(host_clock());
}

void Checker::on_barrier_release(std::uint64_t generation) {
  host_clock().join(barriers_[generation]);
  log_hb("barrier#" + std::to_string(generation), host_desc());
}

void Checker::on_persistent_init(const simpi::MsgInfo& m) {
  // Like on_post, but nothing is in flight yet: no send-buffer read is
  // recorded until the first start re-arms the request.
  ReqState rs;
  rs.desc = req_desc(m);
  rs.tid = new_tid(rs.desc);
  rs.is_send = m.is_send;
  rs.persistent = true;
  rs.src = m.src;
  rs.dst = m.dst;
  rs.tag = m.tag;
  rs.completion = host_clock();
  requests_.emplace(m.serial, std::move(rs));
}

void Checker::on_persistent_start(const simpi::MsgInfo& m) {
  auto it = requests_.find(m.serial);
  if (it == requests_.end()) return;
  ReqState& rs = it->second;
  if (rs.starts > 0 && !rs.done && !rs.cancelled) {
    // Second start before the previous operation completed: MPI erroneous.
    Finding f;
    f.kind = FindingKind::kPersistentRestart;
    f.first = rs.desc;
    f.second = "start #" + std::to_string(rs.starts + 1) + " while start #" +
               std::to_string(rs.starts) + " is still in flight";
    f.missing_edge = "the previous start must complete (wait/test/wait_any) before the next";
    f.at = eng_.now();
    add_finding(std::move(f));
    return;
  }
  // Re-arm: same tid (same reusable Record), fresh epoch. The send-buffer
  // read is re-recorded per start — the bytes differ every iteration even
  // though the envelope is frozen.
  rs.done = false;
  rs.resolved = false;
  ++rs.starts;
  VClock c = host_clock();
  const std::uint64_t ep = c.bump(rs.tid);
  if (m.is_send && m.payload->buf != nullptr) {
    record_access(vgpu::MemAccess{m.payload->buf, m.payload->offset, m.payload->bytes, false},
                  Epoch{rs.tid, ep}, c, rs.desc, eng_.now());
  }
  rs.completion = c;
}

void Checker::on_persistent_free(std::uint64_t serial, bool active) {
  auto it = requests_.find(serial);
  if (it == requests_.end()) return;
  ReqState& rs = it->second;
  rs.freed = true;
  if (active) {
    Finding f;
    f.kind = FindingKind::kPersistentFreedActive;
    f.first = rs.desc;
    f.second = "freed while start #" + std::to_string(rs.starts) + " is still in flight";
    f.missing_edge = "complete the active operation before request_free";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
}

// --- teardown lints ---------------------------------------------------------

void Checker::finish() {
  // Requests never completed by wait/test/wait_any. When an unmatched send
  // and recv connect the same pair of ranks with different tags, report the
  // likelier root cause (tag mismatch) instead of two leak findings.
  std::vector<const ReqState*> leaked;
  for (const auto& [serial, rs] : requests_) {
    if (rs.persistent) {
      // Inactive persistent requests (never started, or completed since the
      // last start) are a valid resting state, not leaks; only requests still
      // in flight at teardown are reported.
      if (rs.starts > 0 && !rs.done && !rs.cancelled) leaked.push_back(&rs);
      continue;
    }
    if (!rs.done && !rs.cancelled) leaked.push_back(&rs);
  }
  std::vector<bool> consumed(leaked.size(), false);
  for (std::size_t i = 0; i < leaked.size(); ++i) {
    if (consumed[i] || leaked[i]->resolved || !leaked[i]->is_send) continue;
    for (std::size_t j = 0; j < leaked.size(); ++j) {
      if (consumed[j] || leaked[j]->resolved || leaked[j]->is_send) continue;
      if (leaked[i]->src == leaked[j]->src && leaked[i]->dst == leaked[j]->dst &&
          leaked[i]->tag != leaked[j]->tag) {
        Finding f;
        f.kind = FindingKind::kTagMismatch;
        f.first = leaked[i]->desc;
        f.second = leaked[j]->desc;
        f.missing_edge = "tags must match for the pair to rendezvous";
        f.at = eng_.now();
        add_finding(std::move(f));
        consumed[i] = consumed[j] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < leaked.size(); ++i) {
    if (consumed[i]) continue;
    Finding f;
    f.kind = FindingKind::kRequestNeverWaited;
    f.first = leaked[i]->desc;
    f.second = leaked[i]->resolved ? "completed but never waited (request leak)"
                                   : "never matched and never waited";
    f.missing_edge = "every request must reach wait/test/wait_any before teardown";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  requests_.clear();

  // Streams whose last op no host actor ever observed completing.
  VClock all_hosts;
  for (const auto& [tid, c] : host_clocks_) all_hosts.join(c);
  for (const auto& [key, ss] : streams_) {
    if (ss.clock.leq(all_hosts)) continue;
    Finding f;
    f.kind = FindingKind::kStreamDestroyedPending;
    f.first = "[" + tid_desc(ss.tid) + "] has unsynchronized work at teardown";
    f.second = "last unsynchronized op: " + ss.last_label;
    f.missing_edge = "synchronize the stream before the job ends";
    f.at = eng_.now();
    add_finding(std::move(f));
  }
  events_.clear();
  barriers_.clear();
}

}  // namespace stencil::check
