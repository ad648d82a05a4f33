#include "simtime/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <cxxabi.h>
#include <sstream>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define STENCIL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STENCIL_ASAN 1
#endif
#endif

#ifdef STENCIL_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__) || defined(_WIN32)
#error "simtime: stencil_sim_switch_stack exists only for the x86-64 SysV ABI; port it"
#endif

// Suspend the calling fiber and resume another. Pushes the SysV callee-saved
// registers and the floating-point control state (MXCSR, x87 control word),
// stores the resulting stack pointer to *save_sp, loads load_sp, and pops the
// same frame off the other stack. Every other register is caller-saved, so
// the compiler already preserves what it needs around this call. The
// signal mask is not part of a fiber (nothing changes it), so a switch makes
// no system call. The frame has the same shape on every stack, so the CFI
// below stays valid on both sides of the swap.
extern "C" __attribute__((visibility("hidden"))) void stencil_sim_switch_stack(void** save_sp,
                                                                               void* load_sp);
asm(R"(
  .pushsection .text
  .p2align 4
  .globl stencil_sim_switch_stack
  .hidden stencil_sim_switch_stack
  .type stencil_sim_switch_stack, @function
stencil_sim_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size stencil_sim_switch_stack, .-stencil_sim_switch_stack
  .popsection
)");

namespace stencil::sim {

namespace {
struct TlsBinding {
  Engine* engine = nullptr;
  int actor_id = -1;
};
thread_local TlsBinding tls;

// Every actor gets the glibc pthread default stack size. The mapping is
// MAP_NORESERVE and never touched up front, so only the pages an actor
// actually uses become resident.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

// The C++ runtime's per-thread exception state (__cxa_eh_globals in the
// Itanium ABI): the chain of caught exceptions that `throw;` and
// std::current_exception() read, and the count std::uncaught_exceptions()
// returns. All fibers share one thread, so each switch saves the outgoing
// fiber's copy and installs the incoming one's.
struct EhGlobals {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

EhGlobals& eh_globals() { return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals()); }

// What stencil_sim_switch_stack pops, lowest address first. A new actor's
// stack starts with one of these on top, so the first switch to it "returns"
// into fiber_entry with rsp = 8 (mod 16), as at any function entry.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;  // 0: frame-pointer walks stop here
  void (*ret)();
  void* entry_ret;  // fiber_entry's return address: 0, it never returns
};
static_assert(sizeof(SwitchFrame) == 72 && alignof(SwitchFrame) == 8);
}  // namespace

struct Engine::Fiber {
  void* sp = nullptr;  // saved stack pointer while suspended
  EhGlobals eh;
  // Usable stack (above the guard page). For the run() caller it stays
  // unknown until ASan reports it on the first switch away from it.
  const void* stack_lo = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
};

struct Engine::Actor : Fiber {
  int id = -1;
  std::function<void()> body;
  std::string name;
  void* mapping = nullptr;  // the stack's mmap region, guard page first
  State state = State::kDone;  // until first scheduled
  Time wake_time = 0;
  std::uint64_t seq = 0;       // admission order for same-time tie-breaks
  Gate* gate = nullptr;        // which gate, when kGateBlocked (diagnostics)
  bool gate_notified = false;  // wait_until: woken by notify, not timeout
  std::string block_detail;    // caller-supplied reason for the block
  Time blocked_at = 0;

  Actor(int i, std::function<void()> b, std::string n)
      : id(i), body(std::move(b)), name(std::move(n)) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapping = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (mapping == MAP_FAILED) {
      mapping = nullptr;
      throw std::system_error(errno, std::generic_category(), "mmap actor stack");
    }
    // Stacks grow down: an overflow hits the PROT_NONE page and faults.
    if (mprotect(mapping, page, PROT_NONE) != 0) {
      const int err = errno;
      release_stack();
      throw std::system_error(err, std::generic_category(), "mprotect actor stack guard");
    }
    stack_lo = static_cast<char*>(mapping) + page;
    stack_size = kStackBytes - page;
    // The actor starts in the floating-point mode of the thread creating
    // it; from then on its mode is its own.
    SwitchFrame seed{};
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(seed.mxcsr), "=m"(seed.x87_cw));
    seed.ret = &Engine::fiber_entry;
    const auto top = reinterpret_cast<std::uintptr_t>(mapping) + kStackBytes;  // 16-aligned
    sp = reinterpret_cast<void*>(top - sizeof(SwitchFrame));
    std::memcpy(sp, &seed, sizeof seed);
  }
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;
  ~Actor() { release_stack(); }

  void release_stack() {
    if (mapping == nullptr) return;
#ifdef STENCIL_ASAN
    // A later mapping may reuse these addresses: drop this stack's redzones.
    ASAN_UNPOISON_MEMORY_REGION(stack_lo, stack_size);
#endif
    munmap(mapping, kStackBytes);
    mapping = nullptr;
  }
};

namespace {
// Heap order for std::push_heap/pop_heap: the front is the least
// (at, seq), i.e. the earliest wakeup, ties broken by admission order.
constexpr auto later = [](const auto& a, const auto& b) {
  return a.at > b.at || (a.at == b.at && a.seq > b.seq);
};
}  // namespace

std::string DeadlockReport::to_string() const {
  std::ostringstream oss;
  oss << "simulation deadlock at t=" << format_duration(at) << ":";
  for (const auto& b : actors) {
    oss << " [" << (b.actor.empty() ? "actor" : b.actor) << " <- gate '" << b.resource << "'";
    if (!b.detail.empty()) oss << " (" << b.detail << ")";
    oss << " since t=" << format_duration(b.blocked_at) << "]";
  }
  return oss.str();
}

DeadlockError::DeadlockError(DeadlockReport rep)
    : std::runtime_error(rep.to_string()),
      report_(std::make_shared<const DeadlockReport>(std::move(rep))) {}

Engine::Engine() = default;
Engine::~Engine() = default;

Engine* Engine::current() { return tls.engine; }

int Engine::actor_id() const {
  check_in_actor();
  return tls.actor_id;
}

const std::string& Engine::actor_name() const {
  check_in_actor();
  return actors_[static_cast<std::size_t>(tls.actor_id)]->name;
}

void Engine::check_in_actor() const {
  if (tls.engine != this || tls.actor_id < 0) {
    throw std::logic_error("Engine call outside of an actor body");
  }
}

Engine::Actor& Engine::calling_actor() { return *actors_[static_cast<std::size_t>(tls.actor_id)]; }

void Engine::run(std::vector<std::function<void()>> bodies, std::vector<std::string> names) {
  if (bodies.empty()) return;
  if (tls.engine != nullptr) {
    throw std::logic_error("Engine::run() may not be called from inside an actor");
  }
  if (live_actors_ != 0) {
    throw std::logic_error("Engine::run() is already active");
  }
  shutdown_ = false;
  first_error_ = nullptr;
  actors_.clear();
  run_queue_.clear();
  timed_actors_ = 0;
  actors_.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    actors_.push_back(std::make_unique<Actor>(static_cast<int>(i), std::move(bodies[i]),
                                              i < names.size() ? std::move(names[i])
                                                               : std::string{}));
  }
  for (auto& a : actors_) schedule(*a, now_);
  live_actors_ = static_cast<int>(actors_.size());

  Fiber caller;
  caller_ = &caller;
  tls.engine = this;
  Actor* first = pick_next();
  assert(first != nullptr);
  ++context_switches_;
  switch_to(caller, *first, first->id);

  // Back here once every actor has finished, or once a shutdown left
  // blocked actors with nothing runnable: resume each in turn so it unwinds
  // with SimulationAborted and its destructors run.
  for (auto& a : actors_) {
    if (a->state != State::kDone) switch_to(caller, *a, a->id);
  }
  tls.engine = nullptr;
  caller_ = nullptr;
  for (auto& a : actors_) a->release_stack();

  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void Engine::switch_to(Fiber& from, Fiber& to, int to_id, bool from_exits) {
  tls.actor_id = to_id;
  EhGlobals& eh = eh_globals();
  from.eh = eh;
  eh = to.eh;
#ifdef STENCIL_ASAN
  __sanitizer_start_switch_fiber(from_exits ? nullptr : &from.asan_fake_stack, to.stack_lo,
                                 to.stack_size);
#else
  (void)from_exits;
#endif
  stencil_sim_switch_stack(&from.sp, to.sp);
  // Resumed: whoever switched back here has already restored our state.
#ifdef STENCIL_ASAN
  __sanitizer_finish_switch_fiber(from.asan_fake_stack, nullptr, nullptr);
#endif
}

void Engine::fiber_entry() {
  Engine& eng = *tls.engine;
  Actor& self = eng.calling_actor();
#ifdef STENCIL_ASAN
  // The first fiber of a run is entered from the run() caller: learn its
  // stack so later switches back to it can be announced.
  const void* from_lo = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_lo, &from_size);
  if (eng.caller_->stack_size == 0) {
    eng.caller_->stack_lo = from_lo;
    eng.caller_->stack_size = from_size;
  }
#endif
  eng.actor_main(self);
}

void Engine::actor_main(Actor& self) {
  set_state(self, State::kRunning);
  run_body(self);
  set_state(self, State::kDone);
  --live_actors_;
  if (live_actors_ > 0) {
    if (Actor* next = pick_next()) {
      ++context_switches_;
      switch_to(self, *next, next->id, /*from_exits=*/true);
    }
    // Every remaining actor is gate-blocked: they can never wake. Nothing
    // may propagate out of a fiber, so a throwing watchdog becomes the error.
    if (!shutdown_) {
      try {
        report_deadlock();
      } catch (...) {
        begin_shutdown(std::current_exception());
      }
    }
  }
  switch_to(self, *caller_, -1, /*from_exits=*/true);
}

void Engine::run_body(Actor& self) {
  // This fiber never returns, so every object with a destructor must live
  // and die in here, before actor_main() switches away for good.
  if (shutdown_) return;  // started only to be unwound
  try {
    self.body();
  } catch (const SimulationAborted&) {
    // Unwinding due to another actor's failure; not a new error.
  } catch (...) {
    begin_shutdown(std::current_exception());
  }
}

void Engine::sleep_for(Duration d) {
  if (d <= 0) return;
  sleep_until(now_ + d);
}

void Engine::sleep_until(Time t) {
  check_in_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during sleep");
  if (t <= now_) return;
  Actor& self = calling_actor();
  schedule(self, t);
  block(self);
}

void Engine::yield() {
  check_in_actor();
  if (shutdown_) throw SimulationAborted("simulation aborted during yield");
  Actor& self = calling_actor();
  schedule(self, now_);  // go to the back of the same-time queue
  block(self);
}

void Engine::schedule(Actor& a, Time t) {
  a.wake_time = t;
  a.seq = next_seq_++;
  set_state(a, State::kTimed);
  run_queue_.push_back(Wakeup{t, a.seq, &a});
  std::push_heap(run_queue_.begin(), run_queue_.end(), later);
}

void Engine::set_state(Actor& a, State s) {
  if (a.state == State::kTimed) --timed_actors_;
  if (s == State::kTimed) ++timed_actors_;
  a.state = s;
}

void Engine::block(Actor& self) {
  Actor* next = pick_next();
  if (next == nullptr) {
    report_deadlock();
  } else if (next != &self) {
    ++context_switches_;
    switch_to(self, *next, next->id);
  }
  // else fast path: we are still the best candidate; no handoff.
  set_state(self, State::kRunning);
  if (shutdown_) throw SimulationAborted("simulation aborted while blocked");
}

Engine::Actor* Engine::pick_next() {
  while (!run_queue_.empty()) {
    std::pop_heap(run_queue_.begin(), run_queue_.end(), later);
    const Wakeup w = run_queue_.back();
    run_queue_.pop_back();
    Actor& a = *w.actor;
    if (a.state != State::kTimed || a.seq != w.seq) continue;  // stale entry
    ++events_processed_;
    max_run_queue_depth_ = std::max(max_run_queue_depth_, timed_actors_);
    if (a.wake_time > now_) now_ = a.wake_time;
    return &a;
  }
  return nullptr;
}

void Engine::report_deadlock() {
  DeadlockReport rep;
  rep.at = now_;
  for (const auto& a : actors_) {
    if (a->state != State::kGateBlocked) continue;
    rep.actors.push_back(BlockedActorInfo{a->name.empty() ? "actor" : a->name,
                                          a->gate != nullptr ? a->gate->name() : "?",
                                          a->block_detail, a->blocked_at});
  }
  if (watchdog_) watchdog_(rep);
  begin_shutdown(std::make_exception_ptr(DeadlockError(std::move(rep))));
}

void Engine::begin_shutdown(std::exception_ptr err) {
  if (!first_error_) first_error_ = std::move(err);
  shutdown_ = true;
}

void Engine::set_block_detail(std::string detail) {
  check_in_actor();
  calling_actor().block_detail = std::move(detail);
}

void Gate::wait(Engine& eng, std::string detail) {
  eng.check_in_actor();
  if (eng.shutdown_) throw SimulationAborted("simulation aborted during gate wait");
  Engine::Actor& self = eng.calling_actor();
  self.gate = this;
  if (!detail.empty()) self.block_detail = std::move(detail);
  self.blocked_at = eng.now_;
  waiters_.push_back(&self);
  eng.set_state(self, Engine::State::kGateBlocked);
  eng.block(self);
  self.gate = nullptr;
  // NOTE: notify_all() removes us from waiters_; if we are unwinding due to
  // shutdown we may still be registered, which is harmless.
}

bool Gate::wait_until(Engine& eng, Time deadline, std::string detail) {
  eng.check_in_actor();
  if (eng.shutdown_) throw SimulationAborted("simulation aborted during gate wait");
  if (deadline <= eng.now_) return false;  // already expired; caller re-checks
  Engine::Actor& self = eng.calling_actor();
  self.gate = this;
  if (!detail.empty()) self.block_detail = std::move(detail);
  self.blocked_at = eng.now_;
  self.gate_notified = false;
  waiters_.push_back(&self);
  // Timed, not gate-blocked: the deadline guarantees a wakeup, so this
  // waiter never participates in a deadlock.
  eng.schedule(self, deadline);
  eng.block(self);
  const bool notified = self.gate_notified;
  if (!notified) {
    waiters_.erase(std::remove(waiters_.begin(), waiters_.end(), &self), waiters_.end());
  }
  self.gate = nullptr;
  return notified;
}

void Gate::notify_all(Engine& eng) {
  eng.check_in_actor();
  for (Engine::Actor* a : waiters_) {
    if (a->state == Engine::State::kGateBlocked || a->state == Engine::State::kTimed) {
      a->gate_notified = true;
      // Re-keying a timed waiter leaves its deadline entry stale in the heap.
      eng.schedule(*a, eng.now_);
    }
  }
  waiters_.clear();
}

}  // namespace stencil::sim
