#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simtime/engine.h"

namespace sim = stencil::sim;

TEST(Engine, SingleActorAdvancesTime) {
  sim::Engine eng;
  sim::Time seen = -1;
  eng.run({[&] {
    EXPECT_EQ(sim::Engine::current()->now(), 0);
    sim::Engine::current()->sleep_for(100);
    seen = sim::Engine::current()->now();
  }});
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, SleepUntilPastIsNoop) {
  sim::Engine eng;
  eng.run({[&] {
    auto* e = sim::Engine::current();
    e->sleep_for(50);
    e->sleep_until(10);  // already past
    EXPECT_EQ(e->now(), 50);
  }});
}

TEST(Engine, NegativeOrZeroSleepIsNoop) {
  sim::Engine eng;
  eng.run({[&] {
    auto* e = sim::Engine::current();
    e->sleep_for(0);
    e->sleep_for(-5);
    EXPECT_EQ(e->now(), 0);
  }});
}

TEST(Engine, TwoActorsInterleaveDeterministically) {
  sim::Engine eng;
  std::vector<std::string> log;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             log.push_back("a0@" + std::to_string(e->now()));
             e->sleep_for(10);
             log.push_back("a0@" + std::to_string(e->now()));
             e->sleep_for(20);  // wakes at 30
             log.push_back("a0@" + std::to_string(e->now()));
           },
           [&] {
             auto* e = sim::Engine::current();
             log.push_back("a1@" + std::to_string(e->now()));
             e->sleep_for(15);
             log.push_back("a1@" + std::to_string(e->now()));
           }});
  const std::vector<std::string> expect = {"a0@0", "a1@0", "a0@10", "a1@15", "a0@30"};
  EXPECT_EQ(log, expect);
}

TEST(Engine, SameWakeTimeBreaksTiesByAdmissionOrder) {
  sim::Engine eng;
  std::vector<int> order;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 5; ++i) {
    bodies.push_back([&order, i] {
      sim::Engine::current()->sleep_until(100);
      order.push_back(i);
    });
  }
  eng.run(std::move(bodies));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, YieldRotatesSameTimeActors) {
  sim::Engine eng;
  std::vector<int> order;
  eng.run({[&] {
             order.push_back(0);
             sim::Engine::current()->yield();
             order.push_back(0);
           },
           [&] {
             order.push_back(1);
             sim::Engine::current()->yield();
             order.push_back(1);
           }});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Engine, ActorIdAndName) {
  sim::Engine eng;
  eng.run({[&] {
             EXPECT_EQ(sim::Engine::current()->actor_id(), 0);
             EXPECT_EQ(sim::Engine::current()->actor_name(), "alpha");
           },
           [&] {
             EXPECT_EQ(sim::Engine::current()->actor_id(), 1);
             EXPECT_EQ(sim::Engine::current()->actor_name(), "beta");
           }},
          {"alpha", "beta"});
}

TEST(Engine, TimeContinuesAcrossRuns) {
  sim::Engine eng;
  eng.run({[] { sim::Engine::current()->sleep_for(42); }});
  EXPECT_EQ(eng.now(), 42);
  eng.run({[] {
    EXPECT_EQ(sim::Engine::current()->now(), 42);
    sim::Engine::current()->sleep_for(8);
  }});
  EXPECT_EQ(eng.now(), 50);
}

TEST(Engine, ExceptionInActorPropagatesToRun) {
  sim::Engine eng;
  EXPECT_THROW(eng.run({[] { throw std::runtime_error("boom"); }}), std::runtime_error);
}

namespace {
// Counts destructor runs, to prove an aborted actor's stack was unwound.
struct DtorCounter {
  int* count;
  ~DtorCounter() { ++*count; }
};

// Runs `fn` from its destructor.
template <typename Fn>
struct OnScopeExit {
  Fn fn;
  ~OnScopeExit() { fn(); }
};
template <typename Fn>
OnScopeExit(Fn) -> OnScopeExit<Fn>;
}  // namespace

TEST(Engine, ExceptionAbortsOtherActors) {
  sim::Engine eng;
  sim::Gate gate("never");
  bool other_finished_normally = false;
  int dtors = 0;
  try {
    eng.run({[] {
               sim::Engine::current()->sleep_for(10);
               throw std::runtime_error("boom");
             },
             [&] {
               DtorCounter c{&dtors};
               sim::Engine::current()->sleep_for(1000000);
               other_finished_normally = true;
             },
             [&] {
               DtorCounter c{&dtors};
               gate.wait(*sim::Engine::current(), "forever");
               other_finished_normally = true;
             }});
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_FALSE(other_finished_normally);
  EXPECT_EQ(dtors, 2);
}

TEST(Engine, DeadlockUnwindsBlockedActors) {
  sim::Engine eng;
  sim::Gate gate("never");
  int dtors = 0;
  auto body = [&] {
    DtorCounter c{&dtors};
    gate.wait(*sim::Engine::current());
  };
  EXPECT_THROW(eng.run({body, body, body}), sim::DeadlockError);
  EXPECT_EQ(dtors, 3);
}

TEST(Engine, CaughtExceptionStateIsPerActor) {
  // Both actors block inside their own catch handler while the other's
  // handler is open; after resuming, `throw;` must rethrow the actor's own
  // exception, and leaving one handler must not pop the other's.
  sim::Engine eng;
  sim::Gate gate("flag");
  bool flag = false;
  std::vector<std::string> rethrown(2);
  std::vector<int> uncaught(2, -1);
  auto check = [&](int id) {
    uncaught[static_cast<std::size_t>(id)] = std::uncaught_exceptions();
    try {
      throw;
    } catch (const std::runtime_error& again) {
      rethrown[static_cast<std::size_t>(id)] = again.what();
    }
  };
  eng.run({[&] {
             try {
               throw std::runtime_error("actor0");
             } catch (const std::runtime_error&) {
               while (!flag) gate.wait(*sim::Engine::current(), "flag");
               check(0);
             }
           },
           [&] {
             auto* e = sim::Engine::current();
             try {
               throw std::runtime_error("actor1");
             } catch (const std::runtime_error&) {
               e->sleep_for(5);
               flag = true;
               gate.notify_all(*e);
               e->sleep_for(5);
               check(1);
             }
           }});
  EXPECT_EQ(rethrown, (std::vector<std::string>{"actor0", "actor1"}));
  EXPECT_EQ(uncaught, (std::vector<int>{0, 0}));
}

TEST(Engine, UncaughtExceptionCountIsPerActor) {
  // Actor 0 blocks in a destructor while its exception propagates; actor 1
  // runs meanwhile and must not see that in-flight exception.
  sim::Engine eng;
  std::vector<int> seen;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             try {
               OnScopeExit guard{[&] {
                 seen.push_back(std::uncaught_exceptions());
                 e->sleep_for(10);
                 seen.push_back(std::uncaught_exceptions());
               }};
               throw std::runtime_error("unwinding");
             } catch (const std::runtime_error&) {
               seen.push_back(std::uncaught_exceptions());
             }
           },
           [&] {
             auto* e = sim::Engine::current();
             e->sleep_for(5);
             seen.push_back(10 + std::uncaught_exceptions());
           }});
  EXPECT_EQ(seen, (std::vector<int>{1, 10, 1, 0}));
}

namespace {
// The rounding mode as both FP units see it: fegetround() reads the x87
// control word, and a double division rounds by MXCSR.
std::pair<int, double> fp_mode() {
  volatile double one = 1.0;
  volatile double three = 3.0;
  return {std::fegetround(), one / three};
}

[[gnu::noinline]] std::uintptr_t frame_misalignment() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) % 16;
}

// Recurses `level` frames of 1 KiB each and calls `bottom` at the bottom.
// Returns what `bottom` returns plus the number of frames whose contents
// changed meanwhile.
[[gnu::noinline]] int deep_frames_changed(int level, std::uint64_t tag,
                                          const std::function<int()>& bottom) {
  std::uint64_t frame[128];
  for (std::uint64_t i = 0; i < 128; ++i) frame[i] = tag * 1000003u + level * 131u + i;
  asm volatile("" : : "r"(frame) : "memory");  // the compiler must re-read it below
  int changed = level == 0 ? bottom() : deep_frames_changed(level - 1, tag, bottom);
  for (std::uint64_t i = 0; i < 128; ++i) {
    if (frame[i] != tag * 1000003u + level * 131u + i) return changed + 1;
  }
  return changed;
}

struct Arrivals {
  sim::Engine& e;
  sim::Gate& gate;
  int actors;
  int arrived = 0;
};

// Holds sixteen values derived from `k` live across a yield, a sleep and a
// wait for every actor's arrival, calling the engine directly so no other
// frame of ours sits between them and the switch. Returns how many changed.
// Volatile sources keep the compiler from recomputing the values; the empty
// asm statements keep the integers in general registers on both sides of
// the calls, so they live in callee-saved registers (or the stack) rather
// than in vectors.
[[gnu::noinline]] int values_changed_across_blocking(Arrivals& a, std::uint64_t k) {
  volatile std::uint64_t vn[8];
  volatile double vx[8];
  for (int j = 0; j < 8; ++j) {
    vn[j] = k * static_cast<std::uint64_t>(2 * j + 1);
    vx[j] = static_cast<double>(k >> (j + 11)) * 0.5 + j;
  }
  std::uint64_t n0 = vn[0], n1 = vn[1], n2 = vn[2], n3 = vn[3], n4 = vn[4], n5 = vn[5],
                n6 = vn[6], n7 = vn[7];
  const double x0 = vx[0], x1 = vx[1], x2 = vx[2], x3 = vx[3], x4 = vx[4], x5 = vx[5],
               x6 = vx[6], x7 = vx[7];
  asm volatile("" : "+r"(n0), "+r"(n1), "+r"(n2), "+r"(n3), "+r"(n4), "+r"(n5), "+r"(n6),
               "+r"(n7));
  a.e.yield();
  a.e.sleep_for(static_cast<sim::Duration>(k % 7) + 1);
  if (++a.arrived == a.actors) {
    a.gate.notify_all(a.e);
  } else {
    while (a.arrived < a.actors) a.gate.wait(a.e, "arrive");
  }
  a.e.yield();
  asm volatile("" : "+r"(n0), "+r"(n1), "+r"(n2), "+r"(n3), "+r"(n4), "+r"(n5), "+r"(n6),
               "+r"(n7));
  const std::uint64_t got_n[8] = {n0, n1, n2, n3, n4, n5, n6, n7};
  const double got_x[8] = {x0, x1, x2, x3, x4, x5, x6, x7};
  int changed = 0;
  for (int j = 0; j < 8; ++j) changed += (got_n[j] != vn[j]) + (got_x[j] != vx[j]);
  return changed;
}
}  // namespace

TEST(Engine, FloatingPointControlIsPerActor) {
  // Actor 0 switches to round-upward and sleeps; actor 1 runs meanwhile in
  // the default mode, and actor 0 resumes in its own. The run() caller gets
  // its mode back when the run ends.
  sim::Engine eng;
  const auto nearest = fp_mode();
  ASSERT_EQ(nearest.first, FE_TONEAREST);
  std::vector<std::pair<int, double>> seen;
  eng.run({[&] {
             std::fesetround(FE_UPWARD);
             sim::Engine::current()->sleep_for(10);
             seen.push_back(fp_mode());
           },
           [&] {
             sim::Engine::current()->sleep_for(5);
             seen.push_back(fp_mode());
           }});
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], nearest);
  EXPECT_EQ(seen[1].first, FE_UPWARD);
  EXPECT_GT(seen[1].second, nearest.second);
  EXPECT_EQ(fp_mode(), nearest);
}

TEST(Engine, ActorStacksAreAbiAligned) {
  sim::Engine eng;
  std::vector<std::uintptr_t> misalign;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 3; ++i) {
    bodies.push_back([&, i] {
      auto* e = sim::Engine::current();
      misalign.push_back(frame_misalignment());
      e->sleep_for(i + 1);
      misalign.push_back(frame_misalignment());
      e->yield();
      misalign.push_back(frame_misalignment());
    });
  }
  eng.run(std::move(bodies));
  EXPECT_EQ(misalign, std::vector<std::uintptr_t>(9, 0));
}

TEST(Engine, CalleeSavedStateSurvivesSwitches) {
  // Each actor holds more live integers and doubles than there are
  // callee-saved registers, under ~1 MiB of its own stack frames, across a
  // yield, a sleep and a gate wait while the other actors run the same code.
  constexpr int kActors = 4;
  sim::Engine eng;
  sim::Gate gate("all-arrived");
  Arrivals arrivals{eng, gate, kActors};
  std::vector<int> wrong(kActors, -1);
  std::vector<std::function<void()>> bodies;
  for (int id = 0; id < kActors; ++id) {
    bodies.push_back([&, id] {
      const std::uint64_t k = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(id + 1);
      const int bad = deep_frames_changed(1024, k, [&] {
        return values_changed_across_blocking(arrivals, k);
      });
      wrong[static_cast<std::size_t>(id)] = bad;
    });
  }
  eng.run(std::move(bodies));
  EXPECT_EQ(arrivals.arrived, kActors);
  EXPECT_EQ(wrong, std::vector<int>(kActors, 0));
}

TEST(Engine, GoldenMixedSchedule) {
  // Pins the exact schedule of a program that mixes every blocking call:
  // sleep_for/sleep_until, yield, Gate::wait, and Gate::wait_until both
  // timing out and notified before its deadline (which re-keys a timed
  // waiter). The log and counters below are the reference schedule.
  sim::Engine eng;
  sim::Gate ga("a");
  sim::Gate gb("b");
  bool ready = false;
  std::vector<std::string> log;
  auto note = [&](const std::string& what) {
    auto* e = sim::Engine::current();
    log.push_back(e->actor_name() + "@" + std::to_string(e->now()) + " " + what);
  };
  eng.run(
      {[&] {
         auto* e = sim::Engine::current();
         note("start");
         e->sleep_for(10);
         note("slept");
         e->yield();
         note("yielded");
         e->sleep_until(30);
         ready = true;
         ga.notify_all(*e);
         note("notified a");
         e->sleep_for(5);
         gb.notify_all(*e);
         note("notified b");
       },
       [&] {
         auto* e = sim::Engine::current();
         note("start");
         while (!ready) ga.wait(*e, "ready");
         note("woke");
         e->yield();
         note("yielded");
       },
       [&] {
         auto* e = sim::Engine::current();
         note("start");
         const bool n = gb.wait_until(*e, 20, "short");
         note(n ? "notified" : "timed out");
         e->sleep_for(3);
         note("slept");
         e->sleep_until(1500);  // between long's stale deadline and its wakeup
         note("late");
       },
       [&] {
         auto* e = sim::Engine::current();
         note("start");
         const bool n = gb.wait_until(*e, 1000, "long");
         note(n ? "notified" : "timed out");
         e->sleep_for(2000);  // outlives the stale entry at its old deadline
         note("slept");
       },
       [&] {
         auto* e = sim::Engine::current();
         e->sleep_for(30);
         for (int i = 0; i < 3; ++i) {
           note("spin");
           e->yield();
         }
         note("done");
       }},
      {"sleeper", "waiter", "short", "long", "yielder"});
  const std::vector<std::string> expect = {
      "sleeper@0 start",      "waiter@0 start",     "short@0 start",
      "long@0 start",         "sleeper@10 slept",   "sleeper@10 yielded",
      "short@20 timed out",   "short@23 slept",     "yielder@30 spin",
      "sleeper@30 notified a", "yielder@30 spin",   "waiter@30 woke",
      "yielder@30 spin",      "waiter@30 yielded",  "yielder@30 done",
      "sleeper@35 notified b", "long@35 notified",  "short@1500 late",
      "long@2035 slept",
  };
  EXPECT_EQ(log, expect);
  EXPECT_EQ(eng.now(), 2035);
  EXPECT_EQ(eng.context_switches(), 18u);
  EXPECT_EQ(eng.events_processed(), 20u);
  EXPECT_EQ(eng.max_run_queue_depth(), 5u);
}

TEST(Engine, GateWaitAndNotify) {
  sim::Engine eng;
  sim::Gate gate("test");
  bool flag = false;
  std::vector<std::string> log;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             while (!flag) gate.wait(*e);
             log.push_back("woke@" + std::to_string(e->now()));
           },
           [&] {
             auto* e = sim::Engine::current();
             e->sleep_for(500);
             flag = true;
             gate.notify_all(*e);
           }});
  EXPECT_EQ(log, (std::vector<std::string>{"woke@500"}));
}

TEST(Engine, GateDeadlockDetected) {
  sim::Engine eng;
  sim::Gate gate("never");
  EXPECT_THROW(eng.run({[&] { gate.wait(*sim::Engine::current()); }}), sim::DeadlockError);
}

TEST(Engine, GateDeadlockAmongSeveralActors) {
  sim::Engine eng;
  sim::Gate gate("never");
  EXPECT_THROW(eng.run({[&] { gate.wait(*sim::Engine::current()); },
                        [&] { gate.wait(*sim::Engine::current()); },
                        [&] { sim::Engine::current()->sleep_for(5); }}),
               sim::DeadlockError);
}

TEST(Engine, StaleWakeupsNeitherCountNorAdvanceTime) {
  // Each notify re-keys a timed waiter and strands its deadline entry in
  // the run queue. Those entries must not deepen the queue, wake anyone, or
  // move virtual time once the run drains them.
  sim::Engine eng;
  sim::Gate gate("tick");
  int notified = 0;
  eng.run({[&] {
             auto* e = sim::Engine::current();
             for (int i = 0; i < 10; ++i) {
               if (gate.wait_until(*e, e->now() + 1000, "tick")) ++notified;
             }
           },
           [&] {
             auto* e = sim::Engine::current();
             for (int i = 0; i < 10; ++i) {
               e->sleep_for(1);
               gate.notify_all(*e);
             }
           }});
  EXPECT_EQ(notified, 10);
  EXPECT_EQ(eng.now(), 10);
  EXPECT_EQ(eng.max_run_queue_depth(), 2u);
  EXPECT_EQ(eng.context_switches(), 21u);
  EXPECT_EQ(eng.events_processed(), 22u);
}

TEST(Engine, CallsOutsideActorThrow) {
  sim::Engine eng;
  EXPECT_THROW(eng.actor_id(), std::logic_error);
  EXPECT_THROW(eng.sleep_for(5), std::logic_error);
}

TEST(Engine, ManyActorsDeterministicSchedule) {
  // Run the same 50-actor program twice and require identical logs.
  auto run_once = [] {
    sim::Engine eng;
    std::vector<std::string> log;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 50; ++i) {
      bodies.push_back([&log, i] {
        auto* e = sim::Engine::current();
        for (int k = 0; k < 5; ++k) {
          e->sleep_for((i * 7 + k * 13) % 29 + 1);
          log.push_back(std::to_string(i) + ":" + std::to_string(e->now()));
        }
      });
    }
    eng.run(std::move(bodies));
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ContextSwitchFastPath) {
  // A single actor sleeping repeatedly should not need token handoffs
  // beyond the initial one.
  sim::Engine eng;
  eng.run({[] {
    for (int i = 0; i < 100; ++i) sim::Engine::current()->sleep_for(10);
  }});
  EXPECT_LE(eng.context_switches(), 2u);
}

TEST(TimeFormat, Units) {
  EXPECT_EQ(sim::format_duration(500), "500 ns");
  EXPECT_EQ(sim::format_duration(1500), "1.500 us");
  EXPECT_EQ(sim::format_duration(2500000), "2.500 ms");
  EXPECT_EQ(sim::format_duration(3 * sim::kSecond), "3.000 s");
}

TEST(TimeFormat, TransferTime) {
  // 1 GiB at 1 GiB/s = 1 s.
  EXPECT_EQ(sim::transfer_time(1ull << 30, 1.0), sim::kSecond);
  // Zero bandwidth means free (used for disabled links).
  EXPECT_EQ(sim::transfer_time(12345, 0.0), 0);
}
