#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "check/checker.h"
#include "check/report.h"
#include "check/vclock.h"
#include "core/cluster.h"
#include "core/distributed_domain.h"
#include "fault/fault.h"
#include "simpi/mpi.h"
#include "topo/archetype.h"

namespace sim = stencil::sim;
namespace topo = stencil::topo;
namespace vgpu = stencil::vgpu;
namespace simpi = stencil::simpi;
namespace fault = stencil::fault;
namespace check = stencil::check;

using check::FindingKind;
using stencil::Cluster;
using stencil::Dim3;
using stencil::DistributedDomain;
using stencil::LocalDomain;
using stencil::Method;
using stencil::MethodFlags;
using stencil::PackMode;
using stencil::RankCtx;

namespace {

std::string dump(const check::CheckReport& rep) {
  std::ostringstream os;
  rep.write(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// VClock / Epoch unit tests.
// ---------------------------------------------------------------------------

TEST(CheckVClock, JoinBumpAndLeq) {
  check::VClock a, b;
  EXPECT_TRUE(a.leq(b));
  const std::uint64_t e1 = a.bump(3);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(a.get(3), 1u);
  EXPECT_EQ(a.get(7), 0u);  // absent tids read as zero
  EXPECT_FALSE(a.leq(b));
  b.bump(3);
  b.bump(3);
  EXPECT_TRUE(a.leq(b));
  EXPECT_FALSE(b.leq(a));
  a.bump(9);
  b.join(a);
  EXPECT_EQ(b.get(3), 2u);  // join keeps the per-component max
  EXPECT_EQ(b.get(9), 1u);
  EXPECT_TRUE(a.leq(b));
}

TEST(CheckVClock, EpochOrderedBefore) {
  check::VClock c;
  c.bump(4);
  c.bump(4);
  EXPECT_TRUE((check::Epoch{4, 2}.ordered_before(c)));
  EXPECT_FALSE((check::Epoch{4, 3}.ordered_before(c)));
  EXPECT_FALSE((check::Epoch{5, 1}.ordered_before(c)));
}

// Property test against a dense reference: a std::map holding every
// component, compared after each operation through get() over the whole tid
// universe and through str(), which lists the stored entries in tid order.
using RefClock = std::map<check::Tid, std::uint64_t>;

constexpr check::Tid kTidUniverse = 24;

std::string ref_str(const RefClock& r) {
  std::string s = "{";
  for (const auto& [tid, v] : r) {
    if (s.size() > 1) s += ", ";
    s += std::to_string(tid) + ":" + std::to_string(v);
  }
  return s + "}";
}

void expect_same(const check::VClock& c, const RefClock& r) {
  for (check::Tid t = 0; t <= kTidUniverse + 1; ++t) {
    const auto it = r.find(t);
    ASSERT_EQ(c.get(t), it == r.end() ? 0u : it->second) << "tid " << t << " of " << c.str();
  }
  ASSERT_EQ(c.str(), ref_str(r));
  ASSERT_EQ(c.empty(), r.empty());
}

bool ref_leq(const RefClock& a, const RefClock& b) {
  for (const auto& [tid, v] : a) {
    const auto it = b.find(tid);
    if (v > (it == b.end() ? 0u : it->second)) return false;
  }
  return true;
}

/// A random sparse clock over tids 1..kTidUniverse, built through set().
std::pair<check::VClock, RefClock> random_clock(std::mt19937_64& rng, std::size_t max_entries) {
  check::VClock c;
  RefClock r;
  const std::size_t n = rng() % (max_entries + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const check::Tid t = 1 + static_cast<check::Tid>(rng() % kTidUniverse);
    const std::uint64_t v = 1 + rng() % 6;
    c.set(t, v);
    r[t] = v;
  }
  return {c, r};
}

/// A clock naming only (a random subset of) `base`'s tids: joining it into
/// `base` adds no entry.
std::pair<check::VClock, RefClock> random_subset(std::mt19937_64& rng, const RefClock& base) {
  check::VClock c;
  RefClock r;
  for (const auto& [tid, v] : base) {
    if (rng() % 2 == 0) continue;
    const std::uint64_t w = 1 + rng() % 6;
    c.set(tid, w);
    r[tid] = w;
  }
  return {c, r};
}

void ref_join(RefClock& a, const RefClock& b) {
  for (const auto& [tid, v] : b) a[tid] = std::max(a[tid], v);
}

TEST(CheckVClock, MatchesDenseReferenceOnRandomClocks) {
  std::mt19937_64 rng(20201);
  int subset_joins = 0, new_tid_joins = 0;
  for (int round = 0; round < 400; ++round) {
    auto [a, ra] = random_clock(rng, 10);
    expect_same(a, ra);
    for (int step = 0; step < 12; ++step) {
      const check::Tid t = 1 + static_cast<check::Tid>(rng() % kTidUniverse);
      switch (rng() % 4) {
        case 0: {
          const std::uint64_t v = 1 + rng() % 8;
          a.set(t, v);
          ra[t] = v;
          break;
        }
        case 1:
          ASSERT_EQ(a.bump(t), ++ra[t]);
          break;
        case 2: {
          // Alternate joins that add no entry (subset) and joins that add entries.
          const bool subset = rng() % 2 == 0;
          auto [b, rb] = subset ? random_subset(rng, ra) : random_clock(rng, 10);
          const bool names_new = std::any_of(rb.begin(), rb.end(), [&](const auto& e) {
            return ra.count(e.first) == 0;
          });
          ++(names_new ? new_tid_joins : subset_joins);
          ASSERT_EQ(a.leq(b), ref_leq(ra, rb));
          ASSERT_EQ(b.leq(a), ref_leq(rb, ra));
          a.join(b);
          ref_join(ra, rb);
          expect_same(b, rb);  // the argument is left untouched
          ASSERT_TRUE(b.leq(a));
          break;
        }
        default: {
          auto [b, rb] = random_clock(rng, 10);
          ASSERT_EQ(a.leq(b), ref_leq(ra, rb));
          ASSERT_EQ(b.leq(a), ref_leq(rb, ra));
          break;
        }
      }
      expect_same(a, ra);
    }
  }
  EXPECT_GT(subset_joins, 100);
  EXPECT_GT(new_tid_joins, 100);
}

TEST(CheckVClock, JoinEdgeCases) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    auto [a, ra] = random_clock(rng, 12);
    // Empty on either side.
    check::VClock empty;
    a.join(empty);
    expect_same(a, ra);
    check::VClock e2;
    e2.join(a);
    expect_same(e2, ra);
    EXPECT_TRUE(empty.leq(a));
    EXPECT_EQ(a.leq(empty), ra.empty());
    // Joining a clock with itself changes nothing.
    a.join(a);
    expect_same(a, ra);
    EXPECT_TRUE(a.leq(a));
  }
  check::VClock none, also_none;
  none.join(also_none);
  expect_same(none, {});
}

// ---------------------------------------------------------------------------
// Runtime-level fixtures: one actor driving the virtual CUDA runtime, with
// the checker attached directly (no MPI job, so finish() is called by hand).
// ---------------------------------------------------------------------------

template <typename F>
check::CheckReport run_checked(F&& body, int nodes = 1) {
  sim::Engine eng;
  topo::Machine machine(topo::summit(), nodes);
  vgpu::Runtime rt(eng, machine);
  check::Checker chk(eng);
  rt.set_checker(&chk);
  eng.run({[&] { body(rt); }});
  chk.finish();
  return chk.report();
}

TEST(CheckRaces, UnorderedWritesOnTwoStreamsRace) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 1024, "w1", [] {}, {{&buf, 0, 1024, true}});
    rt.launch_kernel(s2, 1024, "w2", [] {}, {{&buf, 0, 1024, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  ASSERT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
  const check::Finding& f = rep.findings()[0];
  // The finding names both racing ops and the missing ordering edge.
  EXPECT_NE(f.first.find("w1"), std::string::npos) << f.first;
  EXPECT_NE(f.second.find("w2"), std::string::npos) << f.second;
  EXPECT_NE(f.missing_edge.find("no happens-before edge"), std::string::npos) << f.missing_edge;
}

TEST(CheckRaces, EventEdgeOrdersStreams) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 1024, "w1", [] {}, {{&buf, 0, 1024, true}});
    vgpu::Event done;
    rt.record_event(done, s1);
    rt.stream_wait_event(s2, done);
    rt.launch_kernel(s2, 1024, "w2", [] {}, {{&buf, 0, 1024, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, SameStreamFifoIsOrdered) {
  // The KERNEL pattern: a self-exchange reads and rewrites overlapping
  // ranges of one allocation, back to back, on a single stream.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 4096);
    auto s = rt.create_stream(0);
    for (int it = 0; it < 3; ++it) {
      rt.launch_kernel(s, 4096, "self", [] {},
                       {{&buf, 0, 2048, false}, {&buf, 2048, 2048, true}});
      rt.launch_kernel(s, 4096, "compute", [] {},
                       {{&buf, 0, 4096, true}});
    }
    rt.stream_synchronize(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, OverlappingRangesSplitSegments) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 1024);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    // Disjoint halves never race; a partial overlap does.
    rt.launch_kernel(s1, 512, "left", [] {}, {{&buf, 0, 512, true}});
    rt.launch_kernel(s2, 512, "right", [] {}, {{&buf, 512, 512, true}});
    rt.launch_kernel(s2, 512, "middle", [] {}, {{&buf, 256, 512, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  // "middle" overlaps "left" on [256,512) only; "right" is FIFO-ordered
  // with "middle" on s2.
  ASSERT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("left"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("middle"), std::string::npos);
}

TEST(CheckRaces, ReadWriteRaceAcrossStreams) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 256, "reader", [] {}, {{&buf, 0, 256, false}});
    rt.launch_kernel(s2, 256, "writer", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  EXPECT_EQ(rep.count(FindingKind::kWriteWriteRace), 0u) << dump(rep);
}

TEST(CheckRaces, LegacyDefaultStreamSerializes) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto dflt = rt.default_stream(0);
    auto s = rt.create_stream(0);
    rt.launch_kernel(dflt, 256, "on-default", [] {}, {{&buf, 0, 256, true}});
    rt.launch_kernel(s, 256, "after-default", [] {}, {{&buf, 0, 256, true}});
    rt.launch_kernel(dflt, 256, "default-again", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(dflt);
    rt.stream_synchronize(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, StreamSynchronizeOrdersThroughHost) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.launch_kernel(s1, 256, "w1", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s1);
    rt.launch_kernel(s2, 256, "w2", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s2);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckRaces, MemcpyAccessesAreDerivedAutomatically) {
  // The PEER pattern without its event edge: pack-copy on one stream,
  // consume on another. No annotations needed — copies know their buffers.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto a = rt.alloc_device(0, 512);
    auto b = rt.alloc_device(0, 512);
    auto dst = rt.alloc_device(0, 512);
    auto s1 = rt.create_stream(0);
    auto s2 = rt.create_stream(0);
    rt.memcpy_async(dst, 0, a, 0, 512, s1);
    rt.memcpy_async(dst, 0, b, 0, 512, s2);
    rt.stream_synchronize(s1);
    rt.stream_synchronize(s2);
  });
  EXPECT_EQ(rep.count(FindingKind::kWriteWriteRace), 1u) << dump(rep);
}

TEST(CheckRaces, ReadPruningKeepsUnorderedReads) {
  // Reads of one range on streams A and B, unordered with each other. A
  // later read on A is ordered after A's first read only (stream FIFO), so
  // it replaces that read in the shadow history but must keep B's. A write
  // on C ordered (by event) after A alone then races with B's read, and with
  // nothing else.
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto a = rt.create_stream(0);
    auto b = rt.create_stream(0);
    auto c = rt.create_stream(0);
    rt.launch_kernel(a, 256, "read-a1", [] {}, {{&buf, 0, 256, false}});
    rt.launch_kernel(b, 256, "read-b", [] {}, {{&buf, 0, 256, false}});
    rt.launch_kernel(a, 256, "read-a2", [] {}, {{&buf, 0, 256, false}});
    vgpu::Event after_a;
    rt.record_event(after_a, a);
    rt.stream_wait_event(c, after_a);
    rt.launch_kernel(c, 256, "write-c", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(a);
    rt.stream_synchronize(b);
    rt.stream_synchronize(c);
  });
  ASSERT_EQ(rep.findings().size(), 1u) << dump(rep);
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  const check::Finding& f = rep.findings()[0];
  EXPECT_NE(f.first.find("read-b"), std::string::npos) << f.first;
  EXPECT_NE(f.second.find("write-c"), std::string::npos) << f.second;
}

// ---------------------------------------------------------------------------
// Runtime misuse lints.
// ---------------------------------------------------------------------------

TEST(CheckLints, WaitOnUnrecordedEvent) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto s = rt.create_stream(0);
    vgpu::Event never;
    rt.stream_wait_event(s, never);
    rt.event_synchronize(never);
  });
  EXPECT_EQ(rep.count(FindingKind::kWaitUnrecordedEvent), 2u) << dump(rep);
}

TEST(CheckLints, StreamDestroyedWithPendingWork) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "orphan", [] {}, {{&buf, 0, 256, true}});
    rt.destroy_stream(s);  // never synchronized
  });
  ASSERT_EQ(rep.count(FindingKind::kStreamDestroyedPending), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("orphan"), std::string::npos);
}

TEST(CheckLints, StreamDestroyedAfterSyncIsClean) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "ok", [] {}, {{&buf, 0, 256, true}});
    rt.stream_synchronize(s);
    rt.destroy_stream(s);
  });
  EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(CheckLints, UnsynchronizedStreamAtTeardown) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto buf = rt.alloc_device(0, 256);
    auto s = rt.create_stream(0);
    rt.launch_kernel(s, 256, "dangling", [] {}, {{&buf, 0, 256, true}});
    // Neither synchronized nor destroyed: finish() reports it.
  });
  EXPECT_EQ(rep.count(FindingKind::kStreamDestroyedPending), 1u) << dump(rep);
}

TEST(CheckLints, CopyThroughClosedIpcMapping) {
  auto rep = run_checked([](vgpu::Runtime& rt) {
    auto exported = rt.alloc_device(0, 256);
    auto src = rt.alloc_device(1, 256);
    auto s = rt.create_stream(1);
    auto handle = rt.ipc_get_mem_handle(exported);
    auto mapped = rt.ipc_open_mem_handle(handle, 1);
    rt.memcpy_to_ipc_async(mapped, 0, src, 0, 256, s);
    rt.stream_synchronize(s);
    rt.ipc_close_mem_handle(mapped);
    EXPECT_THROW(rt.memcpy_to_ipc_async(mapped, 0, src, 0, 256, s), std::logic_error);
  });
  ASSERT_EQ(rep.count(FindingKind::kStaleIpcMapping), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("closed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MPI-side fixtures: a real simpi::Job with the checker on both feeds.
// ---------------------------------------------------------------------------

struct CheckedWorld {
  sim::Engine eng;
  topo::Machine machine;
  vgpu::Runtime runtime;
  simpi::Job job;
  check::Checker chk;
  CheckedWorld(int nodes, int ranks_per_node)
      : machine(topo::summit(), nodes),
        runtime(eng, machine),
        job(eng, machine, runtime, ranks_per_node),
        chk(eng) {
    runtime.set_checker(&chk);
    job.set_checker(&chk);
  }
};

TEST(CheckMpi, SendBufferReuseBeforeWaitRaces) {
  CheckedWorld w(1, 2);
  constexpr std::size_t kBytes = 128 * 1024;  // above the eager limit
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      auto scratch = rt.alloc_device(0, kBytes);
      auto s = rt.create_stream(0);
      simpi::Request req = comm.isend(simpi::Payload::of(payload, 0, kBytes), 1, 7);
      // BUG under test: overwrite the in-flight send buffer before waiting.
      rt.memcpy_async(payload, 0, scratch, 0, kBytes, s);
      rt.stream_synchronize(s);
      comm.wait(req);
    } else {
      auto sink = rt.alloc_pinned_host(0, kBytes);
      comm.recv(simpi::Payload::of(sink, 0, kBytes), 0, 7);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  const check::Finding& f = rep.findings()[0];
  EXPECT_NE(f.first.find("isend"), std::string::npos) << f.first;
  EXPECT_NE(f.missing_edge.find("no happens-before edge"), std::string::npos);
}

TEST(CheckMpi, WaitedSendThenReuseIsClean) {
  CheckedWorld w(1, 2);
  constexpr std::size_t kBytes = 128 * 1024;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      auto payload = rt.alloc_pinned_host(0, kBytes);
      auto scratch = rt.alloc_device(0, kBytes);
      auto s = rt.create_stream(0);
      simpi::Request req = comm.isend(simpi::Payload::of(payload, 0, kBytes), 1, 7);
      comm.wait(req);
      rt.memcpy_async(payload, 0, scratch, 0, kBytes, s);
      rt.stream_synchronize(s);
    } else {
      auto sink = rt.alloc_pinned_host(0, kBytes);
      comm.recv(simpi::Payload::of(sink, 0, kBytes), 0, 7);
    }
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(CheckMpi, BarrierOrdersCrossRankAccesses) {
  CheckedWorld w(1, 2);
  vgpu::Buffer shared;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      shared = rt.alloc_device(0, 512);
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "producer", [] {}, {{&shared, 0, 512, true}});
      rt.stream_synchronize(s);
      comm.barrier();
    } else {
      comm.barrier();
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "consumer", [] {}, {{&shared, 0, 512, false}});
      rt.stream_synchronize(s);
    }
  });
  EXPECT_TRUE(w.chk.report().clean()) << dump(w.chk.report());
}

TEST(CheckMpi, BarrierWithoutStreamSyncStillRaces) {
  CheckedWorld w(1, 2);
  vgpu::Buffer shared;
  w.job.run([&](simpi::Comm& comm) {
    auto& rt = w.runtime;
    if (comm.rank() == 0) {
      shared = rt.alloc_device(0, 512);
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "producer", [] {}, {{&shared, 0, 512, true}});
      comm.barrier();  // BUG under test: the kernel was never synchronized
      rt.stream_synchronize(s);
    } else {
      comm.barrier();
      auto s = rt.create_stream(0);
      rt.launch_kernel(s, 512, "consumer", [] {}, {{&shared, 0, 512, false}});
      rt.stream_synchronize(s);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kReadWriteRace), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("producer"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("consumer"), std::string::npos);
}

TEST(CheckMpi, TruncatedMessageIsSizeMismatch) {
  CheckedWorld w(1, 2);
  EXPECT_THROW(w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(256);
    if (comm.rank() == 0) {
      comm.send(simpi::Payload::of_values(buf.data(), buf.size()), 1, 3);
    } else {
      comm.recv(simpi::Payload::of_values(buf.data(), 128), 0, 3);  // too small
    }
  }),
               std::runtime_error);
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kSizeMismatch), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("256B"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("128B"), std::string::npos);
}

TEST(CheckMpi, MismatchedTagsReportedAsPair) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(64);
    if (comm.rank() == 0) {
      (void)comm.isend(simpi::Payload::of_values(buf.data(), buf.size()), 1, 5);
    } else {
      (void)comm.irecv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 6);
    }
  });
  const auto& rep = w.chk.report();
  // One tag-mismatch finding pairing the two, not two separate leaks.
  ASSERT_EQ(rep.count(FindingKind::kTagMismatch), 1u) << dump(rep);
  EXPECT_EQ(rep.count(FindingKind::kRequestNeverWaited), 0u) << dump(rep);
  EXPECT_NE(rep.findings()[0].first.find("tag=5"), std::string::npos);
  EXPECT_NE(rep.findings()[0].second.find("tag=6"), std::string::npos);
}

TEST(CheckMpi, DeliveredButUnwaitedRequestLeaks) {
  CheckedWorld w(1, 2);
  w.job.run([&](simpi::Comm& comm) {
    std::vector<char> buf(64);
    if (comm.rank() == 0) {
      (void)comm.isend(simpi::Payload::of_values(buf.data(), buf.size()), 1, 2);  // never waited
    } else {
      comm.recv(simpi::Payload::of_values(buf.data(), buf.size()), 0, 2);
    }
  });
  const auto& rep = w.chk.report();
  ASSERT_EQ(rep.count(FindingKind::kRequestNeverWaited), 1u) << dump(rep);
  EXPECT_NE(rep.findings()[0].second.find("never waited"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: full checked exchange() across every specialization method,
// including fault-driven demotion. The acceptance bar is zero findings.
// ---------------------------------------------------------------------------

float expected_value(Dim3 g, std::size_t q) {
  return static_cast<float>(g.x + 131 * g.y + 131 * 131 * g.z) +
         static_cast<float>(q) * 4.0e6f;
}

void fill_interior(DistributedDomain& dd, std::size_t nq) {
  dd.for_each_subdomain([&](LocalDomain& ld) {
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      const Dim3 o = ld.origin();
      for (std::int64_t z = 0; z < ld.size().z; ++z) {
        for (std::int64_t y = 0; y < ld.size().y; ++y) {
          for (std::int64_t x = 0; x < ld.size().x; ++x) {
            v(x, y, z) = expected_value({o.x + x, o.y + y, o.z + z}, q);
          }
        }
      }
    }
  });
}

int verify_halos(DistributedDomain& dd, Dim3 domain, std::size_t nq) {
  int failures = 0;
  const int r = dd.radius().max();
  dd.for_each_subdomain([&](LocalDomain& ld) {
    const Dim3 sz = ld.size();
    const Dim3 o = ld.origin();
    for (std::size_t q = 0; q < nq; ++q) {
      auto v = ld.view<float>(q);
      for (std::int64_t z = -r; z < sz.z + r; ++z) {
        for (std::int64_t y = -r; y < sz.y + r; ++y) {
          for (std::int64_t x = -r; x < sz.x + r; ++x) {
            const bool interior =
                x >= 0 && x < sz.x && y >= 0 && y < sz.y && z >= 0 && z < sz.z;
            if (interior) continue;
            const Dim3 g = Dim3{o.x + x, o.y + y, o.z + z}.wrap(domain);
            failures += v(x, y, z) != expected_value(g, q);
          }
        }
      }
    }
  });
  return failures;
}

int histogram_count(const std::map<Method, int>& h, Method m) {
  auto it = h.find(m);
  return it == h.end() ? 0 : it->second;
}

struct ExchangeCase {
  const char* name;
  int nodes;
  int ranks_per_node;
  MethodFlags flags;
  bool aggregate = false;
  bool zero_copy = false;
  PackMode pack_mode = PackMode::kKernel;
};

void run_checked_exchange(const ExchangeCase& c, std::vector<Method> expect_methods) {
  SCOPED_TRACE(c.name);
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), c.nodes, c.ranks_per_node);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(c.flags);
    dd.set_remote_aggregation(c.aggregate);
    dd.set_staged_zero_copy(c.zero_copy);
    dd.set_pack_mode(c.pack_mode);
    dd.realize();
    const auto hist = dd.local_method_histogram();
    for (Method m : expect_methods) {
      EXPECT_GT(histogram_count(hist, m), 0) << "method not exercised: " << to_string(m);
    }
    for (int it = 0; it < 3; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      if (it == 1) {
        dd.exchange({0});  // selective exchanges go through the same machinery
        dd.exchange({1});
      } else {
        dd.exchange();
      }
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "iteration " << it;
    }
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

TEST(CheckExchange, KernelPeerColocatedSingleNodeClean) {
  run_checked_exchange({"single-node kAll", 1, 2, MethodFlags::kAll},
                       {Method::kKernel, Method::kPeer, Method::kColocated});
}

TEST(CheckExchange, CudaAwareRemoteClean) {
  run_checked_exchange({"cuda-aware remote", 2, 1, MethodFlags::kAllCudaAware},
                       {Method::kPeer, Method::kCudaAwareMpi});
}

TEST(CheckExchange, StagedRemoteClean) {
  run_checked_exchange({"staged remote", 2, 1, MethodFlags::kStaged | MethodFlags::kPeer |
                                                   MethodFlags::kKernel},
                       {Method::kPeer, Method::kStaged});
}

TEST(CheckExchange, StagedAggregatedClean) {
  ExchangeCase c{"staged aggregated", 2, 1,
                 MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.aggregate = true;
  run_checked_exchange(c, {Method::kStaged});
}

TEST(CheckExchange, StagedZeroCopyClean) {
  ExchangeCase c{"staged zero-copy", 2, 1,
                 MethodFlags::kStaged | MethodFlags::kPeer | MethodFlags::kKernel};
  c.zero_copy = true;
  run_checked_exchange(c, {Method::kStaged});
}

TEST(CheckExchange, PeerMemcpy3DClean) {
  ExchangeCase c{"peer 3d", 1, 2, MethodFlags::kAll};
  c.pack_mode = PackMode::kMemcpy3D;
  run_checked_exchange(c, {Method::kPeer});
}

// The hardest case: all five methods in one job, then a mid-run fault storm
// (peer revocation, IPC invalidation, CUDA-awareness loss) demotes PEER,
// COLOCATED, and CUDA-aware transfers to STAGED. The checked exchange must
// stay bit-exact AND finding-free through the re-specialization.
TEST(CheckExchange, FaultDemotionStaysClean) {
  const sim::Time t_fault = sim::from_seconds(1.0);
  const Dim3 domain{48, 48, 48};
  fault::FaultPlan plan;
  plan.revoke_peer(t_fault, -1, -1).invalidate_ipc(t_fault).disable_cuda_aware(t_fault);
  fault::Injector inj(plan);

  Cluster cluster(topo::summit(), 2, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.set_fault_injector(&inj);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.add_data<float>("b");
    dd.set_methods(MethodFlags::kAllCudaAware | MethodFlags::kStaged);
    dd.realize();

    const auto before = dd.local_method_histogram();
    EXPECT_GT(histogram_count(before, Method::kPeer), 0);
    EXPECT_GT(histogram_count(before, Method::kColocated), 0);
    EXPECT_GT(histogram_count(before, Method::kCudaAwareMpi), 0);

    fill_interior(dd, 2);
    ctx.comm.barrier();
    dd.exchange();
    ctx.comm.barrier();
    EXPECT_EQ(verify_halos(dd, domain, 2), 0);

    ctx.engine().sleep_until(t_fault + sim::kMicrosecond);
    ctx.comm.barrier();
    for (int it = 0; it < 2; ++it) {
      fill_interior(dd, 2);
      ctx.comm.barrier();
      dd.exchange();
      ctx.comm.barrier();
      EXPECT_EQ(verify_halos(dd, domain, 2), 0) << "post-fault iteration " << it;
    }

    const auto after = dd.local_method_histogram();
    EXPECT_EQ(histogram_count(after, Method::kPeer), 0);
    EXPECT_EQ(histogram_count(after, Method::kColocated), 0);
    EXPECT_EQ(histogram_count(after, Method::kCudaAwareMpi), 0);
    EXPECT_GT(histogram_count(after, Method::kStaged),
              histogram_count(before, Method::kStaged));
  });
  EXPECT_TRUE(chk.report().clean()) << dump(chk.report());
}

// Detection through the full exchange stack: re-running the *same* exchange
// but suppressing one ordering edge must produce findings. The split-phase
// API lets the application race its own compute kernel against an in-flight
// exchange — the checker catches exactly that.
TEST(CheckExchange, ComputeOverlapOnBoundaryRaces) {
  const Dim3 domain{48, 48, 48};
  Cluster cluster(topo::summit(), 1, 2);
  check::Checker chk(cluster.engine());
  cluster.set_checker(&chk);
  cluster.run([&](RankCtx& ctx) {
    DistributedDomain dd(ctx, domain);
    dd.set_radius(1);
    dd.add_data<float>("a");
    dd.set_methods(MethodFlags::kAll);
    dd.realize();
    fill_interior(dd, 1);
    ctx.comm.barrier();
    dd.exchange_start();
    // BUG under test: a "compute" kernel that touches the halo (not just
    // the interior) while the exchange is still in flight.
    dd.for_each_subdomain([&](LocalDomain& ld) {
      vgpu::AccessList acc;
      const std::size_t all = static_cast<std::size_t>(ld.storage().volume()) * sizeof(float);
      acc.push_back({&ld.data(0), 0, all, true});
      ctx.rt.launch_kernel(ld.compute_stream(), all, "eager compute", [] {}, acc);
    });
    dd.exchange_finish();
    dd.compute_synchronize();
    ctx.comm.barrier();
  });
  EXPECT_FALSE(chk.report().clean());
  // The eager compute kernel must appear in at least one race finding.
  bool named = false;
  for (const auto& f : chk.report().findings()) {
    named = named || f.first.find("eager compute") != std::string::npos ||
            f.second.find("eager compute") != std::string::npos;
  }
  EXPECT_TRUE(named) << dump(chk.report());
}

}  // namespace
