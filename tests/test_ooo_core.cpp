#include "cpu/ooo_core.hpp"

#include <gtest/gtest.h>

#include <array>

#include "ckpt/archive.hpp"
#include "workload/trace.hpp"

namespace unsync::cpu {
namespace {

using workload::DynOp;
using workload::TraceStream;

DynOp alu_op(SeqNum seq, SeqNum src0 = kNoSeq, SeqNum src1 = kNoSeq) {
  DynOp op;
  op.seq = seq;
  op.cls = isa::InstClass::kIntAlu;
  op.pc = 0x1000 + seq * 4;
  op.src[0] = src0;
  op.src[1] = src1;
  op.writes_reg = true;
  return op;
}

DynOp load_op(SeqNum seq, Addr addr, SeqNum src0 = kNoSeq) {
  DynOp op = alu_op(seq, src0);
  op.cls = isa::InstClass::kLoad;
  op.mem_addr = addr;
  return op;
}

DynOp store_op(SeqNum seq, Addr addr, SeqNum data_src = kNoSeq) {
  DynOp op = alu_op(seq, data_src);
  op.cls = isa::InstClass::kStore;
  op.mem_addr = addr;
  op.writes_reg = false;
  return op;
}

DynOp branch_op(SeqNum seq, bool mispredict) {
  DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kBranch;
  op.writes_reg = false;
  op.taken = true;
  op.has_mispredict_hint = true;
  op.mispredict_hint = mispredict;
  return op;
}

DynOp serial_op(SeqNum seq) {
  DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kSerializing;
  op.writes_reg = false;
  op.src[0] = op.src[1] = kNoSeq;
  return op;
}

struct Rig {
  /// Back-end focused rig: the front end (I-cache / I-TLB) is disabled so
  /// each test isolates the mechanism it targets; dedicated front-end tests
  /// re-enable it explicitly.
  explicit Rig(std::vector<DynOp> ops, CoreConfig cfg = no_frontend(),
               CommitEnv* env = nullptr)
      : memory(mem::MemConfig{}, 1),
        core(0, cfg, &memory,
             std::make_unique<TraceStream>(std::move(ops)), env) {}

  static CoreConfig no_frontend() {
    CoreConfig cfg;
    cfg.model_frontend = false;
    return cfg;
  }

  Cycle run(Cycle limit = 1000000) {
    Cycle now = 0;
    while (!core.done() && now < limit) {
      core.tick(now);
      ++now;
    }
    return now;
  }

  mem::MemoryHierarchy memory;
  OooCore core;
};

std::vector<DynOp> independent_alus(std::uint64_t n) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < n; ++i) ops.push_back(alu_op(i));
  return ops;
}

TEST(OooCore, RunsToCompletion) {
  Rig rig(independent_alus(100));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 100u);
}

TEST(OooCore, IndependentAlusApproachIssueWidth) {
  Rig rig(independent_alus(4000));
  const Cycle cycles = rig.run();
  const double ipc = 4000.0 / static_cast<double>(cycles);
  // 4-wide core, no stalls: should sustain close to 4 IPC.
  EXPECT_GT(ipc, 3.0);
}

TEST(OooCore, SerialChainLimitsToOneIpc) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 2000; ++i) {
    ops.push_back(alu_op(i, i == 0 ? kNoSeq : i - 1));
  }
  Rig rig(std::move(ops));
  const Cycle cycles = rig.run();
  const double ipc = 2000.0 / static_cast<double>(cycles);
  EXPECT_LT(ipc, 1.1);
  EXPECT_GT(ipc, 0.8);
}

TEST(OooCore, MispredictsAddFetchBubbles) {
  std::vector<DynOp> clean, dirty;
  for (SeqNum i = 0; i < 2000; ++i) {
    if (i % 10 == 9) {
      clean.push_back(branch_op(i, false));
      dirty.push_back(branch_op(i, true));
    } else {
      clean.push_back(alu_op(i));
      dirty.push_back(alu_op(i));
    }
  }
  Rig a(std::move(clean)), b(std::move(dirty));
  const Cycle fast = a.run();
  const Cycle slow = b.run();
  EXPECT_GT(slow, fast + 1000);  // ~200 mispredicts x ~8-cycle penalty
  EXPECT_EQ(b.core.stats().mispredicts, 200u);
}

TEST(OooCore, CacheMissesThrottleLoads) {
  std::vector<DynOp> hits, misses;
  for (SeqNum i = 0; i < 1000; ++i) {
    hits.push_back(load_op(i, 0x1000));  // same line: always warm
    misses.push_back(load_op(i, 0x100000 + i * 4096));  // new line each time
  }
  Rig a(std::move(hits)), b(std::move(misses));
  EXPECT_LT(a.run(), b.run());
  EXPECT_GT(b.memory.l1(0).misses(), 900u);
}

TEST(OooCore, StoreToLoadForwardingBeatsCacheMissWait) {
  // The store's data comes from a 20-cycle divide, so the store is still
  // in flight when the load becomes issueable: the load must forward from
  // the store queue instead of fetching the (cold, ~400-cycle) line.
  std::vector<DynOp> ops;
  DynOp producer = alu_op(0);
  producer.cls = isa::InstClass::kIntDiv;
  ops.push_back(producer);
  ops.push_back(store_op(1, 0x200000, 0));
  ops.push_back(load_op(2, 0x200000));
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_GE(rig.core.stats().cycles, 20u);   // waited for the divide
  EXPECT_LE(rig.core.stats().cycles, 60u);   // but never went to DRAM
}

TEST(OooCore, LoadWaitsForOlderStoreSameWord) {
  // The load cannot issue before the store's address+data execute.
  std::vector<DynOp> ops;
  DynOp st = store_op(1, 0x300000, 0);  // depends on slow producer
  DynOp producer = alu_op(0);
  producer.cls = isa::InstClass::kIntDiv;  // 20-cycle latency
  ops.push_back(producer);
  ops.push_back(st);
  ops.push_back(load_op(2, 0x300000));
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_GE(rig.core.stats().cycles, 20u);
}

TEST(OooCore, SerializingIssuesOnlyAtHead) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 200; ++i) {
    ops.push_back(i % 20 == 10 ? serial_op(i) : alu_op(i));
  }
  Rig rig(std::move(ops));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.stats().serializing, 10u);
  // Each serializing inst drains the front end.
  EXPECT_GT(rig.core.stats().fetch_blocked_serialize, 0u);
}

TEST(OooCore, SerializingSlowsThroughput) {
  std::vector<DynOp> with, without;
  for (SeqNum i = 0; i < 4000; ++i) {
    with.push_back(i % 50 == 25 ? serial_op(i) : alu_op(i));
    without.push_back(alu_op(i));
  }
  Rig a(std::move(without)), b(std::move(with));
  EXPECT_LT(a.run(), b.run());
}

TEST(OooCore, RobCapacityBoundsInFlight) {
  // Independent long-latency loads need a big window for MLP; a tiny ROB
  // serialises the misses and must be clearly slower.
  auto make_loads = [] {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 400; ++i) {
      ops.push_back(load_op(i, 0x1000000 + i * 4096));
    }
    return ops;
  };
  CoreConfig tiny = Rig::no_frontend();
  tiny.rob_entries = 8;
  tiny.iq_entries = 8;
  Rig small(make_loads(), tiny);
  Rig big(make_loads());
  const Cycle s = small.run();
  const Cycle b = big.run();
  EXPECT_TRUE(small.core.done());
  EXPECT_GT(s, b);
  EXPECT_GT(small.core.stats().dispatch_stall_rob +
                small.core.stats().dispatch_stall_iq,
            0u);
}

// CommitEnv gating: holds every commit for the first 500 cycles.
class GateEnv : public CommitEnv {
 public:
  bool can_commit(CoreId, const workload::DynOp&, Cycle now) override {
    return now >= 500;
  }
};

TEST(OooCore, CommitGateStallsRetirement) {
  GateEnv env;
  Rig rig(independent_alus(100), Rig::no_frontend(), &env);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 500u);
  EXPECT_GT(rig.core.stats().commit_stall_gate, 0u);
}

// CommitEnv store rejection: rejects every store before cycle 300.
class RejectStoresEnv : public CommitEnv {
 public:
  bool on_store_commit(CoreId, const workload::DynOp&, Cycle now) override {
    return now >= 300;
  }
};

TEST(OooCore, StoreRejectionBackpressuresCommit) {
  RejectStoresEnv env;
  std::vector<DynOp> ops;
  ops.push_back(store_op(0, 0x1000));
  for (SeqNum i = 1; i < 50; ++i) ops.push_back(alu_op(i));
  Rig rig(std::move(ops), Rig::no_frontend(), &env);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 300u);
  EXPECT_GT(rig.core.stats().commit_stall_store, 0u);
  EXPECT_EQ(rig.core.stats().stores, 1u);
}

// Reserved ROB slots shrink the window exactly like Reunion's CHECK stage.
class ReserveEnv : public CommitEnv {
 public:
  explicit ReserveEnv(std::uint32_t n) : n_(n) {}
  std::uint32_t reserved_rob_slots(CoreId, Cycle) override { return n_; }

 private:
  std::uint32_t n_;
};

TEST(OooCore, ReservedRobSlotsReduceThroughputUnderMlp) {
  // Long-latency independent loads need a big window to overlap misses.
  auto make_loads = [] {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 600; ++i) {
      ops.push_back(load_op(i, 0x1000000 + i * 64));
    }
    return ops;
  };
  ReserveEnv reserve(100);  // eat 100 of 128 ROB entries
  Rig free_rig(make_loads());
  Rig held_rig(make_loads(), Rig::no_frontend(), &reserve);
  const Cycle fast = free_rig.run();
  const Cycle slow = held_rig.run();
  EXPECT_GT(slow, fast);
}

TEST(OooCore, StallUntilFreezesProgress) {
  Rig rig(independent_alus(100));
  rig.core.stall_until(200);
  const Cycle cycles = rig.run();
  EXPECT_GE(cycles, 200u);
  EXPECT_GT(rig.core.stats().recovery_stall_cycles, 0u);
}

TEST(OooCore, FlushRepositionsToOldestUncommitted) {
  Rig rig(independent_alus(1000));
  // Run a little, flush mid-flight, then finish: total retired must still
  // be exactly 1000 (no loss, no duplication).
  Cycle now = 0;
  for (; now < 20; ++now) rig.core.tick(now);
  const SeqNum committed = rig.core.retired();
  rig.core.flush_pipeline();
  EXPECT_EQ(rig.core.retired(), committed);
  while (!rig.core.done()) rig.core.tick(now++);
  EXPECT_EQ(rig.core.retired(), 1000u);
}

TEST(OooCore, SetPositionForwardSkips) {
  Rig rig(independent_alus(1000));
  rig.core.set_position(900);
  rig.run();
  EXPECT_EQ(rig.core.retired(), 1000u);
  EXPECT_LT(rig.core.stats().cycles, 200u);  // only 100 insts executed
}

TEST(OooCore, SetPositionBackwardRetraces) {
  Rig rig(independent_alus(500));
  Cycle now = 0;
  while (rig.core.retired() < 400) rig.core.tick(now++);
  rig.core.set_position(100);  // rollback
  EXPECT_EQ(rig.core.retired(), 100u);
  while (!rig.core.done()) rig.core.tick(now++);
  EXPECT_EQ(rig.core.retired(), 500u);
}

TEST(OooCore, DoneOnlyAfterPipelineDrains) {
  Rig rig(independent_alus(10));
  EXPECT_FALSE(rig.core.done());
  rig.run();
  EXPECT_TRUE(rig.core.done());
}

TEST(OooCore, RobOccupancyStatTracked) {
  Rig rig(independent_alus(2000));
  rig.run();
  EXPECT_GT(rig.core.stats().avg_rob_occupancy(), 0.0);
  EXPECT_LE(rig.core.stats().avg_rob_occupancy(),
            static_cast<double>(CoreConfig{}.rob_entries));
}

TEST(OooCore, TraceModeUsesInternalPredictor) {
  // Branches without hints: always-taken loop branch becomes predictable.
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 2000; ++i) {
    if (i % 5 == 4) {
      DynOp b = branch_op(i, false);
      b.has_mispredict_hint = false;
      b.pc = 0x1000;  // same branch every time
      b.taken = true;
      ops.push_back(b);
    } else {
      ops.push_back(alu_op(i));
    }
  }
  Rig rig(std::move(ops));
  rig.run();
  // After warmup the predictor should be nearly perfect.
  EXPECT_LT(rig.core.stats().mispredicts, 20u);
  EXPECT_EQ(rig.core.stats().branches, 400u);
}


TEST(OooCoreFrontend, IcacheResidentLoopRunsFast) {
  // Code that fits the I-cache: after the cold pass the front end streams.
  CoreConfig cfg;  // frontend ON
  std::vector<DynOp> ops;
  constexpr SeqNum kInsts = 40000;  // long enough to amortise the cold pass
  for (SeqNum i = 0; i < kInsts; ++i) {
    DynOp op = alu_op(i);
    op.pc = 0x1000 + (i % 512) * 4;  // 2 KiB loop body
    ops.push_back(op);
  }
  Rig rig(std::move(ops), cfg);
  const Cycle cycles = rig.run();
  EXPECT_GT(static_cast<double>(kInsts) / static_cast<double>(cycles), 2.0);
}

TEST(OooCoreFrontend, NextLinePrefetchHelpsSequentialCode) {
  // Long straight-line cold code is DRAM-bound either way, but next-line
  // prefetch overlaps every other line fetch, so sequential code runs
  // clearly faster per instruction than page-scattered code (which gets no
  // prefetch benefit and adds I-TLB walks).
  CoreConfig cfg;
  auto make = [](Addr stride) {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 2000; ++i) {
      DynOp op = alu_op(i);
      op.pc = 0x100000 + i * stride;
      ops.push_back(op);
    }
    return ops;
  };
  Rig sequential(make(4), cfg);
  Rig scattered(make(4096), cfg);
  const Cycle seq = sequential.run();
  const Cycle scat = scattered.run();
  EXPECT_LT(seq, scat / 4);  // 16 insts/line + 2x prefetch overlap >> 1 inst/page
  EXPECT_GT(sequential.memory.icache(0).misses(), 60u);  // really did miss
}

TEST(OooCoreFrontend, ScatteredCodeThrashesIcache) {
  // Jumping through a region far larger than the I-cache defeats both the
  // cache and the prefetcher: clearly slower than the resident loop.
  CoreConfig cfg;
  auto make = [](Addr stride) {
    std::vector<DynOp> ops;
    for (SeqNum i = 0; i < 2000; ++i) {
      DynOp op = alu_op(i);
      op.pc = 0x100000 + (i * stride) % (8u << 20);
      ops.push_back(op);
    }
    return ops;
  };
  Rig resident(make(0), cfg);          // all ops at one pc
  Rig scattered(make(4096), cfg);      // new page + line every op
  const Cycle fast = resident.run();
  const Cycle slow = scattered.run();
  EXPECT_GT(slow, fast * 3);
  EXPECT_GT(scattered.core.stats().fetch_blocked_icache, 100u);
  EXPECT_GT(scattered.core.stats().itlb_misses, 100u);
}

TEST(OooCoreFrontend, DtlbMissesChargedOnDataAccesses) {
  CoreConfig cfg = Rig::no_frontend();  // isolate the D-TLB
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 500; ++i) {
    // One load per page over far more pages than the D-TLB holds.
    ops.push_back(load_op(i, 0x2000000 + i * 4096));
  }
  Rig rig(std::move(ops), cfg);
  rig.run();
  EXPECT_GT(rig.core.stats().dtlb_misses, 400u);
}

TEST(OooCoreFrontend, DtlbFriendlyAccessesMissRarely) {
  CoreConfig cfg = Rig::no_frontend();
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 500; ++i) {
    ops.push_back(load_op(i, 0x2000000 + (i % 512) * 8));  // one page
  }
  Rig rig(std::move(ops), cfg);
  rig.run();
  EXPECT_LE(rig.core.stats().dtlb_misses, 1u);
}

// ---- Directed issue timelines ------------------------------------------------
//
// Each case pins, for every instruction, the cycle it issued, the cycle it
// completes and the cycle it committed. The values were recorded from the
// model before the issue stage became wakeup-driven (ROB ring, dispatch-time
// store matching, fence FIFO); any drift means the issue rules moved.

/// One issue event: {seq, issue cycle, completion cycle}.
using Issue = std::array<std::uint64_t, 3>;
/// One commit event: {seq, commit cycle}.
using Commit = std::array<std::uint64_t, 2>;

class CommitProbe : public CommitEnv {
 public:
  void on_commit(CoreId, const workload::DynOp& op, Cycle now) override {
    commits.push_back({op.seq, now});
  }
  std::vector<Commit> commits;
};

/// Ticks a back-end rig and logs every issue (an instruction whose
/// completion_at() turns from kNever to a cycle) and every commit.
struct Timeline {
  explicit Timeline(std::vector<DynOp> ops)
      : n(ops.size()),
        last(ops.size(), kNeverCycle),
        rig(std::move(ops), Rig::no_frontend(), &probe) {}

  static constexpr Cycle kNeverCycle = ~Cycle{0};

  void tick() {
    rig.core.tick(now);
    poll();
    ++now;
  }
  void run_until(Cycle to) {
    while (now < to && !rig.core.done()) tick();
  }
  void finish() { run_until(100000); }

  /// Logs issues since the last poll; also resets the log state of
  /// instructions a flush removed.
  void poll() {
    for (SeqNum s = 0; s < n; ++s) {
      const Cycle c = rig.core.completion_at(s);
      if (c != kNeverCycle && last[s] == kNeverCycle) {
        issues.push_back({s, now, c});
      }
      last[s] = c;
    }
  }

  std::uint64_t n;
  std::vector<Cycle> last;
  CommitProbe probe;
  Rig rig;
  Cycle now = 0;
  std::vector<Issue> issues;
};

DynOp div_op(SeqNum seq, SeqNum src0 = kNoSeq) {
  DynOp op = alu_op(seq, src0);
  op.cls = isa::InstClass::kIntDiv;
  return op;
}

TEST(OooCoreTimeline, LoadBehindUnissuedSameWordStoreThenForwards) {
  // The store's data waits on a 20-cycle divide: the load may not issue
  // before the store does, and then forwards from the store queue.
  Timeline t({div_op(0), store_op(1, 0x300000, 0), load_op(2, 0x300000),
              alu_op(3, 2)});
  t.finish();
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 22}, {1, 22, 53}, {2, 53, 54},
                                {3, 54, 55}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 22}, {1, 53}, {2, 54}, {3, 55}}));
}

TEST(OooCoreTimeline, LoadForwardsFromIssuedStoreInRob) {
  // A cold load at the head keeps the store in the ROB long after it
  // executed; the load, held back by its address source, forwards from it.
  Timeline t({load_op(0, 0x900000), store_op(1, 0x300040), div_op(2),
              div_op(3, 2), load_op(4, 0x300040, 3), alu_op(5, 4)});
  t.finish();
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 458}, {1, 2, 33}, {2, 2, 22},
                                {3, 22, 42}, {4, 42, 43}, {5, 43, 44}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 458}, {1, 458}, {2, 458}, {3, 458},
                                 {4, 459}, {5, 459}}));
}

TEST(OooCoreTimeline, YoungestOlderSameWordStoreDecides) {
  // Two in-flight stores to one word: the older one issues and commits
  // while the younger still waits on a divide chain. The load must wait
  // for the younger store, although the older one's word already sits in
  // the post-commit window.
  Timeline t({store_op(0, 0x300080), div_op(1), div_op(2, 1),
              store_op(3, 0x300080, 2), load_op(4, 0x300080), alu_op(5, 4)});
  t.finish();
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 33}, {1, 2, 22}, {2, 22, 42},
                                {3, 42, 43}, {4, 43, 44}, {5, 44, 45}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 33}, {1, 33}, {2, 42}, {3, 43}, {4, 44},
                                 {5, 45}}));
}

TEST(OooCoreTimeline, LoadForwardsFromPostCommitStoreWindow) {
  // The load dispatches while its store is in flight, but its address
  // comes from a divide chain, so by the time it issues the store has
  // committed: it forwards from the post-commit window. A second load to
  // a word no store touched goes to the cache.
  Timeline t({store_op(0, 0x3000c0), div_op(1), div_op(2, 1),
              load_op(3, 0x3000c0, 2), load_op(4, 0x3000c8, 2),
              alu_op(5, 3, 4)});
  t.finish();
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 33}, {1, 2, 22}, {2, 22, 42},
                                {3, 42, 43}, {4, 42, 468}, {5, 468, 469}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 33}, {1, 33}, {2, 42}, {3, 43}, {4, 468},
                                 {5, 469}}));
}

TEST(OooCoreTimeline, MemoryOpsWaitBehindOlderSerializingOp) {
  // The serializing op issues only at the ROB head (after the divide
  // commits); the load and store behind it wait for it to retire, while an
  // independent ALU op passes it.
  Timeline t({div_op(0), serial_op(1), load_op(2, 0x300100),
              store_op(3, 0x300108), alu_op(4), load_op(5, 0x300108)});
  t.finish();
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 22}, {4, 3, 4}, {1, 22, 23},
                                {2, 23, 479}, {3, 23, 24}, {5, 24, 25}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 22}, {1, 23}, {2, 479}, {3, 479}, {4, 479},
                                 {5, 479}}));
}

std::vector<DynOp> mixed_memory_ops() {
  // Stores, a fence and loads that match them, in flight together.
  return {div_op(0),
          store_op(1, 0x300140, 0),
          load_op(2, 0x300140),
          serial_op(3),
          store_op(4, 0x300148),
          load_op(5, 0x300148),
          div_op(6, 5),
          store_op(7, 0x300140, 6),
          load_op(8, 0x300140),
          alu_op(9, 8),
          store_op(10, 0x300150),
          load_op(11, 0x300150, 9)};
}

TEST(OooCoreTimeline, FlushWithInFlightStoresAndFenceRedispatches) {
  Timeline t(mixed_memory_ops());
  t.run_until(12);  // stores, the fence and loads in flight
  ASSERT_GT(t.rig.core.rob_occupancy(), 4u);
  t.rig.core.flush_pipeline();
  t.poll();
  t.finish();
  EXPECT_EQ(t.rig.core.retired(), 12u);
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 22}, {0, 22, 42}, {1, 42, 73},
                                {2, 73, 74}, {3, 74, 75}, {4, 75, 76},
                                {10, 75, 76}, {5, 76, 77}, {6, 77, 97},
                                {7, 97, 98}, {8, 98, 99}, {9, 99, 100},
                                {11, 100, 101}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 42}, {1, 73}, {2, 74}, {3, 75}, {4, 76},
                                 {5, 77}, {6, 97}, {7, 98}, {8, 99}, {9, 100},
                                 {10, 100}, {11, 101}}));
}

TEST(OooCoreTimeline, SetPositionWithInFlightStoresAndFenceRedispatches) {
  Timeline t(mixed_memory_ops());
  t.run_until(40);
  ASSERT_GT(t.rig.core.rob_occupancy(), 4u);
  t.rig.core.set_position(1);  // roll back behind the first store
  t.poll();
  t.finish();
  EXPECT_EQ(t.rig.core.retired(), 12u);
  EXPECT_EQ(t.issues,
            (std::vector<Issue>{{0, 2, 22}, {1, 22, 53}, {1, 42, 43},
                                {2, 43, 44}, {3, 44, 45}, {4, 45, 46},
                                {10, 45, 46}, {5, 46, 47}, {6, 47, 67},
                                {7, 67, 68}, {8, 68, 69}, {9, 69, 70},
                                {11, 70, 71}}));
  EXPECT_EQ(t.probe.commits,
            (std::vector<Commit>{{0, 22}, {1, 43}, {2, 44}, {3, 45}, {4, 46},
                                 {5, 47}, {6, 67}, {7, 68}, {8, 69}, {9, 70},
                                 {10, 70}, {11, 71}}));
}

TEST(OooCoreTimeline, SaveLoadMidFlightContinuesIdentically) {
  // Checkpointed with stores, a fence and waiting loads in flight: the
  // restored core rebuilds its derived issue state from the ROB and
  // continues exactly like the original.
  Timeline a(mixed_memory_ops());
  a.run_until(12);
  ASSERT_GT(a.rig.core.rob_occupancy(), 4u);
  ckpt::Serializer out;
  {
    ckpt::Archive ar(out);
    a.rig.memory.visit(ar);
    a.rig.core.visit(ar);
  }
  Timeline b(mixed_memory_ops());
  {
    ckpt::Deserializer in(out.take());
    ckpt::Archive ar(in);
    b.rig.memory.visit(ar);
    b.rig.core.visit(ar);
    EXPECT_TRUE(in.at_end());
  }
  b.now = a.now;
  b.poll();
  b.issues.clear();
  a.issues.clear();
  a.probe.commits.clear();
  a.finish();
  b.finish();
  EXPECT_EQ(b.issues, a.issues);
  EXPECT_EQ(b.probe.commits, a.probe.commits);
  EXPECT_EQ(b.rig.core.stats().cycles, a.rig.core.stats().cycles);
  EXPECT_EQ(a.issues,
            (std::vector<Issue>{{1, 22, 53}, {2, 53, 54}, {3, 54, 55},
                                {4, 55, 56}, {10, 55, 56}, {5, 56, 57},
                                {6, 57, 77}, {7, 77, 78}, {8, 78, 79},
                                {9, 79, 80}, {11, 80, 81}}));
  EXPECT_EQ(a.probe.commits,
            (std::vector<Commit>{{0, 22}, {1, 53}, {2, 54}, {3, 55}, {4, 56},
                                 {5, 57}, {6, 77}, {7, 78}, {8, 79}, {9, 80},
                                 {10, 80}, {11, 81}}));
}

}  // namespace
}  // namespace unsync::cpu
