// Heterogeneous checker subsystem tests, bottom-up: the CheckLog coupling
// structure, the InOrderCore timing model, and HeteroCheckerSystem
// end-to-end (shadowing, log back-pressure, detection + rollback,
// published metrics). The ckpt wire format and engine parity for the
// system are pinned separately (test_ckpt, test_engine_parity).
#include "core/hetero_checker_system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ckpt/archive.hpp"
#include "core/baseline.hpp"
#include "cpu/check_log.hpp"
#include "cpu/in_order_core.hpp"
#include "fault/avf.hpp"
#include "obs/metrics.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync {
namespace {

// ---- CheckLog ---------------------------------------------------------------

cpu::CheckLogEntry entry(SeqNum seq, cpu::CheckKind kind, Addr addr = kNoAddr,
                         bool taken = false) {
  return {.seq = seq, .addr = addr, .kind = kind, .taken = taken};
}

TEST(CheckLog, BoundedFifoSemantics) {
  cpu::CheckLog log(2);
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(log.full());
  EXPECT_TRUE(log.push(entry(1, cpu::CheckKind::kLoadValue, 0x100)));
  EXPECT_TRUE(log.push(entry(2, cpu::CheckKind::kBranchOutcome)));
  EXPECT_TRUE(log.full());
  // A full log refuses the append — the leader's commit stage stalls.
  EXPECT_FALSE(log.push(entry(3, cpu::CheckKind::kStoreData, 0x200)));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_pushed(), 2u);

  // Strict FIFO order on the checker side.
  EXPECT_EQ(log.front().seq, 1u);
  log.pop();
  EXPECT_EQ(log.front().seq, 2u);
  EXPECT_TRUE(log.push(entry(3, cpu::CheckKind::kStoreData, 0x200)));
  EXPECT_EQ(log.peak_occupancy(), 2u);
  log.clear();  // rollback discards the unverified tail wholesale
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.total_pushed(), 3u);  // counters survive the clear
}

TEST(CheckLog, SaveLoadRoundTripsBitExactly) {
  cpu::CheckLog log(8);
  log.push(entry(10, cpu::CheckKind::kLoadValue, 0x40));
  log.push(entry(11, cpu::CheckKind::kBranchOutcome, kNoAddr, true));
  log.push(entry(12, cpu::CheckKind::kStoreData, 0x80));
  log.pop();

  ckpt::Serializer s;
  ckpt::Archive save(s);
  log.visit(save);
  const std::string bytes = s.take();

  cpu::CheckLog restored(8);
  ckpt::Deserializer d(bytes);
  ckpt::Archive load(d);
  restored.visit(load);
  EXPECT_TRUE(d.at_end());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.front().seq, 11u);
  EXPECT_EQ(restored.front().kind, cpu::CheckKind::kBranchOutcome);
  EXPECT_TRUE(restored.front().taken);
  EXPECT_EQ(restored.peak_occupancy(), log.peak_occupancy());
  EXPECT_EQ(restored.total_pushed(), log.total_pushed());

  ckpt::Serializer s2;
  ckpt::Archive resave(s2);
  restored.visit(resave);
  EXPECT_EQ(s2.data(), bytes);
}

TEST(CheckLog, ResidencyTrackerIntegratesOccupancy) {
  // ACE accounting: every resident entry is architecturally critical, so
  // entry·cycles must integrate the live occupancy between hook sites.
  fault::ResidencyTracker avf;
  cpu::CheckLog log(4);
  log.set_avf(&avf);
  log.push(entry(1, cpu::CheckKind::kLoadValue, 0x10));
  log.push(entry(2, cpu::CheckKind::kLoadValue, 0x18));
  log.avf_update(100);  // 2 live from cycle 100
  log.pop();
  log.avf_update(150);  // 2 * 50 integrated, 1 live from 150
  avf.finish(200);      // + 1 * 50
  EXPECT_EQ(avf.entry_cycles(), 2u * 50u + 1u * 50u);
}

// ---- InOrderCore ------------------------------------------------------------

workload::DynOp alu_op(SeqNum seq) {
  workload::DynOp op;
  op.seq = seq;
  op.cls = isa::InstClass::kIntAlu;
  op.pc = 0x1000 + seq * 4;
  op.writes_reg = true;
  return op;
}

workload::DynOp load_op(SeqNum seq, Addr addr) {
  workload::DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kLoad;
  op.mem_addr = addr;
  return op;
}

workload::DynOp div_op(SeqNum seq) {
  workload::DynOp op = alu_op(seq);
  op.cls = isa::InstClass::kIntDiv;
  return op;
}

std::vector<workload::DynOp> independent_alus(std::uint64_t n) {
  std::vector<workload::DynOp> ops;
  for (SeqNum i = 0; i < n; ++i) ops.push_back(alu_op(i));
  return ops;
}

/// Checker-mode rig: no memory hierarchy, loads at fixed latency.
struct InOrderRig {
  explicit InOrderRig(std::vector<workload::DynOp> ops,
                      cpu::InOrderConfig cfg = {},
                      cpu::CommitEnv* env = nullptr)
      : core(0, cfg, /*memory=*/nullptr,
             std::make_unique<workload::TraceStream>(std::move(ops)), env) {}

  Cycle run(Cycle limit = 1000000) {
    Cycle now = 0;
    while (!core.done() && now < limit) {
      core.tick(now);
      ++now;
    }
    return now;
  }

  cpu::InOrderCore core;
};

TEST(InOrderCore, RunsToCompletion) {
  InOrderRig rig(independent_alus(100));
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 100u);
}

TEST(InOrderCore, RetiresUpToWidthPerCycle) {
  cpu::InOrderConfig cfg;
  cfg.width = 2;
  InOrderRig rig(independent_alus(2000), cfg);
  const Cycle cycles = rig.run();
  const double ipc = 2000.0 / static_cast<double>(cycles);
  EXPECT_GT(ipc, 1.5);   // single-cycle alus sustain close to the width
  EXPECT_LE(ipc, 2.01);  // and never exceed it (scalar-class in-order)
}

TEST(InOrderCore, BlockingExecutionSerialisesLongOps) {
  // The head instruction executes to completion before the next may start:
  // a stream of divides costs ~div_latency cycles each even though the ops
  // are data-independent (the out-of-order leader would overlap them).
  cpu::InOrderConfig cfg;
  std::vector<workload::DynOp> ops;
  for (SeqNum i = 0; i < 200; ++i) ops.push_back(div_op(i));
  InOrderRig rig(std::move(ops), cfg);
  const Cycle cycles = rig.run();
  // Commit overlaps the successor's first execute cycle, so the steady
  // state is latency-1 cycles per divide.
  EXPECT_GE(cycles, 200 * (cfg.int_div_latency - 1));
}

TEST(InOrderCore, CheckerModeLoadsUseTheFixedLatency) {
  std::vector<workload::DynOp> loads;
  for (SeqNum i = 0; i < 300; ++i) loads.push_back(load_op(i, 0x1000 + 8 * i));
  cpu::InOrderConfig fast;
  fast.load_latency = 1;
  cpu::InOrderConfig slow;
  slow.load_latency = 6;
  InOrderRig a(loads, fast);
  InOrderRig b(loads, slow);
  const Cycle fast_cycles = a.run();
  const Cycle slow_cycles = b.run();
  EXPECT_GE(slow_cycles, fast_cycles + 300 * 4);  // ~5 extra cycles per load
  EXPECT_EQ(a.core.stats().loads, 300u);
}

TEST(InOrderCore, CommitGateStallsAreCountedAndReleased) {
  // A CommitEnv that holds every commit until cycle 50 — the core must
  // charge commit_stall_gate for the held window and still finish.
  class Gate final : public cpu::CommitEnv {
   public:
    bool can_commit(CoreId, const workload::DynOp&, Cycle now) override {
      return now >= 50;
    }
  };
  Gate gate;
  InOrderRig rig(independent_alus(20), {}, &gate);
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 20u);
  EXPECT_GT(rig.core.stats().commit_stall_gate, 0u);
}

TEST(InOrderCore, SetPositionReplaysFromTheRequestedSeq) {
  InOrderRig rig(independent_alus(40));
  rig.run();
  EXPECT_EQ(rig.core.retired(), 40u);
  rig.core.set_position(10);  // rollback: re-execute [10, 40)
  EXPECT_EQ(rig.core.retired(), 10u);
  EXPECT_FALSE(rig.core.done());
  rig.run();
  EXPECT_TRUE(rig.core.done());
  EXPECT_EQ(rig.core.retired(), 40u);
}

// ---- HeteroCheckerSystem ----------------------------------------------------

core::SystemConfig hetero_config(double ser = 0.0, unsigned threads = 1) {
  core::SystemConfig cfg;
  cfg.num_threads = threads;
  cfg.ser_per_inst = ser;
  cfg.seed = 7;
  return cfg;
}

TEST(HeteroCheckerSystem, CheckerShadowsTheLeaderExactly) {
  workload::SyntheticStream stream(workload::profile("gzip"), 1, 20000);
  core::HeteroCheckerSystem sys(hetero_config(), {}, stream);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.system, "hetero");
  ASSERT_EQ(r.core_stats.size(), 2u);  // leader + checker
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
  EXPECT_EQ(r.core_stats[1].committed, 20000u);
  // Every logged-class commit crossed the log exactly once.
  EXPECT_EQ(r.core_stats[1].loads, r.core_stats[0].loads);
  EXPECT_EQ(r.core_stats[1].stores, r.core_stats[0].stores);
  EXPECT_EQ(r.core_stats[1].branches, r.core_stats[0].branches);
}

TEST(HeteroCheckerSystem, TinyLogBackPressuresTheLeader) {
  workload::SyntheticStream stream(workload::profile("susan"), 2, 20000);
  core::HeteroParams tiny;
  tiny.log_entries = 2;
  core::HeteroParams roomy;
  roomy.log_entries = 256;
  core::HeteroCheckerSystem small(hetero_config(), tiny, stream);
  core::HeteroCheckerSystem large(hetero_config(), roomy, stream);
  const engine::RunResult rs = small.run();
  const engine::RunResult rl = large.run();
  EXPECT_GT(rs.cb_full_stalls, rl.cb_full_stalls);
  EXPECT_GE(rs.cycles, rl.cycles);
}

TEST(HeteroCheckerSystem, DetectionRollsBackBothCoresAndFinishes) {
  workload::SyntheticStream stream(workload::profile("gzip"), 3, 30000);
  core::HeteroParams p;
  core::HeteroCheckerSystem sys(hetero_config(/*ser=*/1e-4), p, stream);
  const engine::RunResult r = sys.run();
  ASSERT_GT(r.errors_injected, 0u);
  // Every strike is detected at log verification and recovered by rollback
  // (never in place — the checker has no copy to correct from).
  EXPECT_EQ(r.rollbacks, r.errors_injected);
  EXPECT_EQ(r.recoveries, 0u);
  for (const auto& e : r.error_log) {
    EXPECT_TRUE(e.rollback);
    EXPECT_EQ(e.cost, p.rollback_penalty);
  }
  // Recovery re-executes the unverified window; the final work is intact.
  EXPECT_EQ(r.core_stats[0].committed, 30000u);
  EXPECT_EQ(r.core_stats[1].committed, 30000u);
  EXPECT_GT(r.cycles, 0u);
}

TEST(HeteroCheckerSystem, PublishesLogAndDetectionMetrics) {
  workload::SyntheticStream stream(workload::profile("gzip"), 4, 8000);
  obs::MetricsRegistry reg;
  core::HeteroParams p;
  core::HeteroCheckerSystem sys(hetero_config(/*ser=*/2e-4), p, stream);
  sys.set_observability(&reg, nullptr);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(reg.counter("hetero.group0.log.capacity").value(), p.log_entries);
  EXPECT_GT(reg.counter("hetero.group0.log.total_pushed").value(), 0u);
  EXPECT_EQ(reg.counter("hetero.group0.detections").value(),
            r.errors_injected);
  if (r.errors_injected > 0) {
    // Detection latency is log residency: bounded, and nonzero on average.
    EXPECT_GT(reg.counter("hetero.group0.detection_latency_cycles").value(),
              0u);
  }
}

TEST(HeteroCheckerSystem, MultiprogrammedGroupsStayIndependent) {
  workload::SyntheticStream stream(workload::profile("gzip"), 5, 6000);
  core::HeteroCheckerSystem sys(hetero_config(0.0, /*threads=*/2), {}, stream);
  const engine::RunResult r = sys.run();
  ASSERT_EQ(r.core_stats.size(), 4u);  // two leaders then two checkers
  EXPECT_EQ(r.core_stats[0].committed, 6000u);
  EXPECT_EQ(r.core_stats[1].committed, 6000u);
  EXPECT_EQ(r.core_stats[2].committed, 6000u);
  EXPECT_EQ(r.core_stats[3].committed, 6000u);
}

TEST(HeteroCheckerSystem, ErrorFreeOverheadIsBoundedVsBaseline) {
  // The checker is the sustainable-throughput bound, so hetero costs more
  // cycles than a lone big core — but with a roomy log the slowdown stays
  // within the checker's width bound (not a sync-protocol collapse).
  workload::SyntheticStream stream(workload::profile("gzip"), 6, 30000);
  core::BaselineSystem base(hetero_config(), stream);
  core::HeteroParams p;
  p.log_entries = 256;
  core::HeteroCheckerSystem sys(hetero_config(), p, stream);
  const Cycle base_cycles = base.run().cycles;
  const Cycle hetero_cycles = sys.run().cycles;
  EXPECT_GE(hetero_cycles, base_cycles);
  EXPECT_LT(hetero_cycles, base_cycles * 4);
}

}  // namespace
}  // namespace unsync
