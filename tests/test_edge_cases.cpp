// Boundary conditions and failure-injection edge cases across the systems:
// empty/tiny streams, extreme parameters, errors at the very first and
// last instruction, serializing instructions at stream boundaries, and
// store-only / load-only workloads.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::core {
namespace {

using workload::DynOp;
using workload::TraceStream;

SystemConfig cfg1(double ser = 0.0) {
  SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = ser;
  return cfg;
}

DynOp make_op(SeqNum seq, isa::InstClass cls, Addr addr = kNoAddr) {
  DynOp op;
  op.seq = seq;
  op.cls = cls;
  op.pc = 0x1000 + seq * 4;
  op.mem_addr = addr;
  op.writes_reg = cls == isa::InstClass::kIntAlu || cls == isa::InstClass::kLoad;
  return op;
}

std::vector<DynOp> ops_of(std::initializer_list<isa::InstClass> classes) {
  std::vector<DynOp> ops;
  SeqNum seq = 0;
  for (const auto cls : classes) {
    const Addr addr = (cls == isa::InstClass::kLoad ||
                       cls == isa::InstClass::kStore)
                          ? 0x100000 + seq * 8
                          : kNoAddr;
    ops.push_back(make_op(seq++, cls, addr));
  }
  return ops;
}

TEST(EdgeCases, EmptyStreamFinishesImmediately) {
  TraceStream empty{std::vector<DynOp>{}};
  BaselineSystem base(cfg1(), empty);
  const engine::RunResult r = base.run(1000);
  EXPECT_EQ(r.core_stats[0].committed, 0u);
  EXPECT_LT(r.cycles, 10u);
}

TEST(EdgeCases, EmptyStreamOnRedundantSystems) {
  TraceStream empty{std::vector<DynOp>{}};
  UnSyncParams up;
  up.cb_entries = 4;
  UnSyncSystem us(cfg1(), up, empty);
  EXPECT_EQ(us.run(1000).core_stats[0].committed, 0u);
  ReunionSystem re(cfg1(), ReunionParams{}, empty);
  EXPECT_EQ(re.run(1000).core_stats[0].committed, 0u);
}

TEST(EdgeCases, SingleInstructionStream) {
  TraceStream one(ops_of({isa::InstClass::kIntAlu}));
  UnSyncParams up;
  up.cb_entries = 4;
  UnSyncSystem sys(cfg1(), up, one);
  const engine::RunResult r = sys.run(10000);
  EXPECT_EQ(r.core_stats[0].committed, 1u);
  EXPECT_EQ(r.core_stats[1].committed, 1u);
}

TEST(EdgeCases, SingleSerializingInstruction) {
  TraceStream one(ops_of({isa::InstClass::kSerializing}));
  ReunionSystem sys(cfg1(), ReunionParams{}, one);
  const engine::RunResult r = sys.run(10000);
  EXPECT_EQ(r.core_stats[0].committed, 1u);
  EXPECT_EQ(r.fingerprint_syncs, 1u);
}

TEST(EdgeCases, SerializingAtStreamEnd) {
  TraceStream t(ops_of({isa::InstClass::kIntAlu, isa::InstClass::kIntAlu,
                        isa::InstClass::kSerializing}));
  ReunionSystem sys(cfg1(), ReunionParams{}, t);
  const engine::RunResult r = sys.run(10000);
  EXPECT_EQ(r.core_stats[0].committed, 3u);
}

TEST(EdgeCases, BackToBackSerializing) {
  TraceStream t(ops_of({isa::InstClass::kSerializing,
                        isa::InstClass::kSerializing,
                        isa::InstClass::kSerializing}));
  ReunionSystem sys(cfg1(), ReunionParams{}, t);
  const engine::RunResult r = sys.run(100000);
  EXPECT_EQ(r.core_stats[0].committed, 3u);
  EXPECT_EQ(r.fingerprint_syncs, 3u);
}

TEST(EdgeCases, StoreOnlyStreamDrainsCompletely) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 200; ++i) {
    ops.push_back(make_op(i, isa::InstClass::kStore, 0x100000 + i * 8));
  }
  TraceStream t(std::move(ops));
  UnSyncParams up;
  up.cb_entries = 2;  // minimal CB: maximal backpressure
  UnSyncSystem sys(cfg1(), up, t);
  const engine::RunResult r = sys.run(1000000);
  EXPECT_EQ(r.core_stats[0].committed, 200u);
  EXPECT_EQ(r.core_stats[1].committed, 200u);
}

TEST(EdgeCases, CbOfOneEntryStillCorrect) {
  workload::SyntheticStream s(workload::profile("susan"), 1, 5000);
  UnSyncParams up;
  up.cb_entries = 1;
  UnSyncSystem sys(cfg1(), up, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, 5000u);
  EXPECT_GT(r.cb_full_stalls, 0u);
}

TEST(EdgeCases, FiLargerThanStream) {
  workload::SyntheticStream s(workload::profile("gzip"), 2, 500);
  ReunionParams rp;
  rp.fingerprint_interval = 10000;  // never closes naturally
  ReunionSystem sys(cfg1(), rp, s);
  const engine::RunResult r = sys.run(1000000);
  EXPECT_EQ(r.core_stats[0].committed, 500u);
}

TEST(EdgeCases, FiOfOne) {
  workload::SyntheticStream s(workload::profile("gzip"), 3, 2000);
  ReunionParams rp;
  rp.fingerprint_interval = 1;
  rp.compare_latency = 10;
  ReunionSystem sys(cfg1(), rp, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, 2000u);
}

TEST(EdgeCases, ErrorAtVeryFirstInstruction) {
  workload::SyntheticStream s(workload::profile("gzip"), 4, 5000);
  SystemConfig cfg = cfg1();
  cfg.ser_per_inst = 0.999;  // errors effectively every instruction position
  UnSyncParams up;
  up.cb_entries = 64;
  UnSyncSystem sys(cfg, up, s);
  // Bound the run: with per-instruction errors this is recovery-dominated,
  // but it must still make forward progress (always-forward execution).
  const engine::RunResult r = sys.run(3000000);
  EXPECT_GT(r.recoveries, 100u);
  EXPECT_GT(r.core_stats[0].committed, 0u);
}

TEST(EdgeCases, ZeroSerNeverInjects) {
  workload::SyntheticStream s(workload::profile("gzip"), 5, 5000);
  UnSyncParams up;
  up.cb_entries = 64;
  UnSyncSystem sys(cfg1(0.0), up, s);
  EXPECT_EQ(sys.run().errors_injected, 0u);
}

TEST(EdgeCases, MaxCyclesZeroReturnsImmediately) {
  workload::SyntheticStream s(workload::profile("gzip"), 6, 5000);
  BaselineSystem base(cfg1(), s);
  const engine::RunResult r = base.run(0);
  EXPECT_EQ(r.cycles, 0u);
}

TEST(EdgeCases, TinyRobAndIqStillComplete) {
  workload::SyntheticStream s(workload::profile("mcf"), 7, 3000);
  SystemConfig cfg = cfg1();
  cfg.core.rob_entries = 4;
  cfg.core.iq_entries = 4;
  cfg.core.lq_entries = 2;
  cfg.core.sq_entries = 2;
  BaselineSystem base(cfg, s);
  const engine::RunResult r = base.run();
  EXPECT_EQ(r.core_stats[0].committed, 3000u);
}

TEST(EdgeCases, SingleWideCore) {
  workload::SyntheticStream s(workload::profile("gzip"), 8, 3000);
  SystemConfig cfg = cfg1();
  cfg.core.fetch_width = 1;
  cfg.core.issue_width = 1;
  cfg.core.commit_width = 1;
  BaselineSystem narrow(cfg, s);
  BaselineSystem wide(cfg1(), s);
  const engine::RunResult rn = narrow.run();
  const engine::RunResult rw = wide.run();
  EXPECT_EQ(rn.core_stats[0].committed, 3000u);
  EXPECT_GT(rn.cycles, rw.cycles);
  EXPECT_LE(rn.thread_ipc(), 1.0 + 1e-9);
}

TEST(EdgeCases, ReunionZeroCompareLatency) {
  workload::SyntheticStream s(workload::profile("gzip"), 9, 3000);
  ReunionParams rp;
  rp.compare_latency = 0;
  ReunionSystem sys(cfg1(), rp, s);
  EXPECT_EQ(sys.run().core_stats[0].committed, 3000u);
}

TEST(EdgeCases, HugeCbNeverStalls) {
  workload::SyntheticStream s(workload::profile("susan"), 10, 10000);
  UnSyncParams up;
  up.cb_entries = 1u << 20;
  UnSyncSystem sys(cfg1(), up, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.cb_full_stalls, 0u);
}

TEST(EdgeCases, RepeatedRunsOnFreshSystemsAgree) {
  // Constructing two identical systems over the same stream must give the
  // same cycle count (no hidden global state).
  workload::SyntheticStream s(workload::profile("twolf"), 11, 8000);
  const Cycle a = BaselineSystem(cfg1(), s).run().cycles;
  const Cycle b = BaselineSystem(cfg1(), s).run().cycles;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace unsync::core
