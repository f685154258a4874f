// Reunion mechanism detail tests: the CSB capacity override, the
// effective-FI window clamp, rollback interaction with serializing
// synchronisation, and watermark behaviour.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
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

TEST(ReunionDetails, EffectiveCsbDefaultsToFiPlusLatencyPlusOne) {
  ReunionParams p;
  p.fingerprint_interval = 10;
  p.compare_latency = 6;
  EXPECT_EQ(p.effective_csb_entries(), 17u);  // the paper's 17 at FI=10/L=6
  p.compare_latency = 10;
  EXPECT_EQ(p.effective_csb_entries(), 21u);
  p.csb_entries = 40;  // explicit override wins
  EXPECT_EQ(p.effective_csb_entries(), 40u);
  // An override below one interval would deadlock the protocol; it is
  // clamped to FI + 1.
  p.csb_entries = 4;
  EXPECT_EQ(p.effective_csb_entries(), 11u);
}

TEST(ReunionDetails, UndersizedCsbStallsCommit) {
  // A CSB smaller than the verification window (but still >= one interval,
  // the deadlock-freedom clamp) throttles commit: the pipeline stops at
  // every interval boundary until the comparison returns.
  workload::SyntheticStream s(workload::profile("gzip"), 1, 15000);
  ReunionParams roomy;
  roomy.fingerprint_interval = 10;
  roomy.compare_latency = 30;  // provisioned CSB would be 41
  ReunionParams cramped = roomy;
  cramped.csb_entries = 11;  // one interval only
  ReunionSystem a(cfg1(), roomy, s);
  ReunionSystem b(cfg1(), cramped, s);
  const Cycle fast = a.run().cycles;
  const Cycle slow = b.run().cycles;
  EXPECT_GT(slow, fast + fast / 4);  // >= 25% slower
}

TEST(ReunionDetails, GiantFiClampedToWindow) {
  // FI far beyond the ROB must behave like the clamped interval, not wedge
  // (the clamp is rob_entries - commit_width).
  workload::SyntheticStream s(workload::profile("gzip"), 2, 10000);
  ReunionParams giant;
  giant.fingerprint_interval = 100000;
  ReunionParams clamped;
  clamped.fingerprint_interval = 76;  // 80 - 4 with Table I defaults
  ReunionSystem a(cfg1(), giant, s);
  ReunionSystem b(cfg1(), clamped, s);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.core_stats[0].committed, 10000u);
  EXPECT_EQ(ra.cycles, rb.cycles);  // identical effective configuration
}

TEST(ReunionDetails, RollbackDuringSerializingSyncIsClean) {
  // Error arrivals landing around serializing instructions: the serialize
  // queue and fingerprints are rebuilt after rollback; everything still
  // commits exactly once per core.
  workload::SyntheticStream s(workload::profile("bzip2"), 3, 20000);
  ReunionSystem sys(cfg1(5e-4), ReunionParams{}, s);
  const engine::RunResult r = sys.run();
  EXPECT_GT(r.rollbacks, 3u);
  EXPECT_EQ(r.core_stats[0].committed, 20000u);
  EXPECT_EQ(r.core_stats[1].committed, 20000u);
}

TEST(ReunionDetails, RollbackCostGrowsWithFi) {
  // Larger FI -> verified watermark trails farther behind -> each rollback
  // re-executes more. Compare total cycles at the same error schedule.
  workload::SyntheticStream s(workload::profile("gzip"), 4, 30000);
  ReunionParams small_fi;
  small_fi.fingerprint_interval = 5;
  ReunionParams big_fi;
  big_fi.fingerprint_interval = 60;
  big_fi.compare_latency = 10;
  ReunionSystem a(cfg1(1e-3), small_fi, s);
  ReunionSystem b(cfg1(1e-3), big_fi, s);
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_GT(ra.rollbacks, 10u);
  // Same arrival schedule (same seed) -> same rollback count.
  EXPECT_EQ(ra.rollbacks, rb.rollbacks);
  EXPECT_GT(rb.cycles, ra.cycles);
}

TEST(ReunionDetails, SerializingOnlyStreamTerminates) {
  std::vector<DynOp> ops;
  for (SeqNum i = 0; i < 40; ++i) {
    DynOp op;
    op.seq = i;
    op.cls = isa::InstClass::kSerializing;
    op.pc = 0x1000 + i * 4;
    ops.push_back(op);
  }
  TraceStream t(std::move(ops));
  ReunionSystem sys(cfg1(), ReunionParams{}, t);
  const engine::RunResult r = sys.run(1000000);
  EXPECT_EQ(r.core_stats[0].committed, 40u);
  EXPECT_EQ(r.fingerprint_syncs, 40u);
}

TEST(ReunionDetails, CompareLatencyZeroStillSynchronises) {
  workload::SyntheticStream s(workload::profile("bzip2"), 5, 10000);
  ReunionParams p;
  p.compare_latency = 0;
  ReunionSystem sys(cfg1(), p, s);
  const engine::RunResult r = sys.run();
  EXPECT_EQ(r.core_stats[0].committed, 10000u);
  EXPECT_GT(r.fingerprint_syncs, 100u);  // bzip2: ~2% serializing
}

}  // namespace
}  // namespace unsync::core
