// Cross-module integration tests asserting the paper's headline shapes:
// who wins, in which direction, and where the mechanisms bite. These are
// the same comparisons the bench harness prints, at reduced scale.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
#include "isa/assembler.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace unsync::core {
namespace {

constexpr std::uint64_t kInsts = 30000;

SystemConfig cfg1() {
  SystemConfig cfg;
  cfg.num_threads = 1;
  return cfg;
}

double baseline_ipc(const workload::InstStream& s) {
  BaselineSystem sys(cfg1(), s);
  return sys.run().thread_ipc();
}

double unsync_ipc(const workload::InstStream& s, std::size_t cb = 256) {
  UnSyncParams p;
  p.cb_entries = cb;
  UnSyncSystem sys(cfg1(), p, s);
  return sys.run().thread_ipc();
}

double reunion_ipc(const workload::InstStream& s, unsigned fi = 10,
                   Cycle lat = 10) {
  ReunionParams p;
  p.fingerprint_interval = fi;
  p.compare_latency = lat;
  ReunionSystem sys(cfg1(), p, s);
  return sys.run().thread_ipc();
}

// Figure 4 shape: on serializing-heavy benchmarks Reunion loses clearly
// more than UnSync does, relative to the baseline.
class Fig4Shape : public ::testing::TestWithParam<const char*> {};

TEST_P(Fig4Shape, UnsyncOverheadBelowReunion) {
  workload::SyntheticStream s(workload::profile(GetParam()), 101, kInsts);
  const double base = baseline_ipc(s);
  const double unsync_loss = (base - unsync_ipc(s)) / base;
  const double reunion_loss = (base - reunion_ipc(s)) / base;
  EXPECT_LT(unsync_loss, reunion_loss) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SerializingBenchmarks, Fig4Shape,
                         ::testing::Values("bzip2", "ammp", "galgel"));

TEST(Fig4, UnsyncOverheadStaysSmall) {
  // "UnSync demonstrates a consistently negligible variation (around 2%)".
  for (const char* bench : {"bzip2", "ammp", "galgel", "gzip"}) {
    workload::SyntheticStream s(workload::profile(bench), 102, kInsts);
    const double base = baseline_ipc(s);
    const double loss = (base - unsync_ipc(s)) / base;
    EXPECT_LT(loss, 0.08) << bench;
  }
}

TEST(Fig5, ReunionDegradesWithFiAndLatencyUnsyncDoesNot) {
  workload::SyntheticStream s(workload::profile("galgel"), 103, kInsts);
  const double r_small = reunion_ipc(s, 1, 10);
  const double r_big = reunion_ipc(s, 30, 40);
  EXPECT_LT(r_big, r_small * 0.95);  // clear degradation

  // UnSync has no FI knob at all; its IPC is one number. It must beat
  // Reunion's degraded configuration comfortably.
  EXPECT_GT(unsync_ipc(s), r_big);
}

TEST(Fig6, CbSizeSweepRecoversBaseline) {
  workload::SyntheticStream s(workload::profile("susan"), 104, kInsts);
  const double base = baseline_ipc(s);
  const double small_cb = unsync_ipc(s, UnSyncParams::entries_for_bytes(128));
  const double large_cb = unsync_ipc(s, UnSyncParams::entries_for_bytes(4096));
  EXPECT_LT(small_cb, large_cb);
  EXPECT_GT(large_cb, base * 0.92);  // "almost identical with baseline"
}

TEST(SerSweep, IpcFlatAcrossRealisticRates) {
  // §VI-C: from 1e-7 to 1e-17 per instruction the IPC does not move.
  workload::SyntheticStream s(workload::profile("gzip"), 105, kInsts);
  UnSyncParams p;
  p.cb_entries = 256;
  SystemConfig low = cfg1();
  low.ser_per_inst = 1e-17;
  SystemConfig high = cfg1();
  high.ser_per_inst = 1e-7;
  UnSyncSystem a(low, p, s);
  UnSyncSystem b(high, p, s);
  const double ipc_low = a.run().thread_ipc();
  const double ipc_high = b.run().thread_ipc();
  EXPECT_NEAR(ipc_low, ipc_high, ipc_low * 0.01);
}

TEST(SerSweep, ExtremeRatesDoSlowUnsync) {
  // Near the break-even region (1e-3/inst) recovery costs finally bite.
  workload::SyntheticStream s(workload::profile("gzip"), 106, kInsts);
  UnSyncParams p;
  p.cb_entries = 256;
  SystemConfig hot = cfg1();
  hot.ser_per_inst = 1e-3;
  UnSyncSystem a(cfg1(), p, s);
  UnSyncSystem b(hot, p, s);
  EXPECT_GT(b.run().cycles, a.run().cycles);
}

TEST(TraceDriven, RealProgramRunsOnAllThreeSystems) {
  // Execution-driven path: a real URISC kernel recorded from the golden
  // model, replayed through all three architectures.
  const auto prog = isa::Assembler::assemble(R"(
    addi r10, r0, 400
    la   r20, 0x200000
  loop:
    ld   r1, 0(r20)
    add  r1, r1, r10
    st   r1, 0(r20)
    addi r20, r20, 8
    addi r10, r10, -1
    bne  r10, r0, loop
    membar
    halt
  )");
  workload::TraceStream trace(workload::record_trace(prog, 100000));
  ASSERT_GT(trace.length(), 2000u);

  BaselineSystem base(cfg1(), trace);
  const engine::RunResult rb = base.run();
  EXPECT_EQ(rb.core_stats[0].committed, trace.length());

  UnSyncParams up;
  up.cb_entries = 256;
  UnSyncSystem us(cfg1(), up, trace);
  const engine::RunResult ru = us.run();
  EXPECT_EQ(ru.core_stats[0].committed, trace.length());

  ReunionSystem re(cfg1(), ReunionParams{}, trace);
  const engine::RunResult rr = re.run();
  EXPECT_EQ(rr.core_stats[0].committed, trace.length());

  // Shape: baseline >= unsync > reunion is the expected order here (the
  // trace ends in a membar, and stores dominate).
  EXPECT_GE(rb.thread_ipc() * 1.02, ru.thread_ipc());
  EXPECT_GT(ru.thread_ipc(), rr.thread_ipc() * 0.99);
}

TEST(Headline, UnsyncBeatsReunionAcrossTheBoard) {
  // The paper's summary claim: up to 20% better performance at the same
  // reliability. Check every profile at the default configurations.
  double worst_gain = 1e9;
  for (const auto& prof : workload::all_profiles()) {
    workload::SyntheticStream s(prof, 107, 20000);
    const double u = unsync_ipc(s);
    const double r = reunion_ipc(s);
    EXPECT_GT(u, r * 0.98) << prof.name;  // never meaningfully worse
    worst_gain = std::min(worst_gain, u / r);
  }
  EXPECT_GT(worst_gain, 0.95);
}

}  // namespace
}  // namespace unsync::core
