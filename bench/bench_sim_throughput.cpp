// Google-benchmark microbenchmarks of the simulator substrate itself: the
// cycle engine's throughput under run() and run_naive(), plus hot substrate
// primitives. Whole-run per-instruction speed is perfbench's long_run
// workload (sim_insts_per_s), so no whole-system loop lives here.
//
// CI runs the BM_CycleEngine|BM_SyntheticStream$ subset with five
// interleaved repetitions and gates it with
//     tools/check_bench_regression.py BENCH_sim.json
//         bench/BENCH_sim_baseline.json
// which maps the google-benchmark JSON onto measured values:
// ff_speedup.<system> and each BM_CycleEngine/<variant>'s calibrated
// throughput (docs/ENGINE.md, "What it buys").
#include <benchmark/benchmark.h>

#include "core/factory.hpp"
#include "cpu/bpred.hpp"
#include "mem/cache.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace unsync;

void BM_SyntheticStream(benchmark::State& state) {
  workload::SyntheticStream s(workload::profile("gzip"), 1, 1u << 30);
  workload::DynOp op;
  for (auto _ : state) {
    s.next(&op);
    benchmark::DoNotOptimize(op);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyntheticStream);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(mem::CacheConfig{});
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access_read(addr));
    addr += 64;
    addr &= 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_GsharePredict(benchmark::State& state) {
  cpu::GsharePredictor pred;
  Addr pc = 0x1000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.mispredicted(pc, taken));
    pc += 4;
    taken = !taken;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

// Shared cycle-engine throughput (simulated cycles per wall-clock second),
// the reference run_naive() loop (*_naive) vs the default fast-forwarding
// run() (*_ff), on the stall-heavy galgel profile — long ROB-full and fence
// windows are exactly what fast-forwarding elides, so this pair is the
// regression gate for both the kernel hot path and the ff speedup
// (docs/ENGINE.md). BM_SyntheticStream is the calibration the gate divides
// each variant's throughput by, to take out raw host speed.
// Items processed = simulated cycles, so items_per_second is cycles/sec.
void BM_CycleEngine(benchmark::State& state, core::SystemKind kind,
                    bool fast_forward) {
  std::uint64_t simulated_cycles = 0;
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("galgel"), 7, 30000);
    core::SystemConfig cfg;
    cfg.num_threads = 2;
    cfg.ser_per_inst = 5e-4;
    cfg.seed = 7;
    const auto sys = core::make_system(kind, cfg, s);
    simulated_cycles += (fast_forward ? sys->run() : sys->run_naive()).cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(simulated_cycles));
}
BENCHMARK_CAPTURE(BM_CycleEngine, baseline_naive,
                  core::SystemKind::kBaseline, false);
BENCHMARK_CAPTURE(BM_CycleEngine, baseline_ff,
                  core::SystemKind::kBaseline, true);
BENCHMARK_CAPTURE(BM_CycleEngine, unsync_naive,
                  core::SystemKind::kUnSync, false);
BENCHMARK_CAPTURE(BM_CycleEngine, unsync_ff,
                  core::SystemKind::kUnSync, true);
BENCHMARK_CAPTURE(BM_CycleEngine, reunion_naive,
                  core::SystemKind::kReunion, false);
BENCHMARK_CAPTURE(BM_CycleEngine, reunion_ff,
                  core::SystemKind::kReunion, true);

}  // namespace
