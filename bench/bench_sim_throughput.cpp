// Google-benchmark microbenchmarks of the simulator substrate itself:
// simulation throughput (simulated instructions per wall-clock second) for
// each system, plus hot substrate primitives.
#include <benchmark/benchmark.h>

#include "core/baseline.hpp"
#include "core/factory.hpp"
#include "core/reunion_system.hpp"
#include "core/unsync_system.hpp"
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

void BM_BaselineSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::BaselineSystem sys(cfg, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_BaselineSystem)->Arg(5000)->Arg(20000);

void BM_UnSyncSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::UnSyncParams p;
    p.cb_entries = 256;
    core::UnSyncSystem sys(cfg, p, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_UnSyncSystem)->Arg(5000)->Arg(20000);

// Shared cycle-engine throughput (simulated cycles per wall-clock second),
// the reference run_naive() loop (*_naive) vs the default fast-forwarding
// run() (*_ff), on the stall-heavy galgel profile — long ROB-full and fence
// windows are exactly what fast-forwarding elides, so this pair is the
// regression gate for both the kernel hot path and the ff speedup
// (tools/check_bench_regression.py; docs/ENGINE.md).
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

void BM_ReunionSystem(benchmark::State& state) {
  const auto insts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    workload::SyntheticStream s(workload::profile("gzip"), 1, insts);
    core::SystemConfig cfg;
    cfg.num_threads = 1;
    core::ReunionSystem sys(cfg, core::ReunionParams{}, s);
    benchmark::DoNotOptimize(sys.run().cycles);
  }
  state.SetItemsProcessed(state.iterations() * insts);
}
BENCHMARK(BM_ReunionSystem)->Arg(5000)->Arg(20000);

}  // namespace
