// The observability layer's contracts: registry registration semantics,
// snapshot/merge algebra (associativity — the property the parallel
// campaign reduction rests on), serialisation determinism, trace gating,
// and thread-safe concurrent registration (run under -DUNSYNC_TSAN=ON).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ckpt/serializer.hpp"
#include "core/factory.hpp"
#include "core/system.hpp"
#include "core/unsync_system.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

namespace unsync {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceKind;
using obs::TraceRecord;
using obs::Tracer;
using obs::VectorTraceSink;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("x.hits");
  obs::Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b) << "same path must return the same instrument";
  a.inc();
  b.inc(2);
  EXPECT_EQ(reg.counter("x.hits").value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, ConvenienceSettersMatchHandles) {
  MetricsRegistry reg;
  reg.set_counter("c", 7);
  reg.observe("g", 1.5);
  reg.observe("g", 2.5);
  EXPECT_EQ(reg.counter("c").value(), 7u);
  EXPECT_EQ(reg.gauge("g").count(), 2u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").mean(), 2.0);
}

TEST(MetricsRegistry, HistogramShapeFixedAtFirstUse) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("rob", 0.0, 8.0, 8);
  h.add(3.0);
  // Later shape arguments are ignored; it is the same instrument.
  Histogram& again = reg.histogram("rob", 0.0, 100.0, 2);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.buckets(), 8u);
  EXPECT_EQ(again.total(), 1u);
}

TEST(MetricsRegistry, SnapshotIsADeepCopy) {
  MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.observe("g", 1.0);
  const MetricsSnapshot snap = reg.snapshot();
  reg.counter("c").inc(100);
  reg.observe("g", 99.0);
  EXPECT_EQ(snap.counters.at("c"), 5u);
  EXPECT_EQ(snap.gauges.at("g").count(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot merge algebra
// ---------------------------------------------------------------------------

MetricsSnapshot sample_snapshot(std::uint64_t salt) {
  MetricsRegistry reg;
  reg.counter("shared.count").inc(10 + salt);
  reg.counter("only." + std::to_string(salt)).inc(salt + 1);
  for (std::uint64_t i = 0; i <= salt; ++i) {
    reg.observe("shared.gauge", static_cast<double>(i * salt));
    reg.histogram("shared.hist", 0.0, 16.0, 8)
        .add(static_cast<double>((i * 3 + salt) % 16));
  }
  return reg.snapshot();
}

TEST(MetricsSnapshot, MergeAddsCountersAndBuckets) {
  MetricsSnapshot a = sample_snapshot(1);
  const MetricsSnapshot b = sample_snapshot(2);
  const auto a_count = a.counters.at("shared.count");
  const auto b_count = b.counters.at("shared.count");
  a.merge(b);
  EXPECT_EQ(a.counters.at("shared.count"), a_count + b_count);
  // Disjoint paths are unioned.
  EXPECT_TRUE(a.counters.count("only.1"));
  EXPECT_TRUE(a.counters.count("only.2"));
  EXPECT_EQ(a.histograms.at("shared.hist").total(), 2u + 3u);
  EXPECT_EQ(a.gauges.at("shared.gauge").count(), 2u + 3u);
}

TEST(MetricsSnapshot, MergeIsAssociative) {
  // (a + b) + c must equal a + (b + c) byte-for-byte — the guarantee that
  // lets CampaignRunner reduce per-job snapshots in submission order and
  // get a worker-count-independent aggregate.
  MetricsSnapshot left = sample_snapshot(1);
  {
    MetricsSnapshot bc = sample_snapshot(2);
    MetricsSnapshot ab = sample_snapshot(1);
    ab.merge(sample_snapshot(2));
    ab.merge(sample_snapshot(3));
    bc.merge(sample_snapshot(3));
    left.merge(bc);
    EXPECT_EQ(ab.to_json(), left.to_json());
    EXPECT_EQ(ab.to_csv(), left.to_csv());
  }
}

TEST(MetricsSnapshot, MergeWithEmptyIsIdentity) {
  MetricsSnapshot a = sample_snapshot(4);
  const std::string before = a.to_json();
  a.merge(MetricsSnapshot{});
  EXPECT_EQ(a.to_json(), before);
  MetricsSnapshot empty;
  empty.merge(a);
  EXPECT_EQ(empty.to_json(), before);
}

TEST(MetricsSnapshot, MismatchedHistogramShapesThrow) {
  MetricsRegistry a, b;
  a.histogram("h", 0.0, 10.0, 10).add(1);
  b.histogram("h", 0.0, 20.0, 10).add(1);
  MetricsSnapshot sa = a.snapshot();
  EXPECT_THROW(sa.merge(b.snapshot()), std::invalid_argument);
}

TEST(MetricsSnapshot, JsonAndCsvAreDeterministic) {
  const MetricsSnapshot a = sample_snapshot(3);
  const MetricsSnapshot b = sample_snapshot(3);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_json(2), b.to_json(2));
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_NE(a.to_json().find("\"schema\":\"unsync.metrics.v1\""),
            std::string::npos);
  EXPECT_EQ(a.to_csv().substr(0, 4), "kind");
}

// ---------------------------------------------------------------------------
// Concurrent registration (the TSAN target: campaign jobs may race to
// register instruments in a shared registry)
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPaths = 32;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      for (int p = 0; p < kPaths; ++p) {
        // Overlapping paths: every thread registers the same names, racing
        // on the map, then updates a thread-private counter.
        reg.counter("shared.path" + std::to_string(p));
        reg.gauge("shared.gauge" + std::to_string(p));
        reg.histogram("shared.hist" + std::to_string(p), 0.0, 8.0, 8);
        reg.counter("thread" + std::to_string(t) + ".work").inc();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.size(), 3u * kPaths + kThreads);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("thread" + std::to_string(t) + ".work").value(),
              static_cast<std::uint64_t>(kPaths));
  }
}

// ---------------------------------------------------------------------------
// Tracer gating and sinks
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledGateDropsRecords) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.emit({.kind = TraceKind::kCommit});  // must be a safe no-op
  VectorTraceSink sink;
  tracer.set_sink(&sink);
  EXPECT_TRUE(tracer.enabled());
  tracer.emit({.kind = TraceKind::kCommit, .cycle = 9});
  tracer.set_sink(nullptr);
  EXPECT_FALSE(tracer.enabled());
  tracer.emit({.kind = TraceKind::kCommit, .cycle = 10});
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.records()[0].cycle, 9u);
}

TEST(Tracer, KindNamesAreStable) {
  EXPECT_STREQ(obs::name_of(TraceKind::kFetch), "fetch");
  EXPECT_STREQ(obs::name_of(TraceKind::kCommit), "commit");
  EXPECT_STREQ(obs::name_of(TraceKind::kErrorInjection), "error_injection");
  EXPECT_STREQ(obs::name_of(TraceKind::kBusTransaction), "bus");
  EXPECT_STREQ(obs::name_of(TraceKind::kCbDrain), "cb_drain");
}

TEST(Tracer, RecordJsonIsOneStableObject) {
  const TraceRecord r{.kind = TraceKind::kRecovery,
                      .cycle = 120,
                      .thread = 1,
                      .core = 3,
                      .seq = 42,
                      .addr = 0x1000,
                      .value = 64};
  EXPECT_EQ(obs::to_json(r),
            "{\"kind\":\"recovery\",\"cycle\":120,\"thread\":1,\"core\":3,"
            "\"seq\":42,\"addr\":4096,\"value\":64}");
}

TEST(JsonlTraceSink, WritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "unsync_trace_test.jsonl";
  {
    obs::JsonlTraceSink sink(path);
    sink.record({.kind = TraceKind::kCommit, .cycle = 1});
    sink.record({.kind = TraceKind::kFetch, .cycle = 2});
    sink.flush();
    EXPECT_EQ(sink.records_written(), 2u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(JsonlTraceSink, UnwritablePathThrows) {
  EXPECT_THROW(obs::JsonlTraceSink("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// System integration: attaching observability must not perturb the run
// ---------------------------------------------------------------------------

engine::RunResult run_unsync(obs::MetricsRegistry* metrics,
                             obs::TraceSink* trace) {
  workload::SyntheticStream stream(workload::profile("susan"), 7, 3000);
  core::SystemConfig cfg;
  cfg.num_threads = 1;
  cfg.ser_per_inst = 1e-4;
  cfg.seed = 7;
  core::UnSyncSystem sys(cfg, core::UnSyncParams{}, stream);
  if (metrics || trace) sys.set_observability(metrics, trace);
  return sys.run();
}

TEST(SystemObservability, AttachingSinksDoesNotChangeTheSimulation) {
  const auto plain = run_unsync(nullptr, nullptr);
  MetricsRegistry reg;
  VectorTraceSink sink;
  const auto observed = run_unsync(&reg, &sink);
  EXPECT_EQ(plain.cycles, observed.cycles);
  EXPECT_EQ(plain.instructions, observed.instructions);
  EXPECT_EQ(plain.errors_injected, observed.errors_injected);
  EXPECT_EQ(plain.recoveries, observed.recoveries);
  EXPECT_EQ(plain.to_json(), observed.to_json());
}

TEST(SystemObservability, PublishesTheStandardMetricTree) {
  MetricsRegistry reg;
  VectorTraceSink sink;
  const auto r = run_unsync(&reg, &sink);
  const MetricsSnapshot snap = reg.snapshot();

  EXPECT_EQ(snap.counters.at("unsync.cycles"), r.cycles);
  EXPECT_EQ(snap.counters.at("unsync.instructions"), r.instructions);
  EXPECT_EQ(snap.counters.at("unsync.errors.injected"), r.errors_injected);
  // One redundancy group of two cores, group-major naming.
  EXPECT_EQ(snap.counters.at("unsync.group0.core0.commit.committed"),
            r.core_stats[0].committed);
  EXPECT_EQ(snap.counters.at("unsync.group0.core1.commit.committed"),
            r.core_stats[1].committed);
  // Per-cycle ROB occupancy histograms were sampled for both cores.
  EXPECT_EQ(snap.histograms.at("unsync.group0.core0.rob.occupancy").total(),
            r.core_stats[0].cycles);
  // Memory tree present.
  EXPECT_TRUE(snap.counters.count("unsync.mem.l2.misses"));
  EXPECT_TRUE(snap.counters.count("unsync.mem.bus.transactions"));

  // The trace saw the run's structural events.
  std::size_t commits = 0, fetches = 0, injections = 0, drains = 0;
  for (const auto& rec : sink.records()) {
    commits += rec.kind == TraceKind::kCommit;
    fetches += rec.kind == TraceKind::kFetch;
    injections += rec.kind == TraceKind::kErrorInjection;
    drains += rec.kind == TraceKind::kCbDrain;
  }
  // Two redundant cores each commit the 3000-instruction program.
  EXPECT_EQ(commits, 2u * r.instructions);
  EXPECT_GE(fetches, commits);
  EXPECT_EQ(injections, r.errors_injected);
  EXPECT_GT(drains, 0u) << "UnSync must drain CB entries to L2";
}

// ---------------------------------------------------------------------------
// ObservabilityIdentity: what every system feeds its observers is pinned.
// Metric names derive from the cores registered per group (core_prefix),
// and the trace stream's order from the order of the policy phases, so a
// change to either shows here as a hash mismatch.
// ---------------------------------------------------------------------------

struct ObsPin {
  const char* label;
  core::SystemKind kind;
  unsigned group_size;  ///< UnSync cores per group; ignored by the others
  std::uint64_t metrics_hash;
  std::uint64_t trace_hash;
};

class ObservabilityIdentity : public ::testing::TestWithParam<ObsPin> {};

TEST_P(ObservabilityIdentity, MetricsAndTraceBytesArePinned) {
  const ObsPin& pin = GetParam();
  core::SystemConfig cfg;
  cfg.num_threads = 2;
  cfg.ser_per_inst = 1e-3;
  cfg.seed = 23;
  cfg.avf = true;
  core::SystemParams params;
  params.unsync.group_size = pin.group_size;
  workload::SyntheticStream stream(workload::profile("gzip"), cfg.seed, 3000);
  auto sys = core::make_system(pin.kind, cfg, stream, params);
  MetricsRegistry reg;
  VectorTraceSink sink;
  sys->set_observability(&reg, &sink);
  const auto r = sys->run();
  if (pin.kind != core::SystemKind::kBaseline) {
    EXPECT_GT(r.errors_injected, 0u) << "the error paths must be traced";
  }

  // The JSON Lines a JsonlTraceSink would write.
  std::string trace;
  for (const auto& rec : sink.records()) {
    trace += obs::to_json(rec);
    trace += '\n';
  }
  EXPECT_EQ(ckpt::hash64(reg.snapshot().to_json()), pin.metrics_hash);
  EXPECT_EQ(ckpt::hash64(trace), pin.trace_hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ObservabilityIdentity,
    ::testing::Values(
        ObsPin{"baseline", core::SystemKind::kBaseline, 2,
               7704381670985816724ull,
               2087338523983122048ull},
        ObsPin{"unsync", core::SystemKind::kUnSync, 2,
               14384554123519379282ull,
               16663733735852162560ull},
        ObsPin{"unsync3", core::SystemKind::kUnSync, 3,
               5008926030600998589ull,
               14619404689039125511ull},
        ObsPin{"reunion", core::SystemKind::kReunion, 2,
               9196696888766573915ull,
               11997689432823066141ull},
        ObsPin{"lockstep", core::SystemKind::kLockstep, 2,
               8596669043644338977ull,
               15295097549321083230ull},
        ObsPin{"checkpoint", core::SystemKind::kCheckpoint, 2,
               4335589319530954701ull,
               17862927592740237539ull},
        ObsPin{"hetero", core::SystemKind::kHetero, 2,
               8592042098116775716ull,
               10120260854249041359ull}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace unsync
