// The ACE/AVF subsystem's contracts: exact integer residency accounting,
// associative (worker-count-independent) publication, the protection-plan
// vocabulary, and the observation-only guarantee — avf=1 never changes a
// simulated bit. The report JSON is golden-pinned: it is a contract with
// external consumers (plot scripts, the CI frontier gate); see
// docs/FAULTS.md before regenerating.
#include "fault/avf.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/campaign.hpp"

#ifndef UNSYNC_TEST_DATA_DIR
#error "UNSYNC_TEST_DATA_DIR must point at tests/ (set by tests/CMakeLists.txt)"
#endif

namespace unsync::fault {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(UNSYNC_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// ResidencyTracker
// ---------------------------------------------------------------------------

TEST(ResidencyTracker, EventDurationAccumulates) {
  ResidencyTracker t;
  t.add(10);
  t.add(25);
  t.add(0);
  EXPECT_EQ(t.entry_cycles(), 35u);
  EXPECT_EQ(t.events(), 3u);
}

TEST(ResidencyTracker, LiveOccupancyIntegratesPiecewise) {
  ResidencyTracker t;
  t.set_live(10, 2);   // [0,10): 0 live
  t.set_live(30, 5);   // [10,30): 2 live -> 40
  t.set_live(50, 0);   // [30,50): 5 live -> 100
  t.finish(80);        // [50,80): 0 live -> 0
  EXPECT_EQ(t.entry_cycles(), 140u);
  EXPECT_EQ(t.live(), 0u);
}

TEST(ResidencyTracker, FinishClosesOpenWindow) {
  ResidencyTracker t;
  t.set_live(0, 3);
  t.finish(100);
  EXPECT_EQ(t.entry_cycles(), 300u);
  // finish() is idempotent at the same end cycle.
  t.finish(100);
  EXPECT_EQ(t.entry_cycles(), 300u);
}

TEST(ResidencyTracker, NonMonotonicTimeIsClamped) {
  ResidencyTracker t;
  t.set_live(20, 4);
  t.set_live(10, 7);  // time went backwards: integrate nothing
  EXPECT_EQ(t.entry_cycles(), 0u);
  t.finish(30);  // [20,30) at the updated occupancy of 7
  EXPECT_EQ(t.entry_cycles(), 70u);
}

TEST(ResidencyTracker, RedundantSetLiveIsNotAnEvent) {
  ResidencyTracker t;
  t.set_live(5, 2);
  t.set_live(9, 2);  // occupancy unchanged: no event recorded
  t.set_live(12, 3);
  EXPECT_EQ(t.events(), 2u);
}

// ---------------------------------------------------------------------------
// UncorePlan + parsing
// ---------------------------------------------------------------------------

TEST(UncorePlan, UniformPresetsNameThemselves) {
  EXPECT_EQ(uniform_uncore_plan(Mechanism::kNone).name, "none");
  EXPECT_EQ(uniform_uncore_plan(Mechanism::kParity1).name, "parity");
  EXPECT_EQ(uniform_uncore_plan(Mechanism::kSecded).name, "secded");
}

TEST(UncorePlan, IdListsEveryStructureInEnumOrder) {
  auto plan = uniform_uncore_plan(Mechanism::kParity1);
  plan.set(UncoreStructure::kTlb, Mechanism::kSecded);
  const std::string id = plan.id();
  // One key per structure, enum order, canonical mechanism names.
  EXPECT_EQ(id,
            "bus_queue=parity-1,mshr=parity-1,write_buffer=parity-1,"
            "cache_tag=parity-1,tlb=SECDED,dram_queue=parity-1,"
            "cache_data=parity-1,check_log=parity-1");
}

TEST(UncorePlan, CoverageAndCorrectionFollowMechanism) {
  const auto parity = uniform_uncore_plan(Mechanism::kParity1);
  const auto secded = uniform_uncore_plan(Mechanism::kSecded);
  const auto none = uniform_uncore_plan(Mechanism::kNone);
  EXPECT_EQ(parity.detection_coverage(UncoreStructure::kMshr, 1), 1.0);
  EXPECT_EQ(parity.detection_coverage(UncoreStructure::kMshr, 2), 0.0);
  EXPECT_FALSE(parity.corrects_in_place(UncoreStructure::kMshr, 1));
  EXPECT_EQ(secded.detection_coverage(UncoreStructure::kTlb, 2), 1.0);
  EXPECT_TRUE(secded.corrects_in_place(UncoreStructure::kTlb, 1));
  EXPECT_FALSE(secded.corrects_in_place(UncoreStructure::kTlb, 2));
  EXPECT_EQ(none.detection_coverage(UncoreStructure::kCacheTag, 1), 0.0);
}

TEST(ParseProtect, AcceptsKnobSpellings) {
  Mechanism m;
  EXPECT_TRUE(parse_protect_mechanism("none", &m));
  EXPECT_EQ(m, Mechanism::kNone);
  EXPECT_TRUE(parse_protect_mechanism("parity", &m));
  EXPECT_EQ(m, Mechanism::kParity1);
  EXPECT_TRUE(parse_protect_mechanism("secded", &m));
  EXPECT_EQ(m, Mechanism::kSecded);
  EXPECT_TRUE(parse_protect_mechanism("ecc", &m));
  EXPECT_EQ(m, Mechanism::kSecded);
  EXPECT_FALSE(parse_protect_mechanism("hamming", &m));
  EXPECT_FALSE(parse_protect_mechanism("", &m));
}

TEST(ParseProtect, StructureNamesRoundTrip) {
  for (std::size_t i = 0; i < kUncoreStructureCount; ++i) {
    const auto s = static_cast<UncoreStructure>(i);
    UncoreStructure parsed;
    ASSERT_TRUE(parse_uncore_structure(name_of(s), &parsed)) << name_of(s);
    EXPECT_EQ(parsed, s);
  }
  UncoreStructure s;
  EXPECT_FALSE(parse_uncore_structure("rob", &s));
}

// ---------------------------------------------------------------------------
// AvfCollector publication
// ---------------------------------------------------------------------------

/// Registers one deterministic instance per structure and drives fixed
/// residency through it — the publication fixture for the golden tests.
void drive_collector(AvfCollector& c) {
  c.make_tracker(UncoreStructure::kBusQueue, 16, 72)->add(400);
  c.make_tracker(UncoreStructure::kMshr, 8, 64)->add(1200);
  auto* wb = c.make_tracker(UncoreStructure::kWriteBuffer, 64, 128);
  wb->set_live(100, 4);
  wb->set_live(600, 1);
  auto* tags = c.make_tracker(UncoreStructure::kCacheTag, 512, 21);
  tags->set_live(0, 256);
  c.make_tracker(UncoreStructure::kTlb, 64, 106)->set_live(50, 48);
  c.make_tracker(UncoreStructure::kDramQueue, 32, 128)->add(900);
  auto* data = c.make_tracker(UncoreStructure::kCacheData, 512, 512);
  data->set_live(0, 256);
  c.make_tracker(UncoreStructure::kCheckLog, 64, 160)->set_live(200, 32);
  c.finish(1000);
}

TEST(AvfCollector, PublishesIntegerCountersPerStructure) {
  AvfCollector c;
  drive_collector(c);
  obs::MetricsRegistry reg;
  c.publish(reg, 1000);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("fault.avf.cycles"), 1000u);
  // write_buffer: 4*(600-100) + 1*(1000-600) = 2400 entry-cycles.
  EXPECT_EQ(snap.counters.at("fault.avf.write_buffer.entry_cycles"), 2400u);
  EXPECT_EQ(snap.counters.at("fault.avf.write_buffer.bit_cycles"),
            2400u * 128u);
  EXPECT_EQ(snap.counters.at("fault.avf.write_buffer.capacity_bits"),
            64u * 128u);
  EXPECT_EQ(snap.counters.at("fault.avf.cache_tag.bit_cycles"),
            256u * 1000u * 21u);
  EXPECT_EQ(snap.counters.at("fault.avf.tlb.entry_cycles"), 48u * 950u);
  EXPECT_EQ(snap.counters.at("fault.avf.dram_queue.capacity_bit_cycles"),
            32u * 128u * 1000u);
}

TEST(AvfCollector, MultipleInstancesOfOneStructureSum) {
  AvfCollector c;
  c.make_tracker(UncoreStructure::kMshr, 8, 64)->add(100);
  c.make_tracker(UncoreStructure::kMshr, 4, 64)->add(50);
  obs::MetricsRegistry reg;
  c.publish(reg, 500);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("fault.avf.mshr.entry_cycles"), 150u);
  EXPECT_EQ(snap.counters.at("fault.avf.mshr.capacity_bits"), 12u * 64u);
}

TEST(AvfCollector, UninstrumentedStructuresPublishNothing) {
  AvfCollector c;
  c.make_tracker(UncoreStructure::kTlb, 64, 106)->add(10);
  obs::MetricsRegistry reg;
  c.publish(reg, 100);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.count("fault.avf.bus_queue.capacity_bits"), 0u);
  EXPECT_EQ(snap.counters.count("fault.avf.tlb.capacity_bits"), 1u);
}

TEST(AvfCollector, PublicationMergesAssociatively) {
  // Two "jobs" merged in either order produce the same snapshot — the
  // property that makes campaign AVF counters worker-count independent.
  const auto publish_one = [](std::uint64_t scale) {
    AvfCollector c;
    c.make_tracker(UncoreStructure::kBusQueue, 16, 72)->add(100 * scale);
    obs::MetricsRegistry reg;
    c.publish(reg, 1000 * scale);
    return reg.snapshot();
  };
  const auto a = publish_one(1);
  const auto b = publish_one(3);
  obs::MetricsSnapshot ab = a;
  ab.merge(b);
  obs::MetricsSnapshot ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.counters.at("fault.avf.bus_queue.entry_cycles"), 400u);
}

// ---------------------------------------------------------------------------
// AvfReport / build_avf_report
// ---------------------------------------------------------------------------

obs::MetricsSnapshot sample_snapshot() {
  AvfCollector c;
  drive_collector(c);
  obs::MetricsRegistry reg;
  c.publish(reg, 1000);
  return reg.snapshot();
}

TEST(AvfReport, RatiosFollowPublishedIntegers) {
  const auto report =
      build_avf_report(sample_snapshot(), uniform_uncore_plan(Mechanism::kNone));
  ASSERT_EQ(report.structures.size(), kUncoreStructureCount);
  for (const auto& s : report.structures) {
    EXPECT_DOUBLE_EQ(s.avf, static_cast<double>(s.bit_cycles) /
                                static_cast<double>(s.capacity_bit_cycles))
        << name_of(s.structure);
    // No coverage: the residual is the whole exposure.
    EXPECT_DOUBLE_EQ(s.residual_avf, s.avf) << name_of(s.structure);
  }
}

TEST(AvfReport, ParityZeroesTheSingleBitResidual) {
  const auto report = build_avf_report(sample_snapshot(),
                                       uniform_uncore_plan(Mechanism::kParity1));
  EXPECT_GT(report.total_avf(), 0.0);
  EXPECT_DOUBLE_EQ(report.total_residual_avf(), 0.0);
}

TEST(AvfReport, MissingStructuresAreOmitted) {
  obs::MetricsSnapshot snap;
  snap.counters["fault.avf.cycles"] = 100;
  snap.counters["fault.avf.tlb.entry_cycles"] = 50;
  snap.counters["fault.avf.tlb.bit_cycles"] = 50 * 106;
  snap.counters["fault.avf.tlb.events"] = 1;
  snap.counters["fault.avf.tlb.capacity_bits"] = 64 * 106;
  snap.counters["fault.avf.tlb.capacity_bit_cycles"] = 64 * 106 * 100;
  const auto report =
      build_avf_report(snap, uniform_uncore_plan(Mechanism::kNone));
  ASSERT_EQ(report.structures.size(), 1u);
  EXPECT_EQ(report.structures[0].structure, UncoreStructure::kTlb);
}

TEST(AvfReport, GoldenJson) {
  // Byte-pinned unsync.avf_report.v1 covering all eight uncore structures —
  // the contract consumed by `unsync_sim avf-report` users and the CI
  // frontier gate. Regenerate deliberately, never casually (docs/FAULTS.md).
  auto report = build_avf_report(sample_snapshot(),
                                 uniform_uncore_plan(Mechanism::kParity1));
  EXPECT_EQ(report.to_json(2) + "\n", read_golden("avf_report.json"));
}

TEST(AvfReport, JsonIsAPureFunctionOfTheCounters) {
  const auto plan = uniform_uncore_plan(Mechanism::kSecded);
  const auto a = build_avf_report(sample_snapshot(), plan).to_json();
  const auto b = build_avf_report(sample_snapshot(), plan).to_json();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// End-to-end: observation-only + worker-count identity
// ---------------------------------------------------------------------------

runtime::SimJob avf_job(const char* bench, bool avf) {
  runtime::SimJob j;
  j.label = bench;
  j.profile = bench;
  j.system = core::SystemKind::kUnSync;
  j.insts = 3000;
  j.ser_per_inst = 1e-4;  // exercise recovery alongside the hooks
  j.avf = avf;
  if (avf) j.protect = uniform_uncore_plan(Mechanism::kParity1);
  return j;
}

TEST(AvfEndToEnd, TrackingIsBitInvisible) {
  // avf=1 must not move a single architectural or timing bit: the full
  // result rows match the avf=0 run field by field.
  std::vector<runtime::SimJob> off = {avf_job("gzip", false),
                                      avf_job("susan", false)};
  std::vector<runtime::SimJob> on = {avf_job("gzip", true),
                                     avf_job("susan", true)};
  runtime::CampaignRunner::Options opts;
  opts.threads = 1;
  opts.collect_metrics = true;
  const auto a = runtime::CampaignRunner(opts).run(off);
  const auto b = runtime::CampaignRunner(opts).run(on);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles);
    EXPECT_EQ(a.results[i].instructions, b.results[i].instructions);
    EXPECT_EQ(a.results[i].errors_injected, b.results[i].errors_injected);
    EXPECT_EQ(a.results[i].recoveries, b.results[i].recoveries);
    EXPECT_EQ(a.results[i].rollbacks, b.results[i].rollbacks);
  }
  // ... while the avf=1 run carries the residency counters.
  EXPECT_EQ(a.metrics.counters.count("fault.avf.cycles"), 0u);
  EXPECT_GT(b.metrics.counters.at("fault.avf.cycles"), 0u);
}

TEST(AvfEndToEnd, MergedCountersAreWorkerCountIndependent) {
  std::vector<runtime::SimJob> jobs = {avf_job("gzip", true),
                                       avf_job("susan", true),
                                       avf_job("mcf", true)};
  // UnSync covers the write buffers (its CBs); the hetero checker is the
  // only system with a check log. Together the grid lights every structure.
  jobs.push_back(avf_job("mcf", true));
  jobs.back().system = core::SystemKind::kHetero;
  runtime::CampaignRunner::Options serial;
  serial.threads = 1;
  serial.collect_metrics = true;
  runtime::CampaignRunner::Options parallel = serial;
  parallel.threads = 4;
  const auto a = runtime::CampaignRunner(serial).run(jobs);
  const auto b = runtime::CampaignRunner(parallel).run(jobs);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  // Every structure is live somewhere in the merged grid.
  for (std::size_t i = 0; i < kUncoreStructureCount; ++i) {
    const std::string key = std::string("fault.avf.") +
                            name_of(static_cast<UncoreStructure>(i)) +
                            ".bit_cycles";
    EXPECT_EQ(a.metrics.counters.count(key), 1u) << key;
  }
}

}  // namespace
}  // namespace unsync::fault
