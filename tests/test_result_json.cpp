// Pins the machine-readable result schemas. The golden file
// (tests/golden/run_result_v2.json) is a contract with external consumers
// (plot scripts, CI dashboards): if this test fails, either fix the code
// or — for a deliberate schema change — bump the schema version, add a new
// golden, and document the change in docs/OBSERVABILITY.md. The retired
// run_result_v1.json golden stays checked in to prove v2 is a strict
// superset of v1 (v1 readers that ignore unknown keys keep working).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/system.hpp"
#include "runtime/campaign.hpp"

#ifndef UNSYNC_TEST_DATA_DIR
#error "UNSYNC_TEST_DATA_DIR must point at tests/ (set by tests/CMakeLists.txt)"
#endif

namespace unsync {
namespace {

std::string read_golden(const std::string& name) {
  const std::string path = std::string(UNSYNC_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A fully populated result with every field nonzero — hand-built, so the
/// golden pins serialisation only, not simulator behaviour.
engine::RunResult sample_result() {
  engine::RunResult r;
  r.system = "unsync";
  r.cycles = 4321;
  r.instructions = 3000;
  r.thread_instructions = {3000, 2500};
  r.errors_injected = 2;
  r.recoveries = 1;
  r.rollbacks = 1;
  r.recovery_cycles_total = 96;
  r.cb_full_stalls = 17;
  r.fingerprint_syncs = 5;

  cpu::CoreStats c;
  c.cycles = 4300;
  c.committed = 3000;
  c.loads = 700;
  c.stores = 300;
  c.branches = 450;
  c.mispredicts = 31;
  c.serializing = 12;
  c.commit_stall_store = 40;
  c.commit_stall_gate = 25;
  c.dispatch_stall_rob = 60;
  c.dispatch_stall_iq = 15;
  c.dispatch_stall_lsq = 8;
  c.fetch_blocked_branch = 90;
  c.fetch_blocked_serialize = 33;
  c.fetch_blocked_icache = 21;
  c.itlb_misses = 4;
  c.dtlb_misses = 19;
  c.recovery_stall_cycles = 64;
  c.rob_occupancy_accum = 86000;
  r.core_stats.push_back(c);
  c.committed = 2500;  // second core differs so ordering bugs show up
  c.cycles = 4100;
  r.core_stats.push_back(c);

  r.error_log.push_back({.cycle = 1200,
                         .position = 800,
                         .thread = 0,
                         .struck_core = 1,
                         .cost = 64,
                         .rollback = false});
  r.error_log.push_back({.cycle = 3100,
                         .position = 2200,
                         .thread = 1,
                         .struck_core = 0,
                         .cost = 32,
                         .rollback = true});
  return r;
}

TEST(RunResultJson, MatchesGoldenSchema) {
  EXPECT_EQ(sample_result().to_json(2) + "\n",
            read_golden("run_result_v2.json"));
}

TEST(RunResultJson, FastTierResultsAreTagged) {
  engine::RunResult r = sample_result();
  r.approximate = true;
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"tier\":\"fast\""), std::string::npos);
  EXPECT_NE(j.find("\"approximate\":true"), std::string::npos);
}

// v2 is v1 plus the "tier"/"approximate" pair inserted after "system": a
// v1 reader that ignores unknown keys parses a v2 document unchanged.
// Proven mechanically: deleting those two lines from the pretty v2 output
// (and reverting the schema tag) must reproduce the v1 golden byte for
// byte.
TEST(RunResultJson, V2IsAStrictSupersetOfV1) {
  std::istringstream v2(sample_result().to_json(2) + "\n");
  std::string line;
  std::string back_to_v1;
  while (std::getline(v2, line)) {
    if (line == "  \"tier\": \"detailed\"," ||
        line == "  \"approximate\": false,") {
      continue;
    }
    const std::string::size_type at = line.find("unsync.run_result.v2");
    if (at != std::string::npos) line.replace(at + 19, 1, "1");
    back_to_v1 += line;
    back_to_v1 += '\n';
  }
  EXPECT_EQ(back_to_v1, read_golden("run_result_v1.json"));
}

TEST(RunResultJson, CompactAndPrettyAgreeModuloWhitespace) {
  const auto r = sample_result();
  std::string compact = r.to_json();
  std::string pretty = r.to_json(2);
  // Stripping all whitespace outside strings (none of our keys/values
  // contain spaces) must make them equal.
  auto strip = [](std::string s) {
    std::string out;
    for (const char ch : s) {
      if (ch != ' ' && ch != '\n') out += ch;
    }
    return out;
  };
  EXPECT_EQ(strip(pretty), compact);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(RunResultJson, SerialisationIsAPureFunction) {
  EXPECT_EQ(sample_result().to_json(), sample_result().to_json());
}

TEST(RunResultJson, EmptyResultStillCarriesTheSchema) {
  const engine::RunResult r;
  const std::string j = r.to_json();
  EXPECT_NE(j.find("\"schema\":\"unsync.run_result.v2\""), std::string::npos);
  EXPECT_NE(j.find("\"cores\":[]"), std::string::npos);
  EXPECT_NE(j.find("\"error_log\":[]"), std::string::npos);
}

TEST(CampaignJson, CarriesTheCampaignSchemaAndEmbedsResults) {
  runtime::CampaignOutput out;
  out.campaign_seed = 99;
  out.results.push_back(sample_result());
  out.labels.push_back("susan");
  out.seeds.push_back(12345);
  out.job_wall_seconds.push_back(0.5);
  out.wall_seconds = 0.6;

  const std::string j = out.to_json();
  EXPECT_NE(j.find("\"schema\":\"unsync.campaign.v2\""), std::string::npos);
  EXPECT_NE(j.find("\"schema\":\"unsync.run_result.v2\""), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"susan\""), std::string::npos);
  EXPECT_NE(j.find("\"metrics\":null"), std::string::npos);
  // The default output is the deterministic surface: no wall-clock fields.
  EXPECT_EQ(j.find("wall_seconds"), std::string::npos);
  // include_timing opts them in (for humans, never for diffing).
  const std::string timed = out.to_json(0, true);
  EXPECT_NE(timed.find("\"wall_seconds\""), std::string::npos);
}

}  // namespace
}  // namespace unsync
