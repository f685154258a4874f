// Self-test of the perfbench driver's own logic: the percentile rule, span
// self-time arithmetic and the digest check. Exits non-zero on the first
// failed expectation. Run with `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_logic.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(n - i));
  return xs;
}

void percentile_rule() {
  using perfbench::percentile;
  // p90 needs n >= 100 (ten samples beyond it); p50 needs n >= 20.
  expect(!percentile(ramp(99), 90).has_value(), "p90 of 99 samples refused");
  expect(percentile(ramp(100), 90).has_value(), "p90 of 100 samples reported");
  expect(!percentile(ramp(19), 50).has_value(), "p50 of 19 samples refused");
  expect(percentile(ramp(20), 50).has_value(), "p50 of 20 samples reported");
  expect(!percentile(ramp(999), 99).has_value(), "p99 of 999 samples refused");
  expect(percentile(ramp(1000), 99).has_value(), "p99 of 1000 samples reported");
  expect(!percentile({}, 50).has_value(), "no samples, no percentile");
  // Linear interpolation between closest ranks over 1..101 (unsorted in).
  const auto p90 = percentile(ramp(101), 90);
  expect(p90 && std::abs(*p90 - 91.0) < 1e-12, "p90 of 1..101 is 91");
  const auto p50 = percentile(ramp(100), 50);
  expect(p50 && std::abs(*p50 - 50.5) < 1e-12, "p50 of 1..100 is 50.5");
  expect(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "even median");
}

perfbench::Span span(int parent, std::int64_t a, std::int64_t b) {
  perfbench::Span s;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

void self_time() {
  // root [0,100): children [10,30) and [50,60) -> self 70.
  // child [10,30) has a grandchild [15,25) -> self 10.
  std::vector<perfbench::Span> s = {span(-1, 0, 100), span(0, 10, 30),
                                    span(0, 50, 60), span(1, 15, 25)};
  auto self = perfbench::self_times(s);
  expect(self[0] == 70, "root self time excludes direct children");
  expect(self[1] == 10, "child self time excludes grandchild");
  expect(self[2] == 10 && self[3] == 10, "leaf self time is its duration");

  // Overlapping children (two threads under one parent) count once, and a
  // child running past its parent is clipped to the parent's interval.
  s = {span(-1, 0, 100), span(0, 10, 40), span(0, 30, 50), span(0, 90, 120)};
  self = perfbench::self_times(s);
  expect(self[0] == 100 - 40 - 10, "union of overlapping, clipped children");

  // SpanLog nests by stack and rejects out-of-order closes.
  perfbench::SpanLog log(1000, 0);
  const int a = log.open("runtime.job", 1000, 7);
  const int b = log.open("engine.run", 1010, 7, "unsync");
  log.close(b, 1090, 500);
  log.close(a, 1100);
  expect(log.spans()[1].parent == a && log.spans()[1].count == 500,
         "child span records parent and count");
  self = perfbench::self_times(log.spans());
  expect(self[0] == 20 && self[1] == 80, "SpanLog self times");
  const int c = log.open("x", 1200, 8);
  log.open("y", 1210, 8);
  bool threw = false;
  try {
    log.close(c, 1300);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span with an open child throws");
  expect(perfbench::layer_of("ckpt.save_checkpoint_bytes") == "ckpt",
         "layer is the name's module prefix");
}

void digest_check() {
  std::istringstream file(
      "# long_run inputs=gzip insts=10\n"
      "gzip/baseline/t0 00000000000000ff\n"
      "gzip/unsync/t0 0123456789abcdef\n");
  const auto table = perfbench::DigestTable::parse(file);
  expect(table.header() == "long_run inputs=gzip insts=10", "header parsed");
  expect(table.size() == 2, "two digests parsed");

  perfbench::JobTally tally;
  tally.check(table, "gzip/baseline/t0", 0xff);
  tally.check(table, "gzip/unsync/t0", 0x0123456789abcdefULL);
  expect(tally.attempted == 2 && tally.failed == 0, "matching digests pass");
  tally.check(table, "gzip/unsync/t0", 0x0123456789abcdefULL ^ 1);
  expect(tally.attempted == 3 && tally.failed == 1,
         "a perturbed digest counts as a failed job");
  tally.check(table, "gzip/reunion/t0", 0xff);
  expect(tally.failed == 2, "a job without a reference fails");
  tally.threw(4);
  expect(tally.attempted == 8 && tally.failed == 6, "thrown jobs fail");

  std::ostringstream out;
  table.write(out);
  std::istringstream back(out.str());
  const auto again = perfbench::DigestTable::parse(back);
  expect(again.matches("gzip/unsync/t0", 0x0123456789abcdefULL) &&
             again.header() == table.header(),
         "write/parse round trip");

  std::istringstream bad("gzip/baseline/t0 00ff\n");
  bool threw = false;
  try {
    perfbench::DigestTable::parse(bad);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "a file without a header is rejected");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  digest_check();
  if (failures) {
    std::cerr << failures << " perfbench self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
