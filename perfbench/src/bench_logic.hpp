// Pure helpers of the perfbench driver: the percentile rule, span
// self-time arithmetic and the reference-digest check. Kept free of the
// simulator so tests/test_logic.cpp can pin them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Statistics -------------------------------------------------------------

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the tail value is one or two outliers.
inline constexpr std::size_t kTailSamples = 10;

/// Samples strictly above the p-th percentile of n samples (p in percent).
inline std::size_t samples_beyond(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

/// The p-th percentile (linear interpolation between closest ranks, as
/// Python's statistics.quantiles(method="inclusive") and numpy's default),
/// or nullopt when fewer than kTailSamples samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> xs, double p) {
  if (xs.empty() || samples_beyond(xs.size(), p) < kTailSamples) {
    return std::nullopt;
  }
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

/// Median of any non-empty sample set (the 50th percentile without the
/// tail rule: medians of a handful of rounds are what make runs steady).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// ---- Spans ------------------------------------------------------------------

/// One timed call at a layer boundary. Times are nanoseconds since the
/// run's epoch; parent is an index into the same span list (-1 = root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t job = 0;     ///< job id shared by all spans of one job
  unsigned thread = 0;
  std::string system;        ///< simulated system, when the call has one
  std::uint64_t count = 0;   ///< work done: simulated cycles or ops
  std::int64_t duration() const { return end_ns - start_ns; }
};

/// Records spans of one thread in memory; open/close nest like a stack.
class SpanLog {
 public:
  SpanLog(std::int64_t epoch_ns, unsigned thread)
      : epoch_ns_(epoch_ns), thread_(thread) {}

  int open(std::string name, std::int64_t now_ns, std::uint64_t job,
           std::string system = {}) {
    Span s;
    s.name = std::move(name);
    s.start_ns = now_ns - epoch_ns_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.thread = thread_;
    s.system = std::move(system);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id, std::int64_t now_ns, std::uint64_t count = 0) {
    if (stack_.empty() || stack_.back() != id) {
      throw std::logic_error("span closed out of order");
    }
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns - epoch_ns_;
    spans_[static_cast<std::size_t>(id)].count = count;
    stack_.pop_back();
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::int64_t epoch_ns_;
  unsigned thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children clipped to the parent,
/// overlapping children counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

/// Layer of a span: the module prefix of its name ("engine.run" -> "engine").
inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// ---- Reference digests ------------------------------------------------------

/// Per-job reference digests: job key -> ckpt::hash64(RunResult::to_json()).
/// The file's first line pins the workload shape it was generated for.
class DigestTable {
 public:
  DigestTable() = default;
  DigestTable(std::string header, std::map<std::string, std::uint64_t> d)
      : header_(std::move(header)), digests_(std::move(d)) {}

  /// Parses "<key> <16 hex digits>" lines after a "# <header>" line.
  static DigestTable parse(std::istream& in) {
    DigestTable t;
    std::string line;
    if (!std::getline(in, line) || line.rfind("# ", 0) != 0) {
      throw std::runtime_error("digest file has no header line");
    }
    t.header_ = line.substr(2);
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string key, hex;
      if (!(ls >> key >> hex) || hex.size() != 16) {
        throw std::runtime_error("malformed digest line: " + line);
      }
      t.digests_[key] = std::stoull(hex, nullptr, 16);
    }
    return t;
  }

  static DigestTable load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open digest file " + path);
    return parse(in);
  }

  void write(std::ostream& out) const {
    out << "# " << header_ << "\n";
    char hex[17];
    for (const auto& [key, d] : digests_) {
      std::snprintf(hex, sizeof hex, "%016llx",
                    static_cast<unsigned long long>(d));
      out << key << " " << hex << "\n";
    }
  }

  const std::string& header() const { return header_; }
  std::size_t size() const { return digests_.size(); }

  /// True only when `key` has a reference and it equals `digest`; a job
  /// missing from the table fails too.
  bool matches(const std::string& key, std::uint64_t digest) const {
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
  }

 private:
  std::string header_;
  std::map<std::string, std::uint64_t> digests_;
};

/// Jobs attempted and failed, in the form the result line reports them.
/// A job fails when it throws or when its digest differs from the reference.
struct JobTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(const DigestTable& table, const std::string& key,
             std::uint64_t digest) {
    ++attempted;
    if (!table.matches(key, digest)) ++failed;
  }
  void threw(std::uint64_t jobs) {
    attempted += jobs;
    failed += jobs;
  }
};

}  // namespace perfbench
