// Human-readable and CSV reporting for simulation runs: per-core pipeline
// stall breakdowns, memory-system behaviour, and redundancy events — the
// "stats dump" a simulator user reads after every run.
#pragma once

#include <iosfwd>
#include <string>

#include "core/system.hpp"
#include "mem/hierarchy.hpp"

namespace unsync::core {

/// Formats the result of a run as aligned tables:
///   - headline (cycles, per-thread IPC, redundancy events),
///   - per-core commit/stall breakdown,
///   - memory-system summary when a hierarchy is supplied.
class RunReport {
 public:
  explicit RunReport(const engine::RunResult& result,
                     const mem::MemoryHierarchy* memory = nullptr)
      : result_(result), memory_(memory) {}

  void print(std::ostream& os) const;
  std::string str() const;

  /// One CSV row per core with a fixed header — machine-readable logs for
  /// sweep scripts.
  static std::string csv_header();
  std::string csv_rows() const;

 private:
  const engine::RunResult& result_;
  const mem::MemoryHierarchy* memory_;
};

}  // namespace unsync::core
