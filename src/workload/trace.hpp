// Trace recording from the functional simulator, and trace replay streams.
//
// This is the execution-driven path: assemble a real URISC program, run it
// on the golden-model FunctionalSim, and record each retired instruction as
// a DynOp (with producer sequence numbers computed from actual register
// dataflow). The recorded trace replays through the same timing model that
// consumes statistical streams.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "isa/functional_sim.hpp"
#include "workload/dyn_op.hpp"

namespace unsync::workload {

/// Records up to `max_insts` retired instructions of `program` as DynOps.
std::vector<DynOp> record_trace(const isa::Program& program,
                                std::uint64_t max_insts);

/// Binary trace files ("UTRC" format, versioned, little-endian): lets long
/// recordings be captured once and replayed across many sweeps — the
/// trace-driven methodology of simulators like M5.
void save_trace(const std::string& path, const std::vector<DynOp>& ops);

/// Loads a trace written by save_trace. Throws std::runtime_error on I/O
/// failure, bad magic, version mismatch, truncation, a record whose seq is
/// not its index, or a source that is not older than its record.
std::vector<DynOp> load_trace(const std::string& path);

/// Replays a recorded trace. Clones share the immutable trace storage and
/// carry independent cursors.
class TraceStream final : public InstStream {
 public:
  explicit TraceStream(std::vector<DynOp> ops);

  /// Shares already-recorded immutable storage — the campaign path: one
  /// recorded kernel trace feeds many concurrent jobs without a copy.
  explicit TraceStream(std::shared_ptr<const std::vector<DynOp>> shared);

  bool next(DynOp* out) override;
  std::unique_ptr<InstStream> clone() const override;
  void reset() override { cursor_ = 0; }
  bool seek(SeqNum seq) override {
    cursor_ = static_cast<std::size_t>(std::min<SeqNum>(seq, ops_->size()));
    return seq <= ops_->size();
  }
  std::uint64_t length() const override { return ops_->size(); }
  std::optional<WarmRegion> code_region() const override;

  /// Checkpoint walk: replay cursor only (the trace itself is immutable
  /// and must be supplied identically at restore).
  void visit(ckpt::Archive& ar) override;

 private:
  std::shared_ptr<const std::vector<DynOp>> ops_;
  std::size_t cursor_ = 0;
};

}  // namespace unsync::workload
