// The System-level checkpoint envelope: name validation, the system chunk
// (cycle cursor, accumulated result, policy payload) and container file
// I/O around it, the two derived walks — the fault channel and the state
// fingerprint — and every system's policy payload (visit_policy_state), so
// the six wire layouts are reviewable side by side. The RunResult /
// ErrorEvent layout lives in engine/result_ckpt.cpp.
//
// Every entry point runs one walk through a ckpt::Archive. The const save
// entry points cast constness away once: Save and Fingerprint walks only
// read the state they visit.
#include "ckpt/archive.hpp"
#include "core/baseline.hpp"
#include "core/dmr_checkpoint_system.hpp"
#include "core/hetero_checker_system.hpp"
#include "core/lockstep_system.hpp"
#include "core/reunion_system.hpp"
#include "core/system.hpp"
#include "core/unsync_system.hpp"

namespace unsync::core {

void System::visit_checkpoint(ckpt::Archive& ar) {
  ar.chunk("SYS0", [&] {
    const std::string saved = ar.pinned(name());
    if (saved != name()) {
      throw ckpt::CkptError("checkpoint is for system '" + saved +
                            "', cannot restore into '" + name() + "'");
    }
    ar.chunk(ckpt_tag(), [&] {
      ar.u64(now_);
      acc_.visit(ar);
      visit_policy_state(ar);
    });
  });
}

void System::save_checkpoint(ckpt::Serializer& s) const {
  ckpt::Archive ar(s);
  const_cast<System*>(this)->visit_checkpoint(ar);
}

void System::load_checkpoint(ckpt::Deserializer& d) {
  ckpt::Archive ar(d);
  visit_checkpoint(ar);
}

namespace {

/// load_checkpoint over everything `d` holds.
void load_whole(System& sys, ckpt::Deserializer& d) {
  sys.load_checkpoint(d);
  if (!d.at_end()) {
    throw ckpt::CkptError("trailing bytes after system checkpoint");
  }
}

}  // namespace

void System::load_checkpoint_payload(std::string_view payload) {
  ckpt::Deserializer d{payload};
  load_whole(*this, d);
}

void System::load_checkpoint_packed(const ckpt::PackedPayload& payload) {
  ckpt::Deserializer d{payload};
  load_whole(*this, d);
}

void System::save_checkpoint_file(const std::string& path) const {
  ckpt::Serializer s;
  save_checkpoint(s);
  ckpt::write_file(path, s.data());
}

void System::load_checkpoint_file(const std::string& path) {
  load_checkpoint_payload(ckpt::read_file(path));
}

std::string System::save_checkpoint_bytes() const {
  ckpt::Serializer s;
  ckpt::begin_container(s);
  save_checkpoint(s);
  return ckpt::seal_container(s);
}

void System::load_checkpoint_bytes(std::string_view blob) {
  load_checkpoint_payload(ckpt::container_payload(blob));
}

engine::FaultSources System::fault_sources() {
  if (!error_process_) return {};
  engine::FaultSources f{&rng_, {}, "fault-channel group-count mismatch"};
  for (auto& cursor : arrivals_) f.arrivals.push_back(&cursor);
  return f;
}

std::string System::fault_channel_bytes() const {
  ckpt::Serializer s;
  ckpt::Archive ar(s);
  const_cast<System*>(this)->fault_sources().visit(ar);
  return s.take();
}

void System::install_fault_channel(std::string_view bytes) {
  ckpt::Deserializer d{bytes};
  ckpt::Archive ar(d);
  fault_sources().visit(ar);
  if (!d.at_end()) {
    throw ckpt::CkptError("trailing bytes after fault channel");
  }
}

std::uint64_t System::state_fingerprint() const {
  ckpt::Serializer s;
  ckpt::Archive ar(s, ckpt::Archive::Mode::kFingerprint);
  const_cast<System*>(this)->visit_policy_state(ar);
  return ckpt::hash64(s.data());
}

// ---- Per-system policy payloads ----------------------------------------

void BaselineSystem::StoreBufferEnv::visit(ckpt::Archive& ar) {
  ar.chunk("SBUF", [&] {
    ar.count(in_flight_);
    for (auto& buf : in_flight_) ar.u64s(buf);
  });
}

void BaselineSystem::visit_policy_state(ckpt::Archive& ar) {
  memory_.visit(ar);
  env_.visit(ar);
  ar.expect(cores_.size(), "baseline core-count mismatch");
  for (const auto& core : cores_) core->visit(ar);
}

void UnSyncSystem::visit_policy_state(ckpt::Archive& ar) {
  ar.fault_channel([&] { ar.rng(rng_); });
  memory_.visit(ar);
  ar.expect(groups_.size(), "unsync group-count mismatch");
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& group = groups_[g];
    ar.expect(group->cores.size(), "unsync group-size mismatch");
    for (const auto& core : group->cores) core->visit(ar);
    for (const auto& cb : group->cbs) cb->visit(ar);
    // Arrivals are re-derived deterministically at construction from
    // (seed, ser_per_inst, lengths); only the consumption cursor is state.
    ar.fault_channel([&] {
      arrivals_[g].visit(ar, "unsync error-arrival schedule mismatch");
    });
    ar.u64(group->cb_full_stalls);
  }
}

void ReunionSystem::visit_policy_state(ckpt::Archive& ar) {
  ar.fault_channel([&] { ar.rng(rng_); });
  memory_.visit(ar);
  ar.expect(pairs_.size(), "reunion pair-count mismatch");
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    const auto& pair = pairs_[g];
    for (unsigned side = 0; side < 2; ++side) pair->core[side]->visit(ar);
    ar.count(pair->fingerprints);
    for (Fingerprint& fp : pair->fingerprints) {
      for (unsigned side = 0; side < 2; ++side) {
        ar.u64(fp.count[side]);
        ar.b(fp.closed[side]);
        ar.u64(fp.closed_at[side]);
      }
      ar.u64(fp.verify_done);
    }
    ar.count(pair->serialize_queue);
    for (SerializeSync& sync : pair->serialize_queue) {
      ar.u64(sync.seq);
      for (unsigned side = 0; side < 2; ++side) {
        ar.b(sync.requested[side]);
        ar.b(sync.committed[side]);
        ar.u64(sync.request_at[side]);
      }
      ar.u64(sync.ready_at);
    }
    for (auto& buf : pair->store_buffer) ar.u64s(buf);
    ar.fault_channel([&] {
      arrivals_[g].visit(ar, "reunion error-arrival schedule mismatch");
    });
    ar.u64(pair->serializing_syncs);
    ar.u64(pair->verified_watermark[0]);
    ar.u64(pair->verified_watermark[1]);
  }
}

void LockstepSystem::visit_policy_state(ckpt::Archive& ar) {
  ar.fault_channel([&] { ar.rng(rng_); });
  memory_.visit(ar);
  ar.expect(pairs_.size(), "lockstep pair-count mismatch");
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    const auto& pair = pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair->core[side]->visit(ar);
      ar.u64s(pair->store_buffer[side]);
    }
    ar.fault_channel([&] {
      arrivals_[g].visit(ar, "lockstep error-arrival schedule mismatch");
    });
    ar.u64(pair->lockstep_stalls);
  }
}

void DmrCheckpointSystem::visit_policy_state(ckpt::Archive& ar) {
  ar.fault_channel([&] { ar.rng(rng_); });
  memory_.visit(ar);
  ar.u64(checkpoints_taken_);
  ar.expect(pairs_.size(), "dmr-checkpoint pair-count mismatch");
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    const auto& pair = pairs_[g];
    for (unsigned side = 0; side < 2; ++side) {
      pair->core[side]->visit(ar);
      ar.u64s(pair->store_buffer[side]);
    }
    ar.u64(pair->next_boundary);
    ar.b(pair->reached[0]);
    ar.b(pair->reached[1]);
    ar.u64(pair->reached_at[0]);
    ar.u64(pair->reached_at[1]);
    ar.u64(pair->checkpoint_done);
    ar.u64(pair->last_committed_boundary);
    ar.fault_channel([&] {
      arrivals_[g].visit(ar,
                         "dmr-checkpoint error-arrival schedule mismatch");
    });
  }
}

void HeteroCheckerSystem::visit_policy_state(ckpt::Archive& ar) {
  ar.fault_channel([&] { ar.rng(rng_); });
  memory_.visit(ar);
  ar.expect(groups_.size(), "hetero group-count mismatch");
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& group = groups_[g];
    group->leader->visit(ar);
    group->checker->visit(ar);
    group->log->visit(ar);
    ar.b(group->fault_pending);
    ar.u64(group->fault_position);
    ar.u64(group->fault_cycle);
    ar.fault_channel([&] {
      arrivals_[g].visit(ar, "hetero error-arrival schedule mismatch");
    });
    ar.u64(group->log_full_stalls);
    ar.u64(group->detections);
    ar.u64(group->detection_latency_total);
  }
}

}  // namespace unsync::core
