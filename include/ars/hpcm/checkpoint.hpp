#pragma once
// Checkpoint/restart support.
//
// The paper contrasts its live-migration approach with checkpointing-based
// systems (Condor, Zap): "the design of the system is general and can be
// extended for checkpointing-based ... systems".  This module provides that
// extension: applications may checkpoint their state registry to a stable
// store at poll-points; after a crash, the process is relaunched from its
// latest checkpoint — losing only the work since it.  Restarting from
// scratch (the "static allocation" strawman of §1: "a reassignment means
// the loss of all partial results") falls out as the no-checkpoint case.
//
// Writes are ATOMIC (DESIGN.md §17): an asynchronous write lands first in a
// shadow slot and replaces the previous checkpoint only at commit_shadow()
// — the classic write-to-temp-then-rename.  A crash racing an in-flight
// write aborts the shadow and latest() keeps returning the previous
// complete checkpoint; a torn (incomplete) checkpoint can only enter the
// store through the sabotage path chaos uses to validate its
// no-torn-checkpoint invariant.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ars/hpcm/stateregistry.hpp"
#include "ars/sim/phased_txn.hpp"

namespace ars::hpcm {

struct Checkpoint {
  std::string process;     // application name (stable across hosts)
  double taken_at = 0.0;   // when the snapshot was taken (consistency point)
  std::vector<std::byte> state;  // encoded registry
  std::uint64_t bytes = 0;       // stable-storage footprint (incl. opaque)
  /// False only for a torn write committed by the sabotage path; a clean
  /// store never exposes an incomplete checkpoint.
  bool complete = true;
  double committed_at = 0.0;  // when the write finished (0: direct put)
};

/// Stable checkpoint storage (an NFS server in the paper's world: writes
/// cost disk/network time, survive host crashes).
class CheckpointStore {
 public:
  /// Record a checkpoint, replacing any previous one for the process.
  /// (The synchronous path: tests and tools that do not model write time.)
  void put(Checkpoint checkpoint);

  // -- atomic shadow-commit (asynchronous writes) ---------------------------

  /// Stage an in-flight write.  Invisible to latest() until committed;
  /// replaces any previous shadow for the process.
  void begin_shadow(Checkpoint checkpoint);

  /// Atomically promote the shadow to the visible checkpoint (the rename).
  /// Returns false when no shadow is staged (stale completion).
  bool commit_shadow(const std::string& process, double committed_at);

  /// Drop an in-flight write (crash, preemption): the previous complete
  /// checkpoint stays the restorable one.  Under Sabotage::kTornCheckpoint
  /// the partial write replaces it anyway, marked incomplete — the
  /// storage-bug model the chaos no-torn-checkpoint invariant exists to
  /// catch.  Every other value is a clean abort.
  bool abort_shadow(const std::string& process,
                    sim::Sabotage sabotage = sim::Sabotage::kNone);

  [[nodiscard]] const Checkpoint* latest(const std::string& process) const;
  [[nodiscard]] bool shadow_pending(const std::string& process) const {
    return shadows_.contains(process);
  }

  void erase(const std::string& process) { checkpoints_.erase(process); }
  [[nodiscard]] std::size_t size() const noexcept {
    return checkpoints_.size();
  }

  /// Total checkpoints ever written (for overhead accounting).
  [[nodiscard]] int writes() const noexcept { return writes_; }
  /// Shadow writes dropped before their commit.
  [[nodiscard]] int aborted_shadows() const noexcept {
    return aborted_shadows_;
  }
  /// Torn checkpoints committed by the sabotage path (0 on clean stores).
  [[nodiscard]] int torn() const noexcept { return torn_; }
  /// Stable-storage footprint of all visible checkpoints.
  [[nodiscard]] std::uint64_t total_bytes() const;

 private:
  std::map<std::string, Checkpoint> checkpoints_;
  std::map<std::string, Checkpoint> shadows_;  // in-flight writes
  int writes_ = 0;
  int aborted_shadows_ = 0;
  int torn_ = 0;
};

}  // namespace ars::hpcm
