#include "ars/hpcm/checkpoint.hpp"

namespace ars::hpcm {

void CheckpointStore::put(Checkpoint checkpoint) {
  ++writes_;
  checkpoints_.insert_or_assign(checkpoint.process, std::move(checkpoint));
}

void CheckpointStore::begin_shadow(Checkpoint checkpoint) {
  shadows_.insert_or_assign(checkpoint.process, std::move(checkpoint));
}

bool CheckpointStore::commit_shadow(const std::string& process,
                                    double committed_at) {
  const auto it = shadows_.find(process);
  if (it == shadows_.end()) {
    return false;
  }
  Checkpoint checkpoint = std::move(it->second);
  shadows_.erase(it);
  checkpoint.complete = true;
  checkpoint.committed_at = committed_at;
  put(std::move(checkpoint));
  return true;
}

bool CheckpointStore::abort_shadow(const std::string& process,
                                   sim::Sabotage sabotage) {
  const auto it = shadows_.find(process);
  if (it == shadows_.end()) {
    return false;
  }
  Checkpoint checkpoint = std::move(it->second);
  shadows_.erase(it);
  ++aborted_shadows_;
  if (sabotage == sim::Sabotage::kTornCheckpoint) {
    // The broken-store model: the partial write replaced the previous
    // checkpoint in place (no shadow/rename).  Restoring it is the bug.
    checkpoint.complete = false;
    ++torn_;
    checkpoints_.insert_or_assign(checkpoint.process, std::move(checkpoint));
  }
  return true;
}

const Checkpoint* CheckpointStore::latest(const std::string& process) const {
  const auto it = checkpoints_.find(process);
  return it == checkpoints_.end() ? nullptr : &it->second;
}

std::uint64_t CheckpointStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [process, checkpoint] : checkpoints_) {
    total += checkpoint.bytes;
  }
  return total;
}

}  // namespace ars::hpcm
