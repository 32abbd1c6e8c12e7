// MTTKRP engine over compressed sparse fiber (CSF) storage.
#pragma once

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::core {

/// Sparse engine: each mttkrp(mode) walks the CSF tree rooted at that mode
/// (OpenMP-parallel over root fibers, tensor::mttkrp_csf). No cross-mode
/// amortization — and, by construction, no densification: auxiliary memory
/// is O(threads * order * R) scratch leased from the engine-owned
/// workspace, whose counters tests assert stay flat (and far below the
/// dense footprint) across steady-state sweeps.
///
/// The class is exposed (unlike the dense tree engines) so tests and
/// benches can reach workspace() for those assertions.
class SparseEngine final : public MttkrpEngine {
 public:
  /// `options.csf_walk` picks the parallel schedule.
  SparseEngine(const tensor::CsfTensor& t,
               const std::vector<la::Matrix>& factors, Profile* profile,
               const EngineOptions& options = {});

  [[nodiscard]] la::Matrix mttkrp(int mode) override;
  void notify_update(int /*mode*/) override {}
  [[nodiscard]] std::string_view name() const override { return "sparse"; }

  /// Engine-owned scratch arena (per-thread interior-level accumulators).
  [[nodiscard]] const util::KernelWorkspace& workspace() const { return ws_; }

 private:
  const tensor::CsfTensor* t_;
  const std::vector<la::Matrix>* factors_;
  Profile* profile_;
  tensor::CsfWalk walk_;
  util::KernelWorkspace ws_;
};

/// Engine factory for CSF storage. Sparse storage has exactly one engine,
/// so every EngineKind resolves to SparseEngine (mirroring the kNaive →
/// kMsdt promotion the PP methods apply): a spec tuned for dense engines
/// still runs when pointed at a sparse tensor.
[[nodiscard]] std::unique_ptr<MttkrpEngine> make_engine(
    EngineKind kind, const tensor::CsfTensor& t,
    const std::vector<la::Matrix>& factors, Profile* profile = nullptr,
    const EngineOptions& options = {});

}  // namespace parpp::core
