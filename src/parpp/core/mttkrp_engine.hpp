// MTTKRP engine interface and factory.
//
// Engines compute M(n) = T_(n) P(n) for the ALS driver, each with its own
// amortization strategy. Drivers call `mttkrp(mode)` in ALS order and
// `notify_update(mode)` immediately after overwriting A(mode); engines use
// version stamps to decide which cached intermediates are still valid, so
// they remain *semantically exact* even if called out of order — the
// claimed flop savings simply rely on the standard sweep order.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

class MttkrpEngine {
 public:
  virtual ~MttkrpEngine() = default;

  /// MTTKRP of `mode` at the current factor values.
  [[nodiscard]] virtual la::Matrix mttkrp(int mode) = 0;

  /// Must be called after factors[mode] changes.
  virtual void notify_update(int mode) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Diagnostic counters: first-level TTM and mTTV kernel invocations since
  /// construction — tests assert the paper's per-sweep contraction counts.
  [[nodiscard]] virtual long ttm_count() const { return 0; }
  [[nodiscard]] virtual long mttv_count() const { return 0; }
};

enum class EngineKind {
  kNaive,   ///< fused MTTKRP per mode; no amortization (reference)
  kDt,      ///< standard binary dimension tree (Sec. II-C)
  kMsdt,    ///< multi-sweep dimension tree (Sec. III)
  kSparse,  ///< CSF fiber-tree walk; requires sparse (CsfTensor) storage
};

/// Human-facing display name ("naive"/"DT"/"MSDT") for logs and reports.
/// The machine-readable round-trip tokens live in parpp/solver/strings.hpp
/// (solver::to_string / solver::engine_from_string) — a new EngineKind must
/// be added to both switches (-Wswitch flags the omission).
[[nodiscard]] const char* engine_kind_name(EngineKind kind);

struct EngineOptions {
  /// Level-combining ablation: intermediates covering more than this many
  /// tensor modes are recomputed instead of cached (<=0 means cache all).
  /// Trades flops for auxiliary memory as analyzed in Sec. IV.
  int max_cached_modes = 0;
  /// Parallel schedule of the sparse engine's CSF walk (ignored by the
  /// dense engines). kAuto tiles only when the root mode is too short to
  /// feed the OpenMP team.
  tensor::CsfWalk csf_walk = tensor::CsfWalk::kAuto;
};

/// Creates an engine bound to `t` and `factors`; both must outlive the
/// engine. `profile` may be null (thread-default profile is charged).
/// kSparse is rejected here — it needs CSF storage (see sparse_engine.hpp
/// for the CsfTensor overload).
[[nodiscard]] std::unique_ptr<MttkrpEngine> make_engine(
    EngineKind kind, const tensor::DenseTensor& t,
    const std::vector<la::Matrix>& factors, Profile* profile = nullptr,
    const EngineOptions& options = {});

}  // namespace parpp::core
