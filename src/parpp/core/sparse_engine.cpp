#include "parpp/core/sparse_engine.hpp"

#include "parpp/tensor/mttkrp_sparse.hpp"

namespace parpp::core {

SparseEngine::SparseEngine(const tensor::CsfTensor& t,
                           const std::vector<la::Matrix>& factors,
                           Profile* profile, const EngineOptions& options)
    : t_(&t),
      factors_(&factors),
      profile_(profile),
      walk_(options.csf_walk),
      scalar_(options.scalar) {
  PARPP_CHECK(static_cast<int>(factors.size()) == t.order(),
              "engine: factor count mismatch");
  for (int m = 0; m < t.order(); ++m) {
    PARPP_CHECK(factors[static_cast<std::size_t>(m)].rows() == t.extent(m),
                "engine: factor ", m, " rows mismatch");
  }
  if (scalar_ == la::Scalar::kF32) {
    mirrors_.resize(factors.size());
    dirty_.assign(factors.size(), 1);
    vals32_.sync(t);  // tensor values are immutable: one-time mirror
  }
}

la::Matrix SparseEngine::mttkrp(int mode) {
  if (scalar_ == la::Scalar::kF32) {
    for (std::size_t m = 0; m < mirrors_.size(); ++m) {
      if (dirty_[m] != 0) mirrors_[m].sync((*factors_)[m]);
      dirty_[m] = 0;
    }
    la::Matrix out;
    tensor::mttkrp_csf_into_f32(*t_, mirrors_, mode, vals32_, out, profile_,
                                &ws_, walk_);
    return out;
  }
  return tensor::mttkrp_csf(*t_, *factors_, mode, profile_, &ws_, walk_);
}

std::unique_ptr<MttkrpEngine> make_engine(EngineKind /*kind*/,
                                          const tensor::CsfTensor& t,
                                          const std::vector<la::Matrix>& factors,
                                          Profile* profile,
                                          const EngineOptions& options) {
  return std::make_unique<SparseEngine>(t, factors, profile, options);
}

}  // namespace parpp::core
