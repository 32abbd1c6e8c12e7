#include "parpp/core/sparse_engine.hpp"

#include "parpp/tensor/mttkrp_sparse.hpp"

namespace parpp::core {

SparseEngine::SparseEngine(const tensor::CsfTensor& t,
                           const std::vector<la::Matrix>& factors,
                           Profile* profile, const EngineOptions& options)
    : t_(&t),
      factors_(&factors),
      profile_(profile),
      walk_(options.csf_walk) {
  PARPP_CHECK(static_cast<int>(factors.size()) == t.order(),
              "engine: factor count mismatch");
  for (int m = 0; m < t.order(); ++m) {
    PARPP_CHECK(factors[static_cast<std::size_t>(m)].rows() == t.extent(m),
                "engine: factor ", m, " rows mismatch");
  }
}

la::Matrix SparseEngine::mttkrp(int mode) {
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
