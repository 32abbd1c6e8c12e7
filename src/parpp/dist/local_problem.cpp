#include "parpp/dist/local_problem.hpp"

#include "parpp/core/pp_operators.hpp"
#include "parpp/core/sparse_engine.hpp"

namespace parpp::dist {

namespace {

index_t stored_nnz(const tensor::DenseTensor& /*t*/) { return -1; }
index_t stored_nnz(const tensor::CsfTensor& t) { return t.nnz(); }

/// A block of either storage class, viewed in place (`owned` null) or owned.
template <class Storage>
class BlockProblem final : public LocalProblem {
 public:
  BlockProblem(const Storage& t, std::unique_ptr<const Storage> owned)
      : owned_(std::move(owned)), t_(&t), sq_norm_(t.squared_norm()) {}

  [[nodiscard]] const std::vector<index_t>& shape() const override {
    return t_->shape();
  }
  [[nodiscard]] double squared_norm() const override { return sq_norm_; }
  [[nodiscard]] index_t nnz() const override { return stored_nnz(*t_); }

  [[nodiscard]] std::unique_ptr<core::MttkrpEngine> make_engine(
      core::EngineKind kind, const std::vector<la::Matrix>& slice_factors,
      Profile* profile, const core::EngineOptions& options) const override {
    // The CSF factory resolves every EngineKind to the sparse engine, so a
    // spec tuned for dense engines still runs on a sparse block.
    return core::make_engine(kind, *t_, slice_factors, profile, options);
  }

  [[nodiscard]] std::unique_ptr<core::PpOperators> make_pp_operators(
      const std::vector<la::Matrix>& slice_factors,
      Profile* profile) const override {
    return std::make_unique<core::PpOperators>(*t_, slice_factors, profile);
  }

 private:
  std::unique_ptr<const Storage> owned_;
  const Storage* t_;
  double sq_norm_;
};

template <class Storage>
std::unique_ptr<LocalProblem> owning(Storage block) {
  auto owned = std::make_unique<const Storage>(std::move(block));
  const Storage& t = *owned;
  return std::make_unique<BlockProblem<Storage>>(t, std::move(owned));
}

}  // namespace

std::unique_ptr<LocalProblem> view_block(const tensor::DenseTensor& t) {
  return std::make_unique<BlockProblem<tensor::DenseTensor>>(t, nullptr);
}

std::unique_ptr<LocalProblem> view_block(const tensor::CsfTensor& t) {
  return std::make_unique<BlockProblem<tensor::CsfTensor>>(t, nullptr);
}

std::unique_ptr<LocalProblem> own_block(tensor::DenseTensor block) {
  return owning(std::move(block));
}

std::unique_ptr<LocalProblem> own_block(tensor::CsfTensor block) {
  return owning(std::move(block));
}

std::unique_ptr<LocalProblem> DenseBlockProblem::make_local(
    const BlockDist& dist, const std::vector<int>& coords) const {
  return own_block(extract_local_block(*t_, dist, coords));
}

}  // namespace parpp::dist
