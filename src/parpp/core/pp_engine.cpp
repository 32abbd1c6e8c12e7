#include "parpp/core/pp_engine.hpp"

#include <algorithm>

#include "parpp/la/gemm.hpp"
#include "parpp/tensor/mttv.hpp"

namespace parpp::core {

PpApprox::PpApprox(const PpOperators& ops,
                   const std::vector<la::Matrix>& factors,
                   const std::vector<la::Matrix>& a_p,
                   const std::vector<la::Matrix>& grams, Profile* profile)
    : ops_(&ops),
      factors_(&factors),
      a_p_(&a_p),
      grams_(&grams),
      profile_(profile),
      n_(ops.order()) {
  PARPP_CHECK(ops.built(), "PpApprox: operators not built");
  d_factors_.resize(static_cast<std::size_t>(n_));
  d_grams_.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) refresh_mode(i);
}

void PpApprox::refresh_mode(int i) {
  const auto ui = static_cast<std::size_t>(i);
  la::Matrix d = (*factors_)[ui];
  d.axpy(-1.0, (*a_p_)[ui]);
  d_factors_[ui] = std::move(d);
  // dS(i) = A(i)^T dA(i) (Eq. (8)).
  Profile& prof = profile_ ? *profile_ : Profile::thread_default();
  ScopedProfile sp(prof, Kernel::kOther,
                   2.0 * static_cast<double>((*factors_)[ui].rows()) *
                       (*factors_)[ui].cols() * (*factors_)[ui].cols());
  d_grams_[ui] =
      la::matmul((*factors_)[ui], d_factors_[ui], la::Trans::kYes);
}

la::Matrix PpApprox::mttkrp_approx(int n) const {
  Profile& prof = profile_ ? *profile_ : Profile::thread_default();
  la::Matrix m = ops_->mttkrp_p(n);

  // First-order corrections U(n,i) via the pair operators.
  for (int i = 0; i < n_; ++i) {
    if (i == n) continue;
    const auto& op = ops_->pair_op(std::min(n, i), std::max(n, i));
    const auto it = std::find(op.modes.begin(), op.modes.end(), i);
    PARPP_ASSERT(it != op.modes.end(), "pair op missing mode");
    const int pos = static_cast<int>(it - op.modes.begin());
    tensor::DenseTensor& u = u_scratch_;
    tensor::mttv_into(op.data, pos, d_factors_[static_cast<std::size_t>(i)],
                      u, &prof);
    PARPP_ASSERT(u.order() == 2 && u.extent(0) == m.rows(),
                 "U correction shape mismatch");
    const double* ud = u.data();
    double* md = m.data();
    for (index_t x = 0; x < m.size(); ++x) md[x] += ud[x];
  }

  if (!second_order_) return m;

  // Second-order correction V(n) (Eq. (7)).
  const index_t r = m.cols();
  la::Matrix w(r, r);
  {
    ScopedProfile sp(prof, Kernel::kHadamard,
                     static_cast<double>(n_) * n_ * n_ * r * r);
    for (int i = 0; i < n_; ++i) {
      if (i == n) continue;
      for (int j = i + 1; j < n_; ++j) {
        if (j == n) continue;
        la::Matrix term = la::hadamard(d_grams_[static_cast<std::size_t>(i)],
                                       d_grams_[static_cast<std::size_t>(j)]);
        for (int k = 0; k < n_; ++k) {
          if (k == i || k == j || k == n) continue;
          term.hadamard_inplace((*grams_)[static_cast<std::size_t>(k)]);
        }
        w.axpy(1.0, term);
      }
    }
  }
  {
    ScopedProfile sp(prof, Kernel::kOther,
                     2.0 * static_cast<double>(m.rows()) * r * r);
    la::Matrix v = la::matmul((*factors_)[static_cast<std::size_t>(n)], w);
    m.axpy(1.0, v);
  }
  return m;
}

}  // namespace parpp::core
