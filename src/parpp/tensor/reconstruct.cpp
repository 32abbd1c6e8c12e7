#include "parpp/tensor/reconstruct.hpp"

#include "parpp/la/gemm.hpp"
#include "parpp/tensor/khatri_rao.hpp"

namespace parpp::tensor {

DenseTensor reconstruct(const std::vector<la::Matrix>& factors) {
  PARPP_CHECK(!factors.empty(), "reconstruct: no factors");
  std::vector<index_t> shape;
  shape.reserve(factors.size());
  for (const auto& f : factors) shape.push_back(f.rows());
  DenseTensor t(shape);
  if (t.size() == 0) return t;

  if (factors.size() == 1) {
    // Rank-sum of single vectors: T(i) = sum_r A(i,r).
    const auto& a = factors[0];
    for (index_t i = 0; i < a.rows(); ++i) {
      double s = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) s += a(i, k);
      t[i] = s;
    }
    return t;
  }

  // T unfolded along mode 0 (row-major) = A(1) * W^T with W the KRP of the
  // remaining factors in increasing mode order.
  la::Matrix w = khatri_rao_all(factors, 0);
  const auto& a0 = factors[0];
  la::gemm_raw(la::Trans::kNo, la::Trans::kYes, a0.rows(), w.rows(), a0.cols(),
               1.0, a0.data(), a0.cols(), w.data(), w.cols(), 0.0, t.data(),
               w.rows());
  return t;
}

}  // namespace parpp::tensor
