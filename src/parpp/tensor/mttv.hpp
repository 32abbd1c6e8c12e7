// Batched multi-TTV: contract one mode of a rank-carrying intermediate.
#pragma once

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::tensor {

/// Contracts mode `pos` of an intermediate K whose *last* mode is the rank
/// mode R, against factor A in R^{d_pos x R}, column-matched on r:
///
///   out(..., r) = sum_y K(..., y, ..., r) * A(y, r)
///
/// This is the batched TTV (mTTV) kernel of dimension trees: one TTV per
/// rank column, fused. `pos` must not name the trailing rank mode.
/// Bandwidth-bound by design (paper Sec. IV); charged to Kernel::kMTTV.
[[nodiscard]] DenseTensor mttv(const DenseTensor& k, int pos,
                               const la::Matrix& a, Profile* profile = nullptr);

/// Out-parameter variant: `out` is reshaped (reusing its storage — possibly
/// workspace-backed — when capacity allows), zeroed, and accumulated into.
void mttv_into(const DenseTensor& k, int pos, const la::Matrix& a,
               DenseTensor& out, Profile* profile = nullptr);

}  // namespace parpp::tensor
