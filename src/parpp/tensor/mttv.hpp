// Batched multi-TTV: contract one mode of a rank-carrying intermediate.
#pragma once

#include <span>

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
/// Every output element adds its contracted index in increasing order, in
/// fixed blocks summed in block order when one output holds the whole sum,
/// so the bits never depend on the team size.
void mttv_into(const DenseTensor& k, int pos, const la::Matrix& a,
               DenseTensor& out, Profile* profile = nullptr);

/// One child of mttv_multi_into: contract mode `pos` of K against `*a`
/// into `*out`, exactly as mttv_into(k, pos, *a, *out) would.
struct MttvTarget {
  int pos = 0;
  const la::Matrix* a = nullptr;
  DenseTensor* out = nullptr;
};

/// Several mTTVs of one intermediate K in one pass over it (the children a
/// dimension-tree node feeds): each target gets mttv_into's bits, since each
/// output element still adds its contracted index in increasing order. The
/// pass runs on one thread (a 1-thread rank, or inside a parallel region);
/// on a team every target goes to mttv_into, as does a final-leaf target
/// (every other tensor mode of extent 1) at any team size. Charged to
/// Kernel::kMTTV at mttv_into's flops per target.
void mttv_multi_into(const DenseTensor& k, std::span<const MttvTarget> targets,
                     Profile* profile = nullptr);

}  // namespace parpp::tensor
