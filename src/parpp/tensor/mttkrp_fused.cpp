#include "parpp/tensor/mttkrp_fused.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "parpp/la/gemm.hpp"
#include "parpp/util/omp_sync.hpp"

namespace parpp::tensor {

namespace {

// Panel budget in doubles: one KRP panel (block x R) stays L1/L2 resident
// next to the GEMM tiles it feeds.
constexpr index_t kPanelDoubles = 8192;

index_t panel_rows(index_t r) {
  return std::max<index_t>(1, kPanelDoubles / std::max<index_t>(r, 1));
}

// Upper bound on tensor order for the stack-allocated odometer below; the
// panel builder runs per l-row inside the hot parallel loop and must not
// touch the heap.
constexpr std::size_t kMaxOrder = 24;

// Writes rows [start, start + count) of the Khatri-Rao product of `mats`
// (row-major linearization: the *last* matrix's index varies fastest) into
// `out` (count x r, row-major). `mats` must be non-empty.
void krp_panel(const std::vector<const la::Matrix*>& mats, index_t start,
               index_t count, index_t r, double* out) {
  const std::size_t nm = mats.size();
  if (nm == 1) {
    std::memcpy(out, mats[0]->row(start),
                static_cast<std::size_t>(count * r) * sizeof(double));
    return;
  }
  // Odometer over the member indices, advanced once per row. Stack storage:
  // this runs once per l-row of the interior-mode loop and must stay
  // allocation-free.
  PARPP_ASSERT(nm <= kMaxOrder, "krp_panel: order cap exceeded");
  std::array<index_t, kMaxOrder> idx;
  index_t rem = start;
  for (std::size_t m = nm; m-- > 0;) {
    const index_t e = mats[m]->rows();
    idx[m] = rem % e;
    rem /= e;
  }
  for (index_t row = 0; row < count; ++row) {
    double* PARPP_RESTRICT o = out + row * r;
    std::memcpy(o, mats[0]->row(idx[0]),
                static_cast<std::size_t>(r) * sizeof(double));
    for (std::size_t m = 1; m < nm; ++m) {
      const double* PARPP_RESTRICT f = mats[m]->row(idx[m]);
#pragma omp simd
      for (index_t k = 0; k < r; ++k) o[k] *= f[k];
    }
    for (std::size_t m = nm; m-- > 0;) {
      if (++idx[m] < mats[m]->rows()) break;
      idx[m] = 0;
    }
  }
}

// One KRP row (product of one row from each matrix) for a linearized index.
void krp_row(const std::vector<const la::Matrix*>& mats, index_t lin,
             index_t r, double* out) {
  krp_panel(mats, lin, 1, r, out);
}

// Register-blocked rank-broadcast multiply-accumulate of the interior-mode
// path: Mlocal(i, :) += P(i, :) ∘ lrow. RB ∈ {8, 16, 32} instantiates the
// rank loop with an exact trip count (fully held in vector registers);
// RB = 0 is the generic runtime-bound tail. Element-wise over k, so the
// summation order is identical to the pre-blocking kernel.
template <int RB>
void mac_rows(index_t sn, index_t r, const double* p, const double* lrow,
              double* mlocal) {
  const index_t rr = RB != 0 ? RB : r;
  for (index_t i = 0; i < sn; ++i) {
    const double* PARPP_RESTRICT pi = p + i * r;
    double* PARPP_RESTRICT mi = mlocal + i * r;
    const double* PARPP_RESTRICT lr = lrow;
#pragma omp simd
    for (index_t k = 0; k < rr; ++k) mi[k] += pi[k] * lr[k];
  }
}

}  // namespace

la::Matrix mttkrp_fused(const DenseTensor& t,
                        const std::vector<la::Matrix>& factors, int n,
                        Profile* profile, util::KernelWorkspace* ws) {
  la::Matrix m;
  mttkrp_into(t, factors, n, m, profile, ws);
  return m;
}

void mttkrp_into(const DenseTensor& t, const std::vector<la::Matrix>& factors,
                 int n, la::Matrix& out, Profile* profile,
                 util::KernelWorkspace* ws) {
  const double* src = t.data();
  const std::vector<index_t>& shape = t.shape();
  const int order = static_cast<int>(shape.size());
  PARPP_CHECK(static_cast<int>(factors.size()) == order,
              "mttkrp_fused: factor count mismatch");
  PARPP_CHECK(static_cast<std::size_t>(order) <= kMaxOrder,
              "mttkrp_fused: order ", order, " exceeds cap ", kMaxOrder);
  PARPP_CHECK(n >= 0 && n < order, "mttkrp_fused: bad mode ", n);
  index_t size = 1;
  for (int m = 0; m < order; ++m) {
    const index_t e = shape[static_cast<std::size_t>(m)];
    PARPP_CHECK(factors[static_cast<std::size_t>(m)].rows() == e,
                "mttkrp_fused: factor ", m, " rows ",
                factors[static_cast<std::size_t>(m)].rows(), " != extent ", e);
    size *= e;
  }
  const index_t r = factors[static_cast<std::size_t>(n)].cols();
  const index_t sn = shape[static_cast<std::size_t>(n)];
  if (out.rows() != sn || out.cols() != r) out = la::Matrix(sn, r);
  out.set_zero();
  if (size == 0 || r == 0) return;

  if (order == 1) {
    // No partner factors: the KRP is an empty product (all-ones), so every
    // rank column is the tensor itself — matches mttkrp_elementwise.
    for (index_t i = 0; i < sn; ++i)
      std::fill(out.row(i), out.row(i) + r, src[i]);
    return;
  }

  util::KernelWorkspace& wsp =
      ws ? *ws : util::KernelWorkspace::thread_default();
  index_t left = 1, right = 1;
  for (int m = 0; m < n; ++m) left *= shape[static_cast<std::size_t>(m)];
  for (int m = n + 1; m < order; ++m)
    right *= shape[static_cast<std::size_t>(m)];

  // O(order) pointer setup before the panel loops, not steady-state work.
  // parpp-lint: allow(alloc)
  std::vector<const la::Matrix*> left_mats, right_mats;
  for (int m = 0; m < n; ++m)
    // parpp-lint: allow(alloc)
    left_mats.push_back(&factors[static_cast<std::size_t>(m)]);
  for (int m = n + 1; m < order; ++m)
    // parpp-lint: allow(alloc)
    right_mats.push_back(&factors[static_cast<std::size_t>(m)]);

  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kTTM, 2.0 * static_cast<double>(size) * r);

  if (right_mats.empty()) {
    // Last mode: M = U^T L with U = T viewed as (left x s_n) — the
    // unfolding is reached by a transposed GEMM, no copy. The left KRP is
    // produced panel-by-panel.
    const index_t pb = panel_rows(r);
    auto panel = wsp.lease(pb * r);
    double* pdata = panel.data();
    for (index_t l0 = 0; l0 < left; l0 += pb) {
      const index_t lb = std::min(pb, left - l0);
      krp_panel(left_mats, l0, lb, r, pdata);
      la::gemm_raw(la::Trans::kYes, la::Trans::kNo, sn, r, lb, 1.0,
                   src + l0 * sn, sn, pdata, r, 1.0, out.data(), r);
    }
    return;
  }

  if (left_mats.empty()) {
    // First mode: M = U W with U = T viewed as (s_n x right) — already the
    // unfolding in place. The right KRP is produced panel-by-panel.
    const index_t pb = panel_rows(r);
    auto panel = wsp.lease(pb * r);
    double* pdata = panel.data();
    for (index_t t0 = 0; t0 < right; t0 += pb) {
      const index_t tb = std::min(pb, right - t0);
      krp_panel(right_mats, t0, tb, r, pdata);
      la::gemm_raw(la::Trans::kNo, la::Trans::kNo, sn, r, tb, 1.0, src + t0,
                   right, pdata, r, 1.0, out.data(), r);
    }
    return;
  }

  // Interior mode. With U(i, l·right + t) = T(l, i, t) and the KRP row
  // factored as L(l,:) ∘ Rt(t,:):
  //
  //   M(i, r) = Σ_l L(l, r) · [ Σ_t T(l, i, t) · Rt(t, r) ]
  //
  // Per l: a strided (s_n x right) GEMM against panel-built Rt blocks into a
  // scratch P, then a rank-broadcast multiply-accumulate by L(l,:). The l
  // loop is split across threads with private output accumulators so the
  // result is deterministic and lock-free.
  const index_t pb = panel_rows(r);
  const int maxt = omp_get_max_threads();
  const index_t msize = sn * r;
  // Per-thread runs: Mlocal, the GEMM scratch P, lrow and the Rt panel.
  const index_t scratch_per_thread =
      msize /*P*/ + r /*lrow*/ + pb * r /*Rt panel*/;
  const index_t per_thread = msize /*Mlocal*/ + scratch_per_thread;
  auto slab = wsp.lease(static_cast<index_t>(maxt) * per_thread);
  // Mlocal slots lead the slab so they can be zeroed (and later reduced) as
  // one contiguous run; non-spawned threads' slots must read as zero.
  double* mlocal0 = slab.data();
  std::fill(mlocal0, mlocal0 + static_cast<index_t>(maxt) * msize, 0.0);
  double* scratch0 = mlocal0 + static_cast<index_t>(maxt) * msize;

  util::OmpJoinFence fence;
  fence.fork();
  // When the whole right KRP fits in one panel its rows are identical for
  // every l — build it once per thread instead of `left` times inside the
  // hot loop (same values, so fp64 results are unchanged).
  const bool hoist_panel = right <= pb;

#pragma omp parallel
  {
    fence.enter();
    const int tid = omp_get_thread_num();
    double* mlocal = mlocal0 + static_cast<index_t>(tid) * msize;
    double* scratch = scratch0 + static_cast<index_t>(tid) * scratch_per_thread;
    double* p = scratch;
    double* lrow = scratch + msize;
    double* panel = lrow + r;
    if (hoist_panel) krp_panel(right_mats, 0, right, r, panel);

#pragma omp for schedule(static)
    for (index_t l = 0; l < left; ++l) {
      krp_row(left_mats, l, r, lrow);
      std::fill(p, p + msize, 0.0);
      const double* tl = src + l * sn * right;
      for (index_t t0 = 0; t0 < right; t0 += pb) {
        const index_t tb = std::min(pb, right - t0);
        if (!hoist_panel) krp_panel(right_mats, t0, tb, r, panel);
        la::gemm_raw(la::Trans::kNo, la::Trans::kNo, sn, r, tb, 1.0, tl + t0,
                     right, panel, r, 1.0, p, r);
      }
      la::rank_dispatch(r, [&](auto rb) {
        mac_rows<decltype(rb)::value>(sn, r, p, lrow, mlocal);
      });
    }
    fence.leave();
  }
  fence.join();

  // Deterministic reduction in thread order.
  double* dst = out.data();
  for (int tid = 0; tid < maxt; ++tid) {
    const double* mlocal = mlocal0 + static_cast<index_t>(tid) * msize;
    for (index_t i = 0; i < msize; ++i) dst[i] += mlocal[i];
  }
}

}  // namespace parpp::tensor
