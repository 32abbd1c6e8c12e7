#include "parpp/tensor/mttv.hpp"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "parpp/util/omp_sync.hpp"

namespace parpp::tensor {

namespace {

// Accumulate out_plane(right x R) += sum_y in(y, rt_range, R) * A(y, :),
// restricted to rt in [rt0, rt1).
inline void accumulate_rt_range(const double* in_block, const double* am,
                                double* out_plane, index_t dp, index_t right,
                                index_t r, index_t rt0, index_t rt1) {
  const index_t plane = right * r;
  for (index_t y = 0; y < dp; ++y) {
    const double* in_plane = in_block + y * plane;
    const double* arow = am + y * r;
    for (index_t rt = rt0; rt < rt1; ++rt) {
      const double* PARPP_RESTRICT ip = in_plane + rt * r;
      const double* PARPP_RESTRICT ar = arow;
      double* PARPP_RESTRICT op = out_plane + rt * r;
#pragma omp simd
      for (index_t j = 0; j < r; ++j) op[j] += ip[j] * ar[j];
    }
  }
}

// Rows of K in one block of the final-leaf reduction.
constexpr index_t kLeafRows = index_t{1} << 10;

void check_target(const DenseTensor& k, int pos, const la::Matrix& a,
                  const DenseTensor& out) {
  PARPP_CHECK(&k != &out, "mttv_into: input must not alias output");
  const int n = k.order();
  PARPP_CHECK(n >= 2, "mttv: intermediate must carry a rank mode");
  PARPP_CHECK(pos >= 0 && pos < n - 1, "mttv: bad contraction position ", pos);
  PARPP_CHECK(a.rows() == k.extent(pos), "mttv: A rows ", a.rows(),
              " != extent ", k.extent(pos));
  PARPP_CHECK(a.cols() == k.extent(n - 1), "mttv: A cols ", a.cols(),
              " != rank mode ", k.extent(n - 1));
}

// Shapes `out` as K without mode `pos`. O(order) shape bookkeeping once per
// call — not steady-state work.
void reshape_out(const DenseTensor& k, int pos, DenseTensor& out) {
  const int n = k.order();
  std::vector<index_t> out_shape;
  out_shape.reserve(static_cast<std::size_t>(n - 1));  // parpp-lint: allow(alloc)
  for (int m = 0; m < n; ++m)
    // parpp-lint: allow(alloc)
    if (m != pos) out_shape.push_back(k.extent(m));
  out.reshape(std::move(out_shape));
}

}  // namespace

DenseTensor mttv(const DenseTensor& k, int pos, const la::Matrix& a,
                 Profile* profile) {
  DenseTensor out;
  mttv_into(k, pos, a, out, profile);
  return out;
}

void mttv_into(const DenseTensor& k, int pos, const la::Matrix& a,
               DenseTensor& out, Profile* profile) {
  check_target(k, pos, a, out);
  const int n = k.order();
  const index_t r = k.extent(n - 1);
  const index_t left = k.extent_product(0, pos);
  const index_t dp = k.extent(pos);
  const index_t right = k.extent_product(pos + 1, n - 1);  // excludes rank

  reshape_out(k, pos, out);
  out.set_zero();  // the kernel accumulates; reused buffers are stale

  const double flops = 2.0 * static_cast<double>(k.size());
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kMTTV, flops);

  const double* src = k.data();
  const double* am = a.data();
  double* dst = out.data();
  const index_t plane = right * r;

  if (left > 1) {
    // Disjoint output planes per l: parallelize over l.
#pragma omp parallel for schedule(static)
    for (index_t l = 0; l < left; ++l) {
      accumulate_rt_range(src + l * dp * plane, am, dst + l * plane, dp, right,
                          r, 0, right);
    }
  } else if (right > 1) {
    // Single slab: split the rt range across threads (disjoint outputs).
    util::OmpJoinFence fence;
    fence.fork();
#pragma omp parallel
    {
      fence.enter();
      const int nt = omp_get_num_threads();
      const int tid = omp_get_thread_num();
      const index_t chunk = (right + nt - 1) / nt;
      const index_t rt0 = std::min<index_t>(right, tid * chunk);
      const index_t rt1 = std::min<index_t>(right, rt0 + chunk);
      if (rt0 < rt1)
        accumulate_rt_range(src, am, dst, dp, right, r, rt0, rt1);
      fence.leave();
    }
    fence.join();
  } else {
    // Final leaf contraction: out(r) = sum_y K(y, r) A(y, r). Blocks of
    // kLeafRows rows are summed on the team and their partial sums are
    // added in block order (as in DenseTensor::squared_norm), so the bits
    // depend on neither the team size nor the order threads finish in.
    const index_t blocks = (dp + kLeafRows - 1) / kLeafRows;
    if (blocks <= 1) {
      accumulate_rt_range(src, am, dst, dp, 1, r, 0, 1);
      return;
    }
    util::KernelWorkspace::Lease partial =
        util::KernelWorkspace::thread_default().lease(blocks * r);
    double* part = partial.data();
    util::OmpJoinFence fence;
    fence.fork();
#pragma omp parallel
    {
      fence.enter();
#pragma omp for schedule(static) nowait
      for (index_t b = 0; b < blocks; ++b) {
        const index_t y0 = b * kLeafRows;
        double* pb = part + b * r;
        std::fill(pb, pb + r, 0.0);
        accumulate_rt_range(src + y0 * r, am + y0 * r, pb,
                            std::min(kLeafRows, dp - y0), 1, r, 0, 1);
      }
      fence.leave();
    }
    fence.join();
    for (index_t b = 0; b < blocks; ++b)
      for (index_t j = 0; j < r; ++j) dst[j] += part[b * r + j];
  }
}

void mttv_multi_into(const DenseTensor& k, std::span<const MttvTarget> targets,
                     Profile* profile) {
  // A team runs each target through mttv_into's parallel branches.
  if (!omp_in_parallel() && omp_get_max_threads() > 1) {
    for (const MttvTarget& t : targets)
      mttv_into(k, t.pos, *t.a, *t.out, profile);
    return;
  }
  for (const MttvTarget& t : targets) check_target(k, t.pos, *t.a, *t.out);
  const int n = k.order();
  // A final-leaf target (every other tensor mode of extent 1) is left to
  // mttv_into, which sums it in blocks.
  const auto in_pass = [&](const MttvTarget& t) {
    return k.size() != k.extent(t.pos) * k.extent(n - 1);
  };
  index_t passes = 0;
  for (const MttvTarget& t : targets) {
    if (!in_pass(t)) {
      mttv_into(k, t.pos, *t.a, *t.out, profile);
      continue;
    }
    reshape_out(k, t.pos, *t.out);
    t.out->set_zero();  // the pass accumulates; reused buffers are stale
    ++passes;
  }
  if (passes == 0) return;

  const double flops = 2.0 * static_cast<double>(k.size()) * passes;
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kMTTV, flops);

  // K is rows of (last x R) values, one per outer index (i_0, .., i_{n-3}).
  // A target contracting the last tensor mode sums each row into one R
  // vector of its output; any other target adds the row, scaled by the A
  // row of its contracted index, to the output row of the other indices.
  // Rows run in index order, so each output element adds its contracted
  // index in increasing order.
  const index_t r = k.extent(n - 1);
  const index_t last = k.extent(n - 2);
  const index_t row = last * r;
  const index_t rows = k.extent_product(0, n - 2);
  // Output strides of the outer modes, per target, in output values (0 at
  // the contracted mode).
  const auto nt = static_cast<std::size_t>(targets.size());
  const auto outer = static_cast<std::size_t>(n - 2);
  std::vector<index_t> ostride(nt * outer, 0);  // parpp-lint: allow(alloc)
  for (std::size_t t = 0; t < nt; ++t) {
    const int p = targets[t].pos;
    index_t s = p == n - 2 ? r : row;
    for (int m = n - 3; m >= 0; --m) {
      if (m == p) continue;
      ostride[t * outer + static_cast<std::size_t>(m)] = s;
      s *= k.extent(m);
    }
  }

  for (index_t o = 0; o < rows; ++o) {
    const double* in = k.data() + o * row;
    for (std::size_t t = 0; t < nt; ++t) {
      const MttvTarget& tg = targets[t];
      if (!in_pass(tg)) continue;
      const index_t* st = ostride.data() + t * outer;
      // Outer index o -> output offset and contracted index.
      index_t off = 0;
      index_t y = 0;
      index_t rem = o;
      for (int m = n - 3; m >= 0; --m) {
        const index_t im = rem % k.extent(m);
        rem /= k.extent(m);
        off += im * st[m];
        if (m == tg.pos) y = im;
      }
      const double* am = tg.a->data();
      double* dst = tg.out->data() + off;
      if (tg.pos == n - 2)
        accumulate_rt_range(in, am, dst, last, 1, r, 0, 1);
      else
        accumulate_rt_range(in, am + y * r, dst, 1, last, r, 0, last);
    }
  }
}

}  // namespace parpp::tensor
