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

}  // namespace

DenseTensor mttv(const DenseTensor& k, int pos, const la::Matrix& a,
                 Profile* profile) {
  DenseTensor out;
  mttv_into(k, pos, a, out, profile);
  return out;
}

void mttv_into(const DenseTensor& k, int pos, const la::Matrix& a,
               DenseTensor& out, Profile* profile) {
  PARPP_CHECK(&k != &out, "mttv_into: input must not alias output");
  const int n = k.order();
  PARPP_CHECK(n >= 2, "mttv: intermediate must carry a rank mode");
  PARPP_CHECK(pos >= 0 && pos < n - 1, "mttv: bad contraction position ", pos);
  PARPP_CHECK(a.rows() == k.extent(pos), "mttv: A rows ", a.rows(),
              " != extent ", k.extent(pos));
  const index_t r = k.extent(n - 1);
  PARPP_CHECK(a.cols() == r, "mttv: A cols ", a.cols(), " != rank mode ", r);

  const index_t left = k.extent_product(0, pos);
  const index_t dp = k.extent(pos);
  const index_t right = k.extent_product(pos + 1, n - 1);  // excludes rank

  // O(order) shape bookkeeping once per call — not steady-state work.
  std::vector<index_t> out_shape;
  out_shape.reserve(static_cast<std::size_t>(n - 1));  // parpp-lint: allow(alloc)
  for (int m = 0; m < n - 1; ++m)
    // parpp-lint: allow(alloc)
    if (m != pos) out_shape.push_back(k.extent(m));
  out_shape.push_back(r);  // parpp-lint: allow(alloc)
  out.reshape(std::move(out_shape));
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
    // Final leaf contraction: out(r) view is (1 x R); reduce over y in
    // parallel with a per-thread accumulator.
    util::OmpJoinFence fence;
    fence.fork();
#pragma omp parallel
    {
      fence.enter();
      std::vector<double> local(static_cast<std::size_t>(r), 0.0);
#pragma omp for schedule(static) nowait
      for (index_t y = 0; y < dp; ++y) {
        const double* ip = src + y * r;
        const double* arow = am + y * r;
        for (index_t j = 0; j < r; ++j)
          local[static_cast<std::size_t>(j)] += ip[j] * arow[j];
      }
      // The critical section's lock lives in libgomp, invisible to TSan;
      // observe-on-entry / publish-on-exit restate the serialization the
      // lock provides, so the dst accumulation is provably ordered.
#pragma omp critical
      {
        fence.observe();
        for (index_t j = 0; j < r; ++j)
          dst[j] += local[static_cast<std::size_t>(j)];
        fence.publish();
      }
    }
    fence.join();
  }
}

}  // namespace parpp::tensor
