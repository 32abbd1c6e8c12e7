#include "parpp/tensor/mttkrp_sparse.hpp"

#include <omp.h>

#include <algorithm>

#include "parpp/util/omp_sync.hpp"

namespace parpp::tensor {

namespace {

template <typename Tensor>
void check_factors(const Tensor& t, const std::vector<la::Matrix>& factors,
                   int n) {
  PARPP_CHECK(n >= 0 && n < t.order(), "mttkrp: bad mode ", n);
  PARPP_CHECK(static_cast<int>(factors.size()) == t.order(),
              "mttkrp: factor count mismatch");
  const index_t r = factors.empty() ? 0 : factors.front().cols();
  for (int m = 0; m < t.order(); ++m) {
    const auto& f = factors[static_cast<std::size_t>(m)];
    PARPP_CHECK(f.rows() == t.extent(m) && f.cols() == r,
                "mttkrp: factor ", m, " shape mismatch");
  }
}

void prepare_out(la::Matrix& out, index_t rows, index_t cols) {
  if (out.rows() != rows || out.cols() != cols) out = la::Matrix(rows, cols);
  out.set_zero();
}

/// Size of the team the next parallel region will get. Unlike
/// omp_get_max_threads() this reflects dynamic adjustment and nesting caps
/// (a simulated rank capped to threads_per_rank inside an outer region), so
/// workspace slabs are sized by threads that actually run, not the global
/// maximum. The discovery region runs once per calling thread and is then
/// cached until that thread's omp_set_num_threads() setting changes — the
/// kernels below sit on the hottest path and must not pay an extra
/// fork-join per call.
int openmp_team_size() {
  thread_local int cached_max = -1;
  thread_local int cached_team = 1;
  const int maxt = omp_get_max_threads();
  if (maxt != cached_max) {
    int team = 1;
    util::OmpJoinFence fence;
    fence.fork();
#pragma omp parallel
    {
      fence.enter();
#pragma omp single
      team = omp_get_num_threads();
      fence.leave();
    }
    fence.join();
    cached_max = maxt;
    cached_team = team;
  }
  return cached_team;
}

// All walks below are templated on a register block RB ∈ {0, 8, 16, 32}:
// nonzero RB instantiates the rank loops with exact compile-time trip
// counts the autovectorizer holds in registers, RB = 0 is the runtime-bound
// generic. Every accumulator (`acc` slabs, `dst` rows, partial rows) is
// element-wise over the rank index, so each instantiation reproduces the
// pre-blocking summation order exactly.

// The gathered rows are the latency wall of every walk: the pattern stream
// (fids / values / fptr) prefetches itself, but each nonzero's factor (or
// output) row is a random fetch the hardware cannot predict, and at bench
// extents almost every one misses to DRAM. The leaf loops therefore stay
// kGatherAhead nonzeros in front of the walk; interior loops prefetch one
// node ahead (the recursion underneath is the latency window). Prefetching
// changes no arithmetic — results stay bit-for-bit.
constexpr index_t kGatherAhead = 16;

/// Sums the contributions of the level-`lv` nodes [begin, end) into `dst`
/// (length R). `acc` holds one R-vector per interior level (lv in
/// [1, order-2]), indexed acc + (lv-1)*R.
template <int RB>
void accumulate_children(const CsfTensor::Tree& tree, const double* vals,
                         const std::vector<la::Matrix>& factors, int lv,
                         index_t begin, index_t end, index_t r, double* acc,
                         double* dst) {
  const index_t rr = RB != 0 ? RB : r;
  const int leaf = static_cast<int>(tree.mode_order.size()) - 1;
  const auto& fids = tree.fids[static_cast<std::size_t>(lv)];
  const la::Matrix& factor =
      factors[static_cast<std::size_t>(tree.mode_order[static_cast<std::size_t>(lv)])];
  if (lv == leaf) {
    double* PARPP_RESTRICT d = dst;
    for (index_t k = begin; k < end; ++k) {
      const index_t pf = k + kGatherAhead < end ? k + kGatherAhead : end - 1;
      const char* prow = reinterpret_cast<const char*>(
          factor.row(fids[static_cast<std::size_t>(pf)]));
      __builtin_prefetch(prow);
      if (rr > 8) __builtin_prefetch(prow + 64);
      const double v = vals[k];
      const double* PARPP_RESTRICT arow =
          factor.row(fids[static_cast<std::size_t>(k)]);
#pragma omp simd
      for (index_t j = 0; j < rr; ++j) d[j] += v * arow[j];
    }
    return;
  }
  const auto& fptr = tree.fptr[static_cast<std::size_t>(lv)];
  double* mine = acc + static_cast<std::size_t>((lv - 1) * r);
  for (index_t k = begin; k < end; ++k) {
    if (k + 1 < end)
      __builtin_prefetch(factor.row(fids[static_cast<std::size_t>(k + 1)]));
    std::fill(mine, mine + r, 0.0);
    accumulate_children<RB>(tree, vals, factors, lv + 1,
                            fptr[static_cast<std::size_t>(k)],
                            fptr[static_cast<std::size_t>(k + 1)], r, acc,
                            mine);
    const double* PARPP_RESTRICT arow =
        factor.row(fids[static_cast<std::size_t>(k)]);
    const double* PARPP_RESTRICT m = mine;
    double* PARPP_RESTRICT d = dst;
#pragma omp simd
    for (index_t j = 0; j < rr; ++j) d[j] += m[j] * arow[j];
  }
}

/// Downward pass for the pair operator: `prod` carries the Hadamard product
/// of the factor rows of every *contracted* mode on the path so far, `xj`
/// the current coordinate of free mode j (valid once the walk passed
/// j_level). `out_slab` points at out(x_i, 0, 0); per-level product slabs
/// live at scratch + lv*r.
template <int RB>
void pair_walk(const CsfTensor::Tree& tree, const double* vals,
               const std::vector<la::Matrix>& factors, int j_level, int lv,
               index_t begin, index_t end, const double* prod, index_t xj,
               index_t r, double* scratch, double* out_slab) {
  const index_t rr = RB != 0 ? RB : r;
  const int leaf = static_cast<int>(tree.mode_order.size()) - 1;
  const auto& fids = tree.fids[static_cast<std::size_t>(lv)];
  const la::Matrix& factor = factors[static_cast<std::size_t>(
      tree.mode_order[static_cast<std::size_t>(lv)])];
  if (lv == leaf) {
    if (lv == j_level) {
      const double* PARPP_RESTRICT p = prod;
      for (index_t k = begin; k < end; ++k) {
        const index_t pf =
            k + kGatherAhead < end ? k + kGatherAhead : end - 1;
        __builtin_prefetch(out_slab + fids[static_cast<std::size_t>(pf)] * r,
                           1);
        const double v = vals[k];
        double* PARPP_RESTRICT dst =
            out_slab + fids[static_cast<std::size_t>(k)] * r;
#pragma omp simd
        for (index_t q = 0; q < rr; ++q) dst[q] += v * p[q];
      }
    } else {
      double* PARPP_RESTRICT dst = out_slab + xj * r;
      const double* PARPP_RESTRICT p = prod;
      for (index_t k = begin; k < end; ++k) {
        const index_t pf =
            k + kGatherAhead < end ? k + kGatherAhead : end - 1;
        __builtin_prefetch(factor.row(fids[static_cast<std::size_t>(pf)]));
        const double v = vals[k];
        const double* PARPP_RESTRICT arow =
            factor.row(fids[static_cast<std::size_t>(k)]);
#pragma omp simd
        for (index_t q = 0; q < rr; ++q) dst[q] += v * arow[q] * p[q];
      }
    }
    return;
  }
  const auto& fptr = tree.fptr[static_cast<std::size_t>(lv)];
  if (lv == j_level) {
    for (index_t k = begin; k < end; ++k) {
      pair_walk<RB>(tree, vals, factors, j_level, lv + 1,
                    fptr[static_cast<std::size_t>(k)],
                    fptr[static_cast<std::size_t>(k + 1)], prod,
                    fids[static_cast<std::size_t>(k)], r, scratch, out_slab);
    }
    return;
  }
  double* mine = scratch + static_cast<index_t>(lv) * r;
  for (index_t k = begin; k < end; ++k) {
    const double* PARPP_RESTRICT arow =
        factor.row(fids[static_cast<std::size_t>(k)]);
    const double* PARPP_RESTRICT p = prod;
    double* PARPP_RESTRICT m = mine;
#pragma omp simd
    for (index_t q = 0; q < rr; ++q) m[q] = p[q] * arow[q];
    pair_walk<RB>(tree, vals, factors, j_level, lv + 1,
                  fptr[static_cast<std::size_t>(k)],
                  fptr[static_cast<std::size_t>(k + 1)], mine, xj, r, scratch,
                  out_slab);
  }
}

}  // namespace

void pair_mttkrp_csf_into(const CsfTensor& t,
                          const std::vector<la::Matrix>& factors, int i,
                          int j, DenseTensor& out, Profile* profile,
                          util::KernelWorkspace* ws) {
  PARPP_CHECK(t.layout() == CsfLayout::kAllModes,
              "pair_mttkrp: pair operators need a root tree per mode — "
              "build the CsfTensor with CsfLayout::kAllModes (the kHalf "
              "layout serves plain MTTKRPs only)");
  PARPP_CHECK(t.order() >= 3, "pair_mttkrp: order must be >= 3");
  PARPP_CHECK(i != j, "pair_mttkrp: free modes must differ");
  check_factors(t, factors, i);
  PARPP_CHECK(j >= 0 && j < t.order(), "pair_mttkrp: bad mode ", j);
  const int order = t.order();
  const index_t r = factors.front().cols();
  const CsfTensor::Tree& tree = t.tree(i);
  const double* vals = tree.vals.data();
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kTTM,
                   2.0 * static_cast<double>(r) *
                       static_cast<double>(t.nnz() + tree.internal_nodes));
  out.reshape({t.extent(i), t.extent(j), r});
  out.set_zero();

  const int j_level = static_cast<int>(
      std::find(tree.mode_order.begin(), tree.mode_order.end(), j) -
      tree.mode_order.begin());

  util::KernelWorkspace& wsp =
      ws != nullptr ? *ws : util::KernelWorkspace::thread_default();
  const int team = openmp_team_size();
  // Per thread: one ones-vector (the root's incoming product) plus one
  // product slab per level, leased up front like the MTTKRP walk and sized
  // by the team that will actually run (not the global thread maximum).
  const index_t per_thread = static_cast<index_t>(order + 1) * r;
  auto slab = wsp.lease(static_cast<index_t>(team) * per_thread);

  const index_t roots = tree.root_count();
  const auto& root_fids = tree.fids.front();
  const auto& root_fptr = tree.fptr.front();
  const index_t slab_stride = t.extent(j) * r;
  double* const out_base = out.data();
  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel num_threads(team)
  {
    fence.enter();
    double* mine = slab.data() +
                   static_cast<index_t>(omp_get_thread_num()) * per_thread;
    double* ones = mine + static_cast<index_t>(order) * r;
    std::fill(ones, ones + r, 1.0);
#pragma omp for schedule(dynamic, 32)
    for (index_t k = 0; k < roots; ++k) {
      la::rank_dispatch(r, [&](auto rb) {
        pair_walk<decltype(rb)::value>(
            tree, vals, factors, j_level, 1,
            root_fptr[static_cast<std::size_t>(k)],
            root_fptr[static_cast<std::size_t>(k + 1)], ones, 0, r, mine,
            out_base + root_fids[static_cast<std::size_t>(k)] * slab_stride);
      });
    }
    fence.leave();
  }
  fence.join();
}

DenseTensor pair_mttkrp_coo(const CooTensor& t,
                            const std::vector<la::Matrix>& factors, int i,
                            int j, Profile* profile) {
  PARPP_CHECK(t.order() >= 3, "pair_mttkrp: order must be >= 3");
  PARPP_CHECK(i != j, "pair_mttkrp: free modes must differ");
  check_factors(t, factors, i);
  PARPP_CHECK(j >= 0 && j < t.order(), "pair_mttkrp: bad mode ", j);
  const int order = t.order();
  const index_t r = factors.front().cols();
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kTTM,
                   2.0 * static_cast<double>(t.nnz()) *
                       static_cast<double>(r) * (order - 2));
  DenseTensor out({t.extent(i), t.extent(j), r});
  std::vector<double> w(static_cast<std::size_t>(r));
  for (index_t e = 0; e < t.nnz(); ++e) {
    std::fill(w.begin(), w.end(), t.value(e));
    for (int m = 0; m < order; ++m) {
      if (m == i || m == j) continue;
      const double* arow =
          factors[static_cast<std::size_t>(m)].row(t.index(e, m));
      for (index_t q = 0; q < r; ++q) w[static_cast<std::size_t>(q)] *= arow[q];
    }
    double* dst = out.data() + (t.index(e, i) * t.extent(j) + t.index(e, j)) * r;
    for (index_t q = 0; q < r; ++q) dst[q] += w[static_cast<std::size_t>(q)];
  }
  return out;
}

la::Matrix mttkrp_coo(const CooTensor& t, const std::vector<la::Matrix>& factors,
                      int n, Profile* profile) {
  check_factors(t, factors, n);
  const int order = t.order();
  const index_t r = factors.front().cols();
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kTTM,
                   2.0 * static_cast<double>(t.nnz()) * static_cast<double>(r) *
                       (order - 1));
  la::Matrix out(t.extent(n), r);
  std::vector<double> w(static_cast<std::size_t>(r));
  for (index_t e = 0; e < t.nnz(); ++e) {
    std::fill(w.begin(), w.end(), t.value(e));
    for (int m = 0; m < order; ++m) {
      if (m == n) continue;
      const double* arow =
          factors[static_cast<std::size_t>(m)].row(t.index(e, m));
      for (index_t j = 0; j < r; ++j) w[static_cast<std::size_t>(j)] *= arow[j];
    }
    double* orow = out.row(t.index(e, n));
    for (index_t j = 0; j < r; ++j) orow[j] += w[static_cast<std::size_t>(j)];
  }
  return out;
}

namespace {

/// Classic schedule: one root fiber per task.
template <int RB>
void csf_walk_fiber(const CsfTensor::Tree& tree, const double* vals,
                    const std::vector<la::Matrix>& factors, index_t r,
                    index_t levels, int team, la::Matrix& out,
                    util::KernelWorkspace& wsp) {
  // One slab of interior-level accumulators per thread, leased up front so
  // the parallel region never contends on the pool lock.
  auto slab = wsp.lease(static_cast<index_t>(team) * levels * r);
  const index_t roots = tree.root_count();
  const auto& root_fids = tree.fids.front();
  const auto& root_fptr = tree.fptr.front();
  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel num_threads(team)
  {
    fence.enter();
    double* acc = slab.data() + static_cast<index_t>(omp_get_thread_num()) *
                                    levels * r;
    // Root fibers can be heavily skewed in real sparse tensors; dynamic
    // scheduling keeps the long ones from serializing the sweep.
#pragma omp for schedule(dynamic, 32)
    for (index_t j = 0; j < roots; ++j) {
      accumulate_children<RB>(tree, vals, factors, 1,
                              root_fptr[static_cast<std::size_t>(j)],
                              root_fptr[static_cast<std::size_t>(j + 1)], r,
                              acc,
                              out.row(root_fids[static_cast<std::size_t>(j)]));
    }
    fence.leave();
  }
  fence.join();
}

/// Tiled schedule: work stealing over the tree's cache-sized level-1 tiles.
/// A tile's interior roots are wholly owned (their output rows are written
/// directly); its first/last root may be shared with neighbor tiles, so
/// those contributions go to tile-private partial rows merged in a serial
/// O(tiles) fix-up after the parallel region.
template <int RB>
void csf_walk_tiled(const CsfTensor::Tree& tree, const double* vals,
                    const std::vector<la::Matrix>& factors, index_t r,
                    index_t levels, int team, la::Matrix& out,
                    util::KernelWorkspace& wsp) {
  const index_t tiles = tree.tile_count();
  const auto& root_fids = tree.fids.front();
  const auto& root_fptr = tree.fptr.front();
  // Per-thread accumulator slabs, then two partial rows per tile.
  auto slab = wsp.lease(static_cast<index_t>(team) * levels * r +
                        tiles * 2 * r);
  double* const part_base = slab.data() + static_cast<index_t>(team) * levels * r;

  // Boundary intersection of tile tt with root fiber `root`, mirrored
  // exactly in the fix-up below.
  const auto clip = [&](index_t tt, index_t root, index_t* cb, index_t* ce) {
    *cb = std::max(tree.tile_ptr[static_cast<std::size_t>(tt)],
                   root_fptr[static_cast<std::size_t>(root)]);
    *ce = std::min(tree.tile_ptr[static_cast<std::size_t>(tt) + 1],
                   root_fptr[static_cast<std::size_t>(root) + 1]);
  };
  const auto whole = [&](index_t root, index_t cb, index_t ce) {
    return cb == root_fptr[static_cast<std::size_t>(root)] &&
           ce == root_fptr[static_cast<std::size_t>(root) + 1];
  };

  // The serial fix-up below reads worker-written partial rows (part_base);
  // the fence makes that join edge visible to TSan (see omp_sync.hpp).
  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel num_threads(team)
  {
    fence.enter();
    double* acc = slab.data() + static_cast<index_t>(omp_get_thread_num()) *
                                    levels * r;
#pragma omp for schedule(dynamic, 1)
    for (index_t tt = 0; tt < tiles; ++tt) {
      const index_t rb = tree.tile_root[static_cast<std::size_t>(tt)];
      const index_t re = tree.tile_root_end[static_cast<std::size_t>(tt)];
      double* part = part_base + tt * 2 * r;
      for (index_t root = rb; root < re; ++root) {
        index_t cb = 0, ce = 0;
        clip(tt, root, &cb, &ce);
        double* dst;
        if (whole(root, cb, ce)) {
          dst = out.row(root_fids[static_cast<std::size_t>(root)]);
        } else {
          dst = root == rb ? part : part + r;
          std::fill(dst, dst + r, 0.0);
        }
        accumulate_children<RB>(tree, vals, factors, 1, cb, ce, r, acc, dst);
      }
    }
    fence.leave();
  }
  fence.join();

  for (index_t tt = 0; tt < tiles; ++tt) {
    const index_t rb = tree.tile_root[static_cast<std::size_t>(tt)];
    const index_t re = tree.tile_root_end[static_cast<std::size_t>(tt)];
    if (rb >= re) continue;
    const double* part = part_base + tt * 2 * r;
    index_t cb = 0, ce = 0;
    clip(tt, rb, &cb, &ce);
    if (!whole(rb, cb, ce)) {
      double* dst = out.row(root_fids[static_cast<std::size_t>(rb)]);
      for (index_t q = 0; q < r; ++q) dst[q] += part[q];
    }
    if (re - rb >= 2) {
      clip(tt, re - 1, &cb, &ce);
      if (!whole(re - 1, cb, ce)) {
        double* dst = out.row(root_fids[static_cast<std::size_t>(re - 1)]);
        for (index_t q = 0; q < r; ++q) dst[q] += part[r + q];
      }
    }
  }
}

/// Downward scatter pass of the kHalf leaf walk: `prod` holds the Hadamard
/// product of the factor rows of every level above `lv`; leaves add
/// val * prod into their output row. Interior product slabs live at
/// scratch + lv*r.
template <int RB>
void leaf_scatter(const CsfTensor::Tree& tree, const double* vals,
                  const std::vector<la::Matrix>& factors, int lv,
                  index_t begin, index_t end, const double* prod, index_t r,
                  double* scratch, double* out0) {
  const index_t rr = RB != 0 ? RB : r;
  const int leaf = static_cast<int>(tree.mode_order.size()) - 1;
  const auto& fids = tree.fids[static_cast<std::size_t>(lv)];
  if (lv == leaf) {
    const double* PARPP_RESTRICT p = prod;
    for (index_t k = begin; k < end; ++k) {
      const index_t pf = k + kGatherAhead < end ? k + kGatherAhead : end - 1;
      const char* prow = reinterpret_cast<const char*>(
          out0 + fids[static_cast<std::size_t>(pf)] * r);
      __builtin_prefetch(prow, 1);
      if (rr > 8) __builtin_prefetch(prow + 64, 1);
      const double v = vals[k];
      double* PARPP_RESTRICT dst = out0 + fids[static_cast<std::size_t>(k)] * r;
#pragma omp simd
      for (index_t q = 0; q < rr; ++q) dst[q] += v * p[q];
    }
    return;
  }
  const la::Matrix& factor = factors[static_cast<std::size_t>(
      tree.mode_order[static_cast<std::size_t>(lv)])];
  const auto& fptr = tree.fptr[static_cast<std::size_t>(lv)];
  double* mine = scratch + static_cast<index_t>(lv) * r;
  for (index_t k = begin; k < end; ++k) {
    if (k + 1 < end)
      __builtin_prefetch(factor.row(fids[static_cast<std::size_t>(k + 1)]));
    const double* PARPP_RESTRICT arow =
        factor.row(fids[static_cast<std::size_t>(k)]);
    const double* PARPP_RESTRICT p = prod;
    double* PARPP_RESTRICT m = mine;
#pragma omp simd
    for (index_t q = 0; q < rr; ++q) m[q] = p[q] * arow[q];
    leaf_scatter<RB>(tree, vals, factors, lv + 1,
                     fptr[static_cast<std::size_t>(k)],
                     fptr[static_cast<std::size_t>(k + 1)], mine, r, scratch,
                     out0);
  }
}

/// kHalf leaf-mode schedule: distinct roots may reach the *same* leaf-mode
/// output row, so a parallel team scatters into per-thread output slabs
/// merged in thread order; a single thread writes the output directly. Each
/// thread walks one contiguous block of roots (a static split, not the
/// fiber walk's dynamic chunks), so every slab sums the same contributions
/// in the same order on every run and the result is bitwise reproducible
/// for a fixed team size.
template <int RB>
void csf_walk_leaf(const CsfTensor::Tree& tree, const double* vals,
                   const std::vector<la::Matrix>& factors, index_t r, int team,
                   la::Matrix& out, util::KernelWorkspace& wsp) {
  const int order = static_cast<int>(tree.mode_order.size());
  const index_t roots = tree.root_count();
  const auto& root_fids = tree.fids.front();
  const auto& root_fptr = tree.fptr.front();
  const la::Matrix& root_factor =
      factors[static_cast<std::size_t>(tree.mode_order.front())];
  const index_t osize = out.rows() * r;
  // Per thread: one product slab per level (levels 0..order-2; the root
  // product occupies slot 0) plus, when the team is parallel, a private
  // output copy.
  const index_t scratch_per_thread = static_cast<index_t>(order) * r;
  const index_t per_thread =
      scratch_per_thread + (team > 1 ? osize : index_t{0});
  auto slab = wsp.lease(static_cast<index_t>(team) * per_thread);
  double* const slab0 = slab.data();
  if (team > 1)
    std::fill(slab0 + scratch_per_thread * team,
              slab0 + scratch_per_thread * team +
                  static_cast<index_t>(team) * osize,
              0.0);
  double* const outlocal0 = slab0 + scratch_per_thread * team;

  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel num_threads(team)
  {
    fence.enter();
    const int tid = omp_get_thread_num();
    double* scratch = slab0 + static_cast<index_t>(tid) * scratch_per_thread;
    double* out0 =
        team > 1 ? outlocal0 + static_cast<index_t>(tid) * osize : out.data();
    double* rootprod = scratch;
    const auto nt = static_cast<index_t>(omp_get_num_threads());
    const index_t k_begin = roots * tid / nt;
    const index_t k_end = roots * (tid + 1) / nt;
    for (index_t k = k_begin; k < k_end; ++k) {
      const double* PARPP_RESTRICT arow =
          root_factor.row(root_fids[static_cast<std::size_t>(k)]);
      double* PARPP_RESTRICT rp = rootprod;
      const index_t rr = RB != 0 ? RB : r;
#pragma omp simd
      for (index_t q = 0; q < rr; ++q) rp[q] = arow[q];
      leaf_scatter<RB>(tree, vals, factors, 1,
                       root_fptr[static_cast<std::size_t>(k)],
                       root_fptr[static_cast<std::size_t>(k + 1)], rootprod, r,
                       scratch, out0);
    }
    fence.leave();
  }
  fence.join();

  if (team > 1) {
    // Deterministic reduction in thread order.
    double* dst = out.data();
    for (int tid = 0; tid < team; ++tid) {
      const double* src = outlocal0 + static_cast<index_t>(tid) * osize;
      for (index_t i = 0; i < osize; ++i) dst[i] += src[i];
    }
  }
}

}  // namespace

void mttkrp_csf_into(const CsfTensor& t, const std::vector<la::Matrix>& factors,
                     int n, la::Matrix& out, Profile* profile,
                     util::KernelWorkspace* ws, CsfWalk walk) {
  check_factors(t, factors, n);
  const int order = t.order();
  const index_t r = factors.front().cols();
  const CsfTensor::Walk wk = t.walk_for(n);
  const CsfTensor::Tree& tree = *wk.tree;
  const double* vals = tree.vals.data();
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kTTM,
                   2.0 * static_cast<double>(r) *
                       static_cast<double>(t.nnz() + tree.internal_nodes));
  prepare_out(out, t.extent(n), r);

  util::KernelWorkspace& wsp =
      ws != nullptr ? *ws : util::KernelWorkspace::thread_default();
  const index_t levels = std::max(order - 2, 0);
  const int team = openmp_team_size();

  if (wk.leaf) {
    // kHalf layout, upper-half mode: downward scatter walk. The
    // fiber/tiled distinction does not apply (scatter targets are output
    // rows, not subtree sums).
    la::rank_dispatch(r, [&](auto rb) {
      csf_walk_leaf<decltype(rb)::value>(tree, vals, factors, r, team, out,
                                         wsp);
    });
    return;
  }

  if (walk == CsfWalk::kAuto) {
    // The fiber schedule hands out chunks of 32 roots; when the root mode
    // cannot fill the team at that granularity, switch to tiles.
    const bool starved = tree.root_count() < static_cast<index_t>(team) * 32;
    walk = (team > 1 && starved && tree.tile_count() > 1) ? CsfWalk::kTiled
                                                          : CsfWalk::kFiber;
  }
  la::rank_dispatch(r, [&](auto rb) {
    if (walk == CsfWalk::kTiled) {
      csf_walk_tiled<decltype(rb)::value>(tree, vals, factors, r, levels,
                                          team, out, wsp);
    } else {
      csf_walk_fiber<decltype(rb)::value>(tree, vals, factors, r, levels,
                                          team, out, wsp);
    }
  });
}

la::Matrix mttkrp_csf(const CsfTensor& t, const std::vector<la::Matrix>& factors,
                      int n, Profile* profile, util::KernelWorkspace* ws,
                      CsfWalk walk) {
  la::Matrix out;
  mttkrp_csf_into(t, factors, n, out, profile, ws, walk);
  return out;
}

}  // namespace parpp::tensor
