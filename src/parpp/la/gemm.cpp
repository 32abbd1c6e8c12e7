#include "parpp/la/gemm.hpp"

#include <omp.h>

#include <algorithm>

#include "parpp/util/omp_sync.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::la {

namespace {

// Cache-block sizes tuned for ~32 KiB L1 / 1 MiB L2 per core; not critical,
// the library only needs a consistent compute-bound GEMM.
constexpr index_t kBlockM = 64;
constexpr index_t kBlockN = 128;
constexpr index_t kBlockK = 256;

// Register-tile extents for the micro-kernel: a kTileM x kTileN accumulator
// lives in vector registers across the whole k loop, so C is touched once
// per tile instead of once per rank-1 update. The vector lane width follows
// the target ISA: 512-bit accumulators (and the deeper 8-row tile the 32
// AVX-512 registers afford) under -march=native on AVX-512 hosts, 256-bit
// shapes everywhere else. Narrow panels (n in [8, 16), i.e. rank-8 MTTKRP)
// get their own 8-column register tile instead of falling through to the
// memory-accumulating edge kernel — that fall-through serialized R = 8 on a
// store-forward latency chain and left the fused MTTKRP far below stream
// bandwidth. Tile shape never changes summation order: each C element still
// accumulates over k in index order, so fp64 results are bit-for-bit
// independent of ISA and tile geometry.
#if defined(__GNUC__) || defined(__clang__)
#define PARPP_GEMM_GNU_VEC 1
#endif

#if defined(PARPP_GEMM_GNU_VEC) && defined(__AVX512F__)
constexpr index_t kVecW = 8;   // 512-bit lanes
constexpr index_t kTileM = 8;  // 8x16 tile: 16 of 32 vector registers
#else
constexpr index_t kVecW = 4;
constexpr index_t kTileM = 4;
#endif
constexpr index_t kTileN = 16;
constexpr index_t kTileNNarrow = 8;

// Where a register tile reads A's element (ti, l). In place (kPanel false),
// the tile's TM rows sit lda elements apart. A transposed A arrives as a
// k-major panel from pack_at (kPanel true): the TM values of step l are
// contiguous, so the tile reads its panel front to back.
template <index_t TM, bool kPanel>
inline double tile_a(const double* a, index_t lda, index_t ti, index_t l) {
  return kPanel ? a[l * TM + ti] : a[ti * lda + l];
}

#if defined(PARPP_GEMM_GNU_VEC)
// kVecW-wide double vectors with unaligned (8-byte) loads; the compiler
// lowers these to the widest FMA the target has, or scalar pairs without
// SIMD. Explicit vectors matter here: with a runtime lda the autovectorizer
// refuses to keep the accumulator tile in registers (measured >10x slower).
using vdf = double __attribute__((vector_size(kVecW * 8), aligned(8)));

// Element-wise braces, not `vdf{} + s`: the zero-add idiom makes GCC emit a
// real vaddsd in the broadcast dependency chain, which halved the measured
// micro-kernel rate. This stays a macro rather than a vector-returning
// helper function so non-AVX baseline builds don't trip the -Wpsabi
// vector-ABI warning.
#if defined(__AVX512F__)
#define PARPP_VBROADCAST(s) \
  vdf { (s), (s), (s), (s), (s), (s), (s), (s) }
#else
#define PARPP_VBROADCAST(s) \
  vdf { (s), (s), (s), (s) }
#endif

// The rotating software prefetch on in-place A rows is what lets
// large-operand GEMMs actually reach stream bandwidth: a narrow-n tile walks
// TM rows that sit lda elements apart, and with a block row set wider than
// the hardware prefetcher's stream table the k loop otherwise stalls on
// every line. One prefetch per k step, rotated across the tile's rows, keeps
// each row a few lines ahead for the cost of a single spare load slot. A
// packed panel is one sequential stream and needs none. With `write` the
// tile stores 0 + alpha * acc without reading C (see block_kernel).
template <index_t TM, index_t TN, bool kPanel>
inline void micro_tile(index_t kb, double alpha, const double* a, index_t lda,
                       const double* b, index_t ldb, double* c, index_t ldc,
                       bool write) {
  constexpr index_t NV = TN / kVecW;
  static_assert(NV * kVecW == TN, "tile width must be lane-multiple");
  vdf acc[TM][NV] = {};
  for (index_t l = 0; l < kb; ++l) {
    if constexpr (!kPanel)
      __builtin_prefetch(
          reinterpret_cast<const char*>(a + (l % TM) * lda + l) + 512);
    const double* brow = b + l * ldb;
    vdf bv[NV];
    for (index_t tv = 0; tv < NV; ++tv)
      bv[tv] = *reinterpret_cast<const vdf*>(brow + kVecW * tv);
    for (index_t ti = 0; ti < TM; ++ti) {
      const double s = tile_a<TM, kPanel>(a, lda, ti, l);
      const vdf av = PARPP_VBROADCAST(s);
      for (index_t tv = 0; tv < NV; ++tv) acc[ti][tv] += av * bv[tv];
    }
  }
  for (index_t ti = 0; ti < TM; ++ti) {
    double* crow = c + ti * ldc;
    for (index_t tv = 0; tv < NV; ++tv) {
      vdf cv = {};
      if (!write) cv = *reinterpret_cast<vdf*>(crow + kVecW * tv);
      cv += alpha * acc[ti][tv];
      *reinterpret_cast<vdf*>(crow + kVecW * tv) = cv;
    }
  }
}
#else
template <index_t TM, index_t TN, bool kPanel>
inline void micro_tile(index_t kb, double alpha, const double* a, index_t lda,
                       const double* b, index_t ldb, double* c, index_t ldc,
                       bool write) {
  double acc[TM][TN] = {};
  for (index_t l = 0; l < kb; ++l) {
    const double* brow = b + l * ldb;
    for (index_t ti = 0; ti < TM; ++ti) {
      const double av = tile_a<TM, kPanel>(a, lda, ti, l);
      for (index_t tj = 0; tj < TN; ++tj) acc[ti][tj] += av * brow[tj];
    }
  }
  for (index_t ti = 0; ti < TM; ++ti) {
    double* crow = c + ti * ldc;
    for (index_t tj = 0; tj < TN; ++tj)
      crow[tj] = (write ? 0.0 : crow[tj]) + alpha * acc[ti][tj];
  }
}
#endif

// Generic edge kernel: C[i,:] += alpha * A[i,l] * B[l,:] with the j-loop
// vectorizable. A's element (i, l) sits at a[i * a_row + l * a_step]:
// (lda, 1) in place, (1, panel rows) in a k-major panel. With `write` each
// C row is zeroed just before this block accumulates into it.
inline void edge_kernel(index_t mb, index_t nb, index_t kb, double alpha,
                        const double* a, index_t a_row, index_t a_step,
                        const double* b, index_t ldb, double* c, index_t ldc,
                        bool write) {
  for (index_t i = 0; i < mb; ++i) {
    double* PARPP_RESTRICT crow = c + i * ldc;
    if (write) std::fill(crow, crow + nb, 0.0);
    const double* arow = a + i * a_row;
    for (index_t l = 0; l < kb; ++l) {
      const double av = alpha * arow[l * a_step];
      if (av == 0.0) continue;
      const double* PARPP_RESTRICT brow = b + l * ldb;
#pragma omp simd
      for (index_t j = 0; j < nb; ++j) crow[j] += av * brow[j];
    }
  }
}

// Inner kernel on one (mb x nb x kb) block, B row-major (kb x nb): full
// register tiles take the fast path, ragged edges fall back to the generic
// kernel. A is either in place, row-major with leading dimension lda, or
// (kPanel) pack_at's k-major panels, passed with lda == kb so that the panel
// of rows [i, i + kTileM) starts at a + i * lda in both layouts. The layout
// changes only where A's values are read from, never which kernel computes
// which C element, so the two give the same bits. `write` (the first k
// block of a beta = 0 product) makes every kernel store 0 + alpha * acc
// instead of adding to C: a zeroed C's bits, with C never read.
template <bool kPanel>
inline void block_kernel(index_t mb, index_t nb, index_t kb, double alpha,
                         const double* a, index_t lda, const double* b,
                         index_t ldb, double* c, index_t ldc, bool write) {
  const index_t mt = mb / kTileM * kTileM;
  const index_t nt = nb / kTileN * kTileN;
  // At most one narrow register tile mops up columns [nt, nt8) so an 8-wide
  // panel (rank-8 MTTKRP) never reaches the memory-bound edge kernel.
  const index_t nt8 = nt + (nb - nt) / kTileNNarrow * kTileNNarrow;
  // Edge-kernel strides (row, k step) of a full tile's rows and of the
  // ragged tail rows [mt, mb).
  const index_t tile_row = kPanel ? 1 : lda;
  const index_t tile_step = kPanel ? kTileM : 1;
  const index_t tail_step = kPanel ? mb - mt : 1;
  for (index_t i = 0; i < mt; i += kTileM) {
    for (index_t j = 0; j < nt; j += kTileN)
      micro_tile<kTileM, kTileN, kPanel>(kb, alpha, a + i * lda, lda, b + j,
                                         ldb, c + i * ldc + j, ldc, write);
    if (nt8 > nt)
      micro_tile<kTileM, kTileNNarrow, kPanel>(kb, alpha, a + i * lda, lda,
                                               b + nt, ldb, c + i * ldc + nt,
                                               ldc, write);
    if (nt8 < nb)
      edge_kernel(kTileM, nb - nt8, kb, alpha, a + i * lda, tile_row,
                  tile_step, b + nt8, ldb, c + i * ldc + nt8, ldc, write);
  }
  if (mt < mb)
    edge_kernel(mb - mt, nb, kb, alpha, a + mt * lda, tile_row, tail_step, b,
                ldb, c + mt * ldc, ldc, write);
}

// Packs the (mb x kb) block of a transposed A at logical (i0, l0) into
// fp64 k-major panels (Goto & van de Geijn's packed A): the panel of rows
// [i, i + w), w = min(kTileM, mb - i), fills dst[i * kb, (i + w) * kb) with
// the w values of step l at dst + i * kb + l * w. Op(A)'s column l0 + l is
// the contiguous source row l, so the pack reads each row's mb-element
// segment once, front to back, prefetching a few rows ahead. A walk down
// op(A)'s columns instead strides lda elements per load; when lda is a large
// power of two (the mode-0 TTM of a 256^3 tensor has lda = 65536 doubles)
// all of a column's lines fall into one cache set, and each line is fetched
// from L3 once per element used.
inline void pack_at(index_t mb, index_t kb, const double* a, index_t lda,
                    index_t i0, index_t l0, double* dst) {
  constexpr index_t kLine = 64 / static_cast<index_t>(sizeof(double));
  constexpr index_t kAhead = 8;  // source rows in flight ahead of the copy
  const index_t mt = mb / kTileM * kTileM;
  const index_t tail = mb - mt;  // rows of the ragged last panel
  const double* src = a + l0 * lda + i0;  // physical (kb x mb)
  for (index_t l = 0; l < kb; ++l) {
    const double* PARPP_RESTRICT srow = src + l * lda;
    if (l + kAhead < kb)
      for (index_t i = 0; i < mb; i += kLine)
        __builtin_prefetch(srow + kAhead * lda + i);
    // Full panels copy kTileM values each, a fixed trip count that
    // vectorizes; the ragged panel is at most kTileM - 1 values.
    for (index_t i = 0; i < mt; i += kTileM) {
      double* PARPP_RESTRICT d = dst + i * kb + l * kTileM;
      for (index_t ti = 0; ti < kTileM; ++ti) d[ti] = srow[i + ti];
    }
    double* PARPP_RESTRICT d = dst + mt * kb + l * tail;
    for (index_t ti = 0; ti < tail; ++ti) d[ti] = srow[mt + ti];
  }
}

inline void pack_b(index_t kb, index_t nb, const double* b, index_t ldb,
                   Trans tb, index_t l0, index_t j0, double* dst) {
  if (tb == Trans::kNo) {
    const double* src = b + l0 * ldb + j0;
    for (index_t l = 0; l < kb; ++l)
      std::copy(src + l * ldb, src + l * ldb + nb, dst + l * nb);
  } else {
    const double* src = b + j0 * ldb + l0;  // physical (nb x kb)
    for (index_t l = 0; l < kb; ++l)
      for (index_t j = 0; j < nb; ++j) dst[l * nb + j] = src[j * ldb + l];
  }
}

// Computes C's rows [i0, i0 + mb) x columns [j0, j1) over every k block in
// k order; j0 and j1 are multiples of kBlockN or n. A transposed A is packed
// once per k block and serves every column block of the range. With
// `write` (beta = 0) the first k block writes C and later blocks add to it.
void gemm_rows(Trans trans_a, Trans trans_b, index_t i0, index_t mb,
               index_t j0, index_t j1, index_t k, double alpha, const double* a,
               index_t lda, const double* b, index_t ldb, bool write,
               double* c, index_t ldc) {
  // The thread's workspace is created only when a lease needs it: creating
  // it on workers that lease nothing raised dense3-als-seq's peak RSS by
  // 32 MB, through glibc's heap rather than anything the GEMM holds.
  util::KernelWorkspace::Lease a_scratch;
  if (trans_a == Trans::kYes)
    a_scratch =
        util::KernelWorkspace::thread_default().lease(kBlockM * kBlockK);
  util::KernelWorkspace::Lease b_scratch;
  if (trans_b == Trans::kYes)
    b_scratch =
        util::KernelWorkspace::thread_default().lease(kBlockK * kBlockN);
  for (index_t l0 = 0; l0 < k; l0 += kBlockK) {
    const index_t kb = std::min(kBlockK, k - l0);
    const bool first = write && l0 == 0;
    if (trans_a == Trans::kYes)
      pack_at(mb, kb, a, lda, i0, l0, a_scratch.data());
    for (index_t jb = j0; jb < j1; jb += kBlockN) {
      const index_t nb = std::min(kBlockN, j1 - jb);
      const double* bblk;
      index_t bblk_ld;
      if (trans_b == Trans::kYes) {
        pack_b(kb, nb, b, ldb, trans_b, l0, jb, b_scratch.data());
        bblk = b_scratch.data();
        bblk_ld = nb;
      } else {
        bblk = b + l0 * ldb + jb;
        bblk_ld = ldb;
      }
      double* cblk = c + i0 * ldc + jb;
      if (trans_a == Trans::kYes)
        block_kernel<true>(mb, nb, kb, alpha, a_scratch.data(), kb, bblk,
                           bblk_ld, cblk, ldc, first);
      else
        block_kernel<false>(mb, nb, kb, alpha, a + i0 * lda + l0, lda, bblk,
                            bblk_ld, cblk, ldc, first);
    }
  }
}

}  // namespace

void gemm_raw(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
              double alpha, const double* a, index_t lda, const double* b,
              index_t ldb, double beta, double* c, index_t ldc) {
  PARPP_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  if (m == 0 || n == 0) return;

  // beta = 0 with work to do never reads C: each tile's first k block
  // writes it (gemm_rows). Every other beta scales C here first.
  const bool write = beta == 0.0 && k > 0 && alpha != 0.0;
  if (beta != 1.0 && !write) {
    for (index_t i = 0; i < m; ++i) {
      double* crow = c + i * ldc;
      if (beta == 0.0)
        std::fill(crow, crow + n, 0.0);
      else
        for (index_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  if (k == 0 || alpha == 0.0) return;

  // Each task owns disjoint C tiles: one 64-row M block over all of n, or,
  // when there are fewer M blocks than threads, one (M block, N block)
  // pair. A task runs every k block of its tiles in k order with the same
  // block kernels either way, so the split never changes a bit of C.
  // Transposed operands are repacked into each worker's thread-local
  // workspace; non-transposed A blocks are consumed in place.
  const bool parallel = m * n * k > (index_t{1} << 16);
  const int team = parallel && !omp_in_parallel() ? omp_get_max_threads() : 1;
  const index_t m_blocks = (m + kBlockM - 1) / kBlockM;
  const index_t n_split = m_blocks < team ? (n + kBlockN - 1) / kBlockN : 1;
  const index_t n_chunk = n_split > 1 ? kBlockN : n;
  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel if (parallel)
  {
    fence.enter();
#pragma omp for schedule(static) nowait
    for (index_t t = 0; t < m_blocks * n_split; ++t) {
      const index_t i0 = t / n_split * kBlockM;
      const index_t j0 = t % n_split * n_chunk;
      gemm_rows(trans_a, trans_b, i0, std::min(kBlockM, m - i0), j0,
                std::min(n, j0 + n_chunk), k, alpha, a, lda, b, ldb, write, c,
                ldc);
    }
    fence.leave();
  }
  fence.join();
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a, Trans trans_b) {
  const index_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const index_t ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const index_t kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const index_t n = trans_b == Trans::kNo ? b.cols() : b.rows();
  PARPP_CHECK(ka == kb, "matmul: inner dimension mismatch ", ka, " vs ", kb);
  Matrix c(m, n);
  gemm_raw(trans_a, trans_b, m, n, ka, 1.0, a.data(), a.cols(), b.data(),
           b.cols(), 0.0, c.data(), c.cols());
  return c;
}

Matrix gram(const Matrix& a, Profile* profile, util::KernelWorkspace* ws) {
  const index_t n = a.cols();
  const index_t m = a.rows();
  Matrix s(n, n);
  if (n == 0) return s;
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kOther, static_cast<double>(m) * n * n);

  // Per-thread upper-triangle accumulators drawn from the workspace pool,
  // merged by a barrier-synchronized binary tree: log2(T) parallel rounds
  // instead of the serialized O(T · R²) critical-section chain.
  util::KernelWorkspace& wsp =
      ws ? *ws : util::KernelWorkspace::thread_default();
  const int maxt = omp_get_max_threads();
  const index_t nn = n * n;
  auto slab = wsp.lease(static_cast<index_t>(maxt) * nn);
  double* locals = slab.data();
  std::fill(locals, locals + static_cast<index_t>(maxt) * nn, 0.0);

  util::OmpJoinFence fence;
  fence.fork();
#pragma omp parallel
  {
    fence.enter();
    const int tid = omp_get_thread_num();
    const int nthreads = omp_get_num_threads();
    double* local = locals + static_cast<index_t>(tid) * nn;
#pragma omp for schedule(static) nowait
    for (index_t i = 0; i < m; ++i) {
      const double* row = a.row(i);
      for (index_t j = 0; j < n; ++j) {
        const double v = row[j];
        if (v == 0.0) continue;
        double* lrow = local + j * n;
        for (index_t l = j; l < n; ++l) lrow[l] += v * row[l];
      }
    }
    for (int stride = 1; stride < nthreads; stride *= 2) {
      // Each reduction round reads slabs the previous round wrote on other
      // threads; publish/observe restate the barrier edge for TSan.
      fence.publish();
#pragma omp barrier
      fence.observe();
      if (tid % (2 * stride) == 0 && tid + stride < nthreads) {
        const double* other = locals + static_cast<index_t>(tid + stride) * nn;
        for (index_t j = 0; j < n; ++j)
          for (index_t l = j; l < n; ++l)
            local[j * n + l] += other[j * n + l];
      }
    }
    fence.leave();
  }
  fence.join();

  for (index_t j = 0; j < n; ++j)
    for (index_t l = j; l < n; ++l) s(j, l) = locals[j * n + l];
  for (index_t j = 0; j < n; ++j)
    for (index_t l = 0; l < j; ++l) s(j, l) = s(l, j);
  return s;
}

}  // namespace parpp::la
