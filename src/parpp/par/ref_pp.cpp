#include "parpp/par/ref_pp.hpp"

#include <algorithm>
#include <map>

#include "parpp/core/pp_operators.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/tensor/mttv.hpp"

namespace parpp::par {

namespace {

/// Reference PP state: operators are globally reduced over the ranks
/// sharing each (i, j) slab pair, and every U(n,i) triggers its own
/// Reduce-Scatter.
class RefPp final : public PpKernels {
 public:
  RefPp(mpsim::Comm& comm, ParCpContext& ctx)
      : comm_(comm), ctx_(ctx), n_(ctx.order()),
        ops_(ctx.local_problem().make_pp_operators(
            ctx.factor_dist().slices(), nullptr)) {
    // Sub-communicators of ranks sharing both the i-slab and the j-slab:
    // the group over which the reference implementation reduces the
    // operator output. Built collectively, identical order on all ranks.
    const auto& grid = ctx.grid();
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        int color = grid.coord(i) * grid.dim(j) + grid.coord(j);
        int key = 0;
        for (int m = 0; m < grid.order(); ++m) {
          if (m == i || m == j) continue;
          key = key * grid.dim(m) + grid.coord(m);
        }
        pair_comms_.emplace(
            std::make_pair(i, j),
            comm_.split(color, key, PARPP_COMM_TAG("refpp-pair-split")));
      }
    }
  }

  void build() override {
    ops_->build(nullptr);  // no donor: the reference recomputes everything
    // "Reduction on the output tensor": All-Reduce every pair operator over
    // the ranks sharing its slabs — the dominant communication of
    // PP-init-ref (Table II).
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        auto& op = ops_->mutable_pair_op(i, j);
        const auto& pc = pair_comms_.at(std::make_pair(i, j));
        pc.allreduce_sum(op.data.data(), op.data.size(),
                         PARPP_COMM_TAG("refpp-pairop-allreduce"));
      }
    }
    a_p_slice_.clear();
    for (int m = 0; m < n_; ++m)
      a_p_slice_.push_back(ctx_.factor_dist().slice(m));
  }

  /// One approximated sweep with per-correction collectives.
  void approx_sweep() override {
    for (int j = 0; j < n_; ++j) {
      // Base term: M_p(n) local + its own Reduce-Scatter.
      la::Matrix m_q =
          ctx_.factor_dist().reduce_scatter(j, ops_->mttkrp_p(j));
      // Each first-order correction is reduced separately (N-1 extra
      // collectives per mode — the N^2 pattern of the reference).
      for (int i = 0; i < n_; ++i) {
        if (i == j) continue;
        const auto& op = ops_->pair_op(std::min(j, i), std::max(j, i));
        const auto it = std::find(op.modes.begin(), op.modes.end(), i);
        const int pos = static_cast<int>(it - op.modes.begin());
        la::Matrix d_slice = ctx_.factor_dist().slice(i);
        d_slice.axpy(-1.0, a_p_slice_[static_cast<std::size_t>(i)]);
        // CTF-style general contraction redistributes its inputs before
        // multiplying: model the dA redistribution over the operator's
        // owner group (contents are identical within the group, so the
        // broadcast is value-preserving while charging the alpha-beta
        // cost the reference implementation pays).
        const auto& pc_in =
            pair_comms_.at(std::make_pair(std::min(j, i), std::max(j, i)));
        pc_in.bcast(d_slice.data(), d_slice.size(), 0,
                    PARPP_COMM_TAG("refpp-da-bcast"));
        tensor::DenseTensor u = tensor::mttv(op.data, pos, d_slice);
        la::Matrix u_m(u.extent(0), u.extent(1));
        std::copy(u.data(), u.data() + u.size(), u_m.data());
        // The operator was already summed over the pair group; dividing by
        // the redundancy keeps each rank's contribution correctly weighted
        // in the subsequent reduction.
        const auto& pc =
            pair_comms_.at(std::make_pair(std::min(j, i), std::max(j, i)));
        u_m.scale(1.0 / static_cast<double>(pc.size()));
        la::Matrix u_q = ctx_.factor_dist().reduce_scatter(j, u_m);
        m_q.axpy(1.0, u_q);
      }
      ctx_.apply_pp_mttkrp(j, m_q);
    }
  }

 private:
  mpsim::Comm& comm_;
  ParCpContext& ctx_;
  int n_;
  std::unique_ptr<core::PpOperators> ops_;
  std::map<std::pair<int, int>, mpsim::Comm> pair_comms_;
  std::vector<la::Matrix> a_p_slice_;
};

}  // namespace

PpKernelTimings time_ref_pp_kernels(const tensor::DenseTensor& global_t,
                                    const solver::SolverSpec& spec,
                                    int sweeps) {
  return time_kernels(global_t, spec, sweeps,
                      [](mpsim::Comm& comm, ParCpContext& ctx) {
                        return std::make_unique<RefPp>(comm, ctx);
                      });
}

}  // namespace parpp::par
