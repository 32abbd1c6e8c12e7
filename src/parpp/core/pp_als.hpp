// Options of the PP phases of the sweep loop (Algorithm 2 with the
// Algorithm 4 subroutine, par::run_cp_als), read by the pp and pp-nncp
// methods.
#pragma once

namespace parpp::core {

struct PpOptions {
  /// PP tolerance epsilon: the approximated step runs while every factor's
  /// relative change since the snapshot stays below it.
  double pp_tol = 0.1;
  /// Disable the second-order V(n) correction (ablation).
  bool second_order = true;
  /// Cap on consecutive PP-approximated sweeps inside one PP phase,
  /// guarding against a stalled inner loop (generous by default).
  int max_pp_sweeps_per_phase = 500;
};

}  // namespace parpp::core
