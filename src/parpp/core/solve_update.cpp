#include "parpp/core/solve_update.hpp"

#include "parpp/la/spd_solve.hpp"

namespace parpp::core {

la::Matrix update_factor(const la::Matrix& gamma, const la::Matrix& mttkrp,
                         Profile* profile) {
  return la::solve_gram(gamma, mttkrp, profile);
}

}  // namespace parpp::core
