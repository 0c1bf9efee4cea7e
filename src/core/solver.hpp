// solver.hpp — conjugate-gradient inversion of the even-odd preconditioned
// staggered operator: the workload Dslash performance actually buys
// (MILC's su3_rhmd_hisq spends most of its time here).
#pragma once

#include <functional>

#include "core/cg.hpp"
#include "core/staggered_operator.hpp"

namespace milc {

struct CgOptions {
  double rel_tol = 1e-8;  ///< target ||r|| / ||b||
  int max_iterations = 5000;
};

/// Solve A x = b by CG for any Hermitian-positive-definite `apply`.
/// `x` is used as the initial guess and holds the solution on return;
/// `true_relative_residual` is ||A x - b|| / ||b|| through `apply`.
CgResult cg_solve(const std::function<void(const ColorField&, ColorField&)>& apply,
                  const ColorField& b, ColorField& x, const LatticeGeom& geom,
                  const CgOptions& opts = {});

/// Convenience: solve (m^2 - D_eo D_oe) x = b on even sites.
CgResult cg_solve(const StaggeredOperator& op, const ColorField& b, ColorField& x,
                  const CgOptions& opts = {});

}  // namespace milc
