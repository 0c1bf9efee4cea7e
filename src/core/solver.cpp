#include "core/solver.hpp"

namespace milc {

CgResult cg_solve(const std::function<void(const ColorField&, ColorField&)>& apply,
                  const ColorField& b, ColorField& x, const LatticeGeom& geom,
                  const CgOptions& opts) {
  CgResult res = cg::solve(apply, b, x, opts.rel_tol, opts.max_iterations);
  ColorField Ax(geom, b.parity());
  res.true_relative_residual = cg::true_relative_residual(apply, b, x, Ax);
  return res;
}

CgResult cg_solve(const StaggeredOperator& op, const ColorField& b, ColorField& x,
                  const CgOptions& opts) {
  return cg_solve(
      [&op](const ColorField& in, ColorField& out) { op.apply_normal(in, out); }, b, x,
      op.geom(), opts);
}

}  // namespace milc
