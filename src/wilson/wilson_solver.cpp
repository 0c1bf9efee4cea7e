#include "wilson/wilson_solver.hpp"

namespace milc::wilson {

WilsonOperator::WilsonOperator(const LatticeGeom& geom, const GaugeConfiguration& cfg,
                               double mass)
    : geom_(&geom),
      mass_(mass),
      view_e_(geom, cfg, Parity::Even),
      view_o_(geom, cfg, Parity::Odd),
      dev_e_(view_e_),
      dev_o_(view_o_),
      nbr_e_(geom, Parity::Even),
      nbr_o_(geom, Parity::Odd),
      deo_(dev_e_, nbr_e_),
      doe_(dev_o_, nbr_o_),
      tmp_o_(geom, Parity::Odd),
      tmp_e_(geom, Parity::Even) {}

void WilsonOperator::dslash_eo(const WilsonField& in, WilsonField& out) const {
  deo_.apply(in, out);
}
void WilsonOperator::dslash_oe(const WilsonField& in, WilsonField& out) const {
  doe_.apply(in, out);
}

void WilsonOperator::apply_schur(const WilsonField& in, WilsonField& out) const {
  // out = (m+4) in - 1/(4(m+4)) D_eo D_oe in
  dslash_oe(in, tmp_o_);
  dslash_eo(tmp_o_, out);
  scale(-1.0 / (4.0 * diag()), out);
  axpy(diag(), in, out);
}

void WilsonOperator::apply_schur_dagger(const WilsonField& in, WilsonField& out) const {
  // S^dagger = g5 S g5.
  tmp_e_ = in;
  apply_gamma5(tmp_e_);
  apply_schur(tmp_e_, out);
  apply_gamma5(out);
}

void axpy(double alpha, const WilsonField& x, WilsonField& y) {
  for (std::int64_t i = 0; i < x.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] += alpha * x[i].s[d];
  }
}

void xpay(const WilsonField& x, double alpha, WilsonField& y) {
  for (std::int64_t i = 0; i < x.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] = x[i].s[d] + alpha * y[i].s[d];
  }
}

void scale(double alpha, WilsonField& y) {
  for (std::int64_t i = 0; i < y.size(); ++i) {
    for (int d = 0; d < kSpins; ++d) y[i].s[d] = alpha * y[i].s[d];
  }
}

CgResult solve_schur_cg(const WilsonOperator& op, const WilsonField& b, WilsonField& x,
                        double rel_tol, int max_iterations) {
  const LatticeGeom& g = op.geom();
  // Normal equations: N x = S^dag S x = S^dag b.
  WilsonField rhs(g, Parity::Even), t(g, Parity::Even);
  op.apply_schur_dagger(b, rhs);
  CgResult res = cg::solve(
      [&](const WilsonField& in, WilsonField& out) {
        op.apply_schur(in, t);
        op.apply_schur_dagger(t, out);
      },
      rhs, x, rel_tol, max_iterations);
  // True residual of the original system S x = b.
  res.true_relative_residual = cg::true_relative_residual(
      [&op](const WilsonField& in, WilsonField& out) { op.apply_schur(in, out); }, b, x, t);
  return res;
}

}  // namespace milc::wilson
