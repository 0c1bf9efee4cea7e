// Wilson Schur-complement solver: operator identities and CGNE convergence.
#include <gtest/gtest.h>

#include "wilson/wilson_solver.hpp"

namespace milc::wilson {
namespace {

struct Fixture {
  LatticeGeom geom{4};
  GaugeConfiguration cfg{geom};
  Fixture() { cfg.fill_random(131); }
};

TEST(WilsonOperator, SchurDaggerIsTheAdjoint) {
  Fixture f;
  WilsonOperator op(f.geom, f.cfg, 0.2);
  WilsonField x(f.geom, Parity::Even), y(f.geom, Parity::Even);
  x.fill_random(1);
  y.fill_random(2);
  WilsonField Sx(f.geom, Parity::Even), Sdy(f.geom, Parity::Even);
  op.apply_schur(x, Sx);
  op.apply_schur_dagger(y, Sdy);
  // <y, S x> == <S^dag y, x> == conj(<x, S^dag y>)
  const dcomplex a = dot(y, Sx);
  const dcomplex b = dot(x, Sdy);
  EXPECT_NEAR(a.re, b.re, 1e-8);
  EXPECT_NEAR(a.im, -b.im, 1e-8);
}

TEST(WilsonOperator, SchurReducesToDiagonalOnZeroHops) {
  // With unit gauge links and a constant field, D psi relates simply; at
  // minimum the diagonal part must dominate for heavy mass.
  Fixture f;
  WilsonOperator op(f.geom, f.cfg, 10.0);
  WilsonField x(f.geom, Parity::Even), Sx(f.geom, Parity::Even);
  x.fill_random(3);
  op.apply_schur(x, Sx);
  // S = 14 I - (1/56) D_eo D_oe: the diagonal term carries ~99% of the norm.
  WilsonField diag = x;
  scale(op.diag(), diag);
  axpy(-1.0, Sx, diag);
  EXPECT_LT(norm2(diag), 0.05 * norm2(Sx));
}

TEST(WilsonSolver, ConvergesWithTrueResidual) {
  Fixture f;
  WilsonOperator op(f.geom, f.cfg, 0.3);
  WilsonField b(f.geom, Parity::Even), x(f.geom, Parity::Even);
  b.fill_random(4);
  x.zero();
  const CgResult r = solve_schur_cg(op, b, x, 1e-9, 4000);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.true_relative_residual, 1e-7);
  EXPECT_GT(r.iterations, 1);
}

TEST(WilsonSolver, HeavierMassConvergesFaster) {
  Fixture f;
  WilsonField b(f.geom, Parity::Even);
  b.fill_random(5);
  WilsonOperator light(f.geom, f.cfg, 0.05), heavy(f.geom, f.cfg, 2.0);
  WilsonField x1(f.geom, Parity::Even), x2(f.geom, Parity::Even);
  x1.zero();
  x2.zero();
  const auto rl = solve_schur_cg(light, b, x1, 1e-8, 8000);
  const auto rh = solve_schur_cg(heavy, b, x2, 1e-8, 8000);
  ASSERT_TRUE(rl.converged);
  ASSERT_TRUE(rh.converged);
  EXPECT_LT(rh.iterations, rl.iterations);
}

TEST(WilsonSolver, ZeroRhs) {
  Fixture f;
  WilsonOperator op(f.geom, f.cfg, 0.5);
  WilsonField b(f.geom, Parity::Even), x(f.geom, Parity::Even);
  b.zero();
  x.fill_random(6);
  const auto r = solve_schur_cg(op, b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(norm2(x), 0.0);
}

TEST(WilsonBlas, AxpyXpayScale) {
  Fixture f;
  WilsonField x(f.geom, Parity::Even), y(f.geom, Parity::Even);
  x.fill_random(7);
  y.fill_random(8);
  const double n_x = norm2(x);

  WilsonField z = x;
  scale(2.0, z);
  EXPECT_NEAR(norm2(z), 4.0 * n_x, 1e-6 * n_x);

  WilsonField w = y;
  axpy(1.0, x, w);
  axpy(-1.0, x, w);
  EXPECT_NEAR(norm2(w) / norm2(y), 1.0, 1e-10);

  WilsonField v = y;
  xpay(x, 0.0, v);
  EXPECT_LT(max_abs_diff(v, x), 1e-15);
}

}  // namespace
}  // namespace milc::wilson
