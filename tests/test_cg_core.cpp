// test_cg_core.cpp — the one CG recursion (core/cg.hpp) on every field type
// the repository solves over: ColorField, FloatColorField and WilsonField.
//
// The oracle is a textbook CG written out here, independently of the core:
// the core must reproduce its iteration count, its residual and every bit of
// its solution.  The hooks are tested on the staggered operator: an observer
// that stops or replaces the state, an apply that fails, a breakdown, the
// zero-source short-circuit and the true residual.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/cg.hpp"
#include "core/precision.hpp"
#include "core/staggered_operator.hpp"
#include "wilson/wilson_solver.hpp"

namespace milc {
namespace {

using wilson::WilsonField;
using wilson::WilsonOperator;

struct Outcome {
  int iterations = 0;
  double relative_residual = 0.0;
};

/// Textbook CG for A x = b from the caller's x (zero_guess: from x = 0
/// without applying A), until ||r|| <= rel_tol ||b|| or max_iterations.
template <class Field, class Apply>
Outcome textbook_cg(const Apply& apply, const Field& b, Field& x, double rel_tol,
                    int max_iterations, bool zero_guess = false) {
  Field r = b;
  Field Ap = b;
  if (zero_guess) {
    x.zero();
  } else {
    apply(x, Ap);
    axpy(-1.0, Ap, r);
  }
  Field p = r;
  const double b2 = norm2(b);
  double rr = norm2(r);
  int k = 0;
  while (k < max_iterations && rr > rel_tol * rel_tol * b2) {
    apply(p, Ap);
    const double alpha = rr / dot(p, Ap).re;
    axpy(alpha, p, x);
    axpy(-alpha, Ap, r);
    const double rr_next = norm2(r);
    xpay(r, rr_next / rr, p);
    rr = rr_next;
    ++k;
  }
  return {k, std::sqrt(rr / b2)};
}

template <class Field>
bool same_bits(const Field& a, const Field& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(a[0])) == 0;
}

GaugeConfiguration random_gauge(const LatticeGeom& geom, std::uint64_t seed) {
  GaugeConfiguration cfg(geom);
  cfg.fill_random(seed);
  return cfg;
}

/// The staggered normal operator m^2 - D_eo D_oe at 6^4 and a random source.
struct Staggered {
  LatticeGeom geom{6};
  GaugeConfiguration cfg = random_gauge(geom, 5);
  StaggeredOperator op{geom, cfg, 0.4};
  ColorField b{geom, Parity::Even};
  Staggered() { b.fill_random(6); }
  void operator()(const ColorField& in, ColorField& out) const { op.apply_normal(in, out); }
};

TEST(CgCore, ColorFieldMatchesTheTextbookRecursion) {
  const Staggered A;
  for (const bool warm : {false, true}) {
    ColorField x(A.geom, Parity::Even);
    if (warm) x.fill_random(7);
    ColorField x_ref = x;
    const CgResult res = cg::solve(A, A.b, x, 1e-10, 500);
    const Outcome ref = textbook_cg(A, A.b, x_ref, 1e-10, 500);
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.iterations, 10);
    EXPECT_EQ(res.iterations, ref.iterations);
    EXPECT_EQ(res.relative_residual, ref.relative_residual);
    EXPECT_TRUE(same_bits(x, x_ref)) << "warm guess: " << warm;
  }
}

TEST(CgCore, FloatColorFieldMatchesTheTextbookRecursion) {
  // The mixed-precision inner solve: float fields, zero guess, no initial apply.
  const LatticeGeom geom(6);
  const GaugeConfiguration cfg = random_gauge(geom, 8);
  const GaugeView ve(geom, cfg, Parity::Even), vo(geom, cfg, Parity::Odd);
  const NeighborTable ne(geom, Parity::Even), no(geom, Parity::Odd);
  const DeviceGaugeLayout ge(ve), go(vo);
  const FloatDslash feo(ge, ne), foe(go, no);
  const float m2 = 0.25F;
  FloatColorField tmp(geom, Parity::Odd);
  int applies = 0;
  auto apply = [&](const FloatColorField& in, FloatColorField& out) {
    ++applies;
    foe.apply(in, tmp);
    feo.apply(tmp, out);
    for (std::int64_t s = 0; s < out.size(); ++s) {
      for (int c = 0; c < kColors; ++c) {
        out[s].c[c].re = m2 * in[s].c[c].re - out[s].c[c].re;
        out[s].c[c].im = m2 * in[s].c[c].im - out[s].c[c].im;
      }
    }
  };
  ColorField b64(geom, Parity::Even);
  b64.fill_random(9);
  const FloatColorField b(b64);
  b64.fill_random(10);
  FloatColorField x(b64);  // garbage the zero guess must discard
  FloatColorField x_ref(geom, Parity::Even);
  const CgResult res = cg::solve(apply, b, x, 1e-5, 300, cg::Guess::zero);
  EXPECT_EQ(applies, res.iterations) << "the zero guess costs no apply";
  const Outcome ref = textbook_cg(apply, b, x_ref, 1e-5, 300, /*zero_guess=*/true);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 5);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.relative_residual, ref.relative_residual);
  EXPECT_TRUE(same_bits(x, x_ref));
}

TEST(CgCore, WilsonFieldMatchesTheTextbookRecursion) {
  // The normal equations S^dag S x = S^dag b of the Wilson Schur complement.
  const LatticeGeom geom(4);
  const GaugeConfiguration cfg = random_gauge(geom, 131);
  const WilsonOperator op(geom, cfg, 0.3);
  WilsonField t(geom, Parity::Even);
  auto normal = [&](const WilsonField& in, WilsonField& out) {
    op.apply_schur(in, t);
    op.apply_schur_dagger(t, out);
  };
  WilsonField b(geom, Parity::Even);
  b.fill_random(4);
  WilsonField x(geom, Parity::Even), x_ref(geom, Parity::Even);
  const CgResult res = cg::solve(normal, b, x, 1e-9, 4000);
  const Outcome ref = textbook_cg(normal, b, x_ref, 1e-9, 4000);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 10);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.relative_residual, ref.relative_residual);
  EXPECT_TRUE(same_bits(x, x_ref));
}

TEST(CgCore, ObserverStopsTheSolve) {
  const Staggered A;
  ColorField x(A.geom, Parity::Even), x_ref(A.geom, Parity::Even);
  int seen = 0;
  const CgResult res = cg::solve(A, A.b, x, 1e-10, 500, cg::Guess::given,
                                 [&seen](cg::State<ColorField>& s) {
                                   EXPECT_EQ(s.iter, seen++) << "called once before each step";
                                   return s.iter == 7 ? cg::Next::stop : cg::Next::step;
                                 });
  EXPECT_EQ(seen, 8);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 7);
  const Outcome ref = textbook_cg(A, A.b, x_ref, 1e-10, 7);
  EXPECT_EQ(res.relative_residual, ref.relative_residual);
  EXPECT_TRUE(same_bits(x, x_ref));
}

TEST(CgCore, ObserverReplacesTheState) {
  // A residual replacement after 3 steps: the observer rebuilds r = b - A x
  // and p = r, and the loop re-enters without stepping.  The iteration count
  // carries on, and the trajectory is a fresh textbook solve from x_3.
  const Staggered A;
  ColorField x(A.geom, Parity::Even), x_ref(A.geom, Parity::Even);
  bool replaced = false;
  const CgResult res = cg::solve(A, A.b, x, 1e-10, 500, cg::Guess::given,
                                 [&](cg::State<ColorField>& s) {
                                   if (s.iter != 3 || replaced) return cg::Next::step;
                                   replaced = true;
                                   EXPECT_TRUE(s.init(A, A.b));
                                   return cg::Next::replaced;
                                 });
  EXPECT_TRUE(replaced);
  (void)textbook_cg(A, A.b, x_ref, 1e-10, 3);
  const Outcome ref = textbook_cg(A, A.b, x_ref, 1e-10, 497);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 3 + ref.iterations);
  EXPECT_EQ(res.relative_residual, ref.relative_residual);
  EXPECT_TRUE(same_bits(x, x_ref));
}

TEST(CgCore, FailedApplyReachesTheFailureCallback) {
  const Staggered A;
  ColorField b = A.b;
  ColorField x(A.geom, Parity::Even), x_ref(A.geom, Parity::Even);
  int calls = 0;
  // The initial apply plus four steps succeed; the fifth step's apply fails.
  auto flaky = [&](const ColorField& in, ColorField& out) {
    if (++calls == 6) return false;
    A(in, out);
    return true;
  };
  cg::State<ColorField> s(x, b);
  ASSERT_TRUE(s.init(flaky, b));
  int failures = 0;
  cg::iterate(s, flaky, 500, [](cg::State<ColorField>&) { return cg::Next::step; },
              [&](cg::State<ColorField>& st, cg::Failure f) {
                ++failures;
                EXPECT_EQ(f, cg::Failure::apply);
                EXPECT_EQ(st.iter, 4);
                return cg::Next::stop;
              });
  EXPECT_EQ(failures, 1);
  const Outcome ref = textbook_cg(A, b, x_ref, 1e-10, 4);
  EXPECT_EQ(std::sqrt(s.rr / norm2(b)), ref.relative_residual);
  EXPECT_TRUE(same_bits(x, x_ref)) << "a failed step leaves the iterate alone";

  // The plain solve stops at a failure, including one in the initial apply.
  calls = 0;
  ColorField y(A.geom, Parity::Even);
  const CgResult res = cg::solve(flaky, b, y, 1e-10, 500);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 4);
  calls = 5;
  const CgResult at_init = cg::solve(flaky, b, y, 1e-10, 500);
  EXPECT_FALSE(at_init.converged);
  EXPECT_EQ(at_init.iterations, 0);
}

TEST(CgCore, BreakdownReachesTheFailureCallback) {
  // A = -I is not positive definite: the first step sees <p, Ap> < 0 and
  // must not divide by it.
  const Staggered A;
  ColorField x(A.geom, Parity::Even);
  auto negative = [](const ColorField& in, ColorField& out) {
    out = in;
    scale(-1.0, out);
  };
  cg::State<ColorField> s(x, A.b);
  s.init_zero(A.b);
  cg::Failure seen = cg::Failure::none;
  cg::iterate(s, negative, 10, [](cg::State<ColorField>&) { return cg::Next::step; },
              [&seen](cg::State<ColorField>&, cg::Failure f) {
                seen = f;
                return cg::Next::stop;
              });
  EXPECT_EQ(seen, cg::Failure::breakdown);
  EXPECT_EQ(s.iter, 0);
  EXPECT_EQ(norm2(x), 0.0);
}

TEST(CgCore, ZeroSourceShortCircuits) {
  const Staggered A;
  const ColorField b(A.geom, Parity::Even);  // all zeros
  ColorField x(A.geom, Parity::Even);
  x.fill_random(12);
  int applies = 0;
  auto counted = [&](const ColorField& in, ColorField& out) {
    ++applies;
    A(in, out);
  };
  const CgResult res = cg::solve(counted, b, x, 1e-10, 500);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.relative_residual, 0.0);
  EXPECT_EQ(norm2(x), 0.0);
  // The true residual of a zero source is 0 and costs no apply either.
  ColorField Ax(A.geom, Parity::Even);
  EXPECT_EQ(cg::true_relative_residual(counted, b, x, Ax), 0.0);
  EXPECT_EQ(applies, 0);
}

TEST(CgCore, TrueResidualIsOneApplyAgainstTheSource) {
  const Staggered A;
  ColorField x(A.geom, Parity::Even), Ax(A.geom, Parity::Even);
  x.fill_random(13);
  int applies = 0;
  auto counted = [&](const ColorField& in, ColorField& out) {
    ++applies;
    A(in, out);
  };
  const double rel = cg::true_relative_residual(counted, A.b, x, Ax);
  ColorField r = A.b, Ax_ref(A.geom, Parity::Even);
  A(x, Ax_ref);
  axpy(-1.0, Ax_ref, r);
  EXPECT_EQ(applies, 1);
  EXPECT_EQ(rel, std::sqrt(norm2(r) / norm2(A.b)));
}

}  // namespace
}  // namespace milc
