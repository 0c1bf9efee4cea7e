// cg.hpp — the one conjugate-gradient recursion.  cg_solve (ColorField), the
// Wilson CGNE (WilsonField), the float inner solves of the mixed-precision
// solvers (FloatColorField) and the sharded solver all instantiate it; the
// sharded solver's recovery tiers are its hooks (multidev/sharded_cg.cpp).
//
// A solver supplies three hooks:
//  * the apply `(const Field& in, Field& out)`, returning bool when it can
//    fail (false: `out` is unusable) or void when it cannot;
//  * an observer `(State&) -> Next`, called before every step: Next::step
//    lets the step run, Next::stop ends the solve, Next::replaced says the
//    observer rewrote the state and the loop re-enters without stepping;
//  * a failure callback `(State&, Failure) -> Next` for a failed apply or a
//    pAp <= 0 breakdown.
//
// Field needs norm2, dot(a, b).re, axpy(a, x, y) (y += a x), xpay(x, a, y)
// (y = x + a y), zero() and copying, found by argument-dependent lookup.
#pragma once

#include <cmath>
#include <type_traits>

namespace milc {

/// Outcome of a CG solve.
struct CgResult {
  bool converged = false;
  int iterations = 0;
  double relative_residual = 0.0;  ///< recursion residual ||r|| / ||b||
  /// True residual recomputed at the end (guards against drift of the
  /// recursion residual); the solver names the system it measures.
  double true_relative_residual = 0.0;
};

namespace cg {

enum class Next { step, stop, replaced };
enum class Failure { none, apply, breakdown };
/// The start: the caller's x (r = b - A x, one apply) or zero (no apply).
enum class Guess { given, zero };

/// Runs `apply(in, out)`; an apply that returns void never fails.
template <class Apply, class Field>
bool applied(Apply& apply, const Field& in, Field& out) {
  if constexpr (std::is_void_v<std::invoke_result_t<Apply&, const Field&, Field&>>) {
    apply(in, out);
    return true;
  } else {
    return apply(in, out);
  }
}

/// The recursion state.  `x` is the caller's iterate; r, p and Ap are
/// allocated once, shaped like the source, and live as long as the state.
template <class Field>
struct State {
  Field& x;
  Field r, p, Ap;
  double rr = 0.0;  ///< |r|^2
  int iter = 0;     ///< completed steps

  State(Field& x_, const Field& b) : x(x_), r(b), p(b), Ap(b) {}

  /// r = b - A x, p = r.  False when the apply failed (only Ap written).
  template <class Apply>
  bool init(Apply&& apply, const Field& b) {
    if (!applied(apply, x, Ap)) return false;
    r = b;
    axpy(-1.0, Ap, r);
    p = r;
    rr = norm2(r);
    return true;
  }

  /// The zero guess: x = 0, r = p = b, with no apply.
  void init_zero(const Field& b) {
    x.zero();
    r = b;
    p = b;
    rr = norm2(r);
  }

  /// One CG step: Ap = A p; alpha = rr / <p, Ap>; x += alpha p;
  /// r -= alpha Ap; p = r + (rr_new / rr) p.  A failed apply or
  /// <p, Ap> <= 0 (not HPD, or corrupted state) leaves all but Ap unchanged.
  template <class Apply>
  Failure step(Apply&& apply) {
    if (!applied(apply, p, Ap)) return Failure::apply;
    const double pAp = dot(p, Ap).re;
    if (!(pAp > 0.0)) return Failure::breakdown;
    const double alpha = rr / pAp;
    axpy(alpha, p, x);
    axpy(-alpha, Ap, r);
    const double rr_new = norm2(r);
    xpay(r, rr_new / rr, p);
    rr = rr_new;
    ++iter;
    return Failure::none;
  }
};

/// The loop: while fewer than `max_iterations` steps completed, consult the
/// observer, then step; a failed step asks `on_failure` how to go on.
template <class Field, class Apply, class Observe, class OnFailure>
void iterate(State<Field>& s, Apply&& apply, int max_iterations, Observe&& observe,
             OnFailure&& on_failure) {
  while (s.iter < max_iterations) {
    const Next next = observe(s);
    if (next == Next::stop) return;
    if (next == Next::replaced) continue;
    const Failure f = s.step(apply);
    if (f != Failure::none && on_failure(s, f) == Next::stop) return;
  }
}

/// Observer of a solve that only converges.
struct Proceed {
  Next operator()(const auto&) const { return Next::step; }
};

/// The plain solve of A x = b to ||r|| <= rel_tol ||b||; a failed step ends
/// it.  A zero source sets x = 0 and converges with no apply.  `observe`
/// runs before every step that convergence has not already ruled out.  The
/// true residual is left to the caller, who knows which system it measures.
template <class Field, class Apply, class Observe = Proceed>
CgResult solve(Apply&& apply, const Field& b, Field& x, double rel_tol, int max_iterations,
               Guess guess = Guess::given, Observe&& observe = {}) {
  CgResult res;
  const double b2 = norm2(b);
  if (b2 == 0.0) {
    x.zero();
    res.converged = true;
    return res;
  }
  State<Field> s(x, b);
  if (guess == Guess::zero) {
    s.init_zero(b);
  } else if (!s.init(apply, b)) {
    return res;
  }
  const double target = rel_tol * rel_tol * b2;
  iterate(
      s, apply, max_iterations,
      [&](State<Field>& st) { return st.rr > target ? observe(st) : Next::stop; },
      [](State<Field>&, Failure) { return Next::stop; });
  res.iterations = s.iter;
  res.relative_residual = std::sqrt(s.rr / b2);
  res.converged = s.rr <= target;
  return res;
}

/// |b - Ax|^2 from an applied Ax: the true-residual and audit form.
template <class Field>
double residual_norm2(const Field& b, const Field& Ax) {
  Field t = b;
  axpy(-1.0, Ax, t);
  return norm2(t);
}

/// ||b - A x|| / ||b|| through one apply into `Ax`: the true residual a
/// solver reports.  A zero source is solved exactly by x = 0, with no apply.
template <class Field, class Apply>
double true_relative_residual(Apply&& apply, const Field& b, const Field& x, Field& Ax) {
  const double b2 = norm2(b);
  if (b2 == 0.0) return 0.0;
  apply(x, Ax);
  return std::sqrt(residual_norm2(b, Ax) / b2);
}

}  // namespace cg
}  // namespace milc
