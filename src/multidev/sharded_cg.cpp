#include "multidev/sharded_cg.hpp"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <utility>

#include "core/dslash_ref.hpp"
#include "dsan/check.hpp"
#include "tune/session.hpp"

namespace milc::multidev {

namespace {

std::uint64_t field_sum(const ColorField& f) { return fnv1a(f.data(), f.bytes()); }

/// A consistent solver state: everything needed to replay the CG recursion
/// from iteration `iter`.  Snapshots live in host memory that is *not*
/// registered as a corruption target (checkpoint storage is assumed
/// ECC-clean / on stable storage), but each field still carries a byte
/// checksum so a torn restore is detected rather than trusted.
struct Snapshot {
  ColorField x, r, p;
  double rr = 0.0;
  int iter = 0;
  std::uint64_t sum_x = 0, sum_r = 0, sum_p = 0;
  bool valid = false;

  void take(const cg::State<ColorField>& s) {
    x = s.x;
    r = s.r;
    p = s.p;
    rr = s.rr;
    iter = s.iter;
    sum_x = field_sum(x);
    sum_r = field_sum(r);
    sum_p = field_sum(p);
    valid = true;
  }

  void load(cg::State<ColorField>& s) const {
    s.x = x;
    s.r = r;
    s.p = p;
    s.rr = rr;
    s.iter = iter;
  }

  [[nodiscard]] bool intact() const {
    return valid && field_sum(x) == sum_x && field_sum(r) == sum_r && field_sum(p) == sum_p;
  }
};

faultsim::MemRegion region_of(const ColorField& f) {
  return {reinterpret_cast<std::uint64_t>(f.data()), f.bytes()};
}

/// ABFT tolerance floor per wire format: a reduced wire rounds ghost-site
/// values on every apply, so the Hermiticity identity holds only up to the
/// wire epsilon (times the boundary fraction) instead of fp64 roundoff.
/// The fp64 floor is 0, leaving the configured tolerance untouched.
double wire_abft_floor(SpinorWire w) {
  switch (w) {
    case SpinorWire::fp64: return 0.0;
    case SpinorWire::fp32: return 1e-5;
    case SpinorWire::fp16: return 5e-2;
  }
  return 0.0;
}

}  // namespace

std::string ShardedCgResult::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "sharded-cg: %s%s in %d iters (rel %.3e true %.3e) | applies %d "
                "(recomputes %d, reliable %d) checkpoints %d restarts %d failovers %d | "
                "grid %s | faults %zu recovery %.1f us%s",
                cg.converged ? "converged" : "NOT converged",
                certified ? " (certified)" : "", cg.iterations, cg.relative_residual,
                cg.true_relative_residual, applies, recomputes, reliable_updates,
                checkpoints_taken, restarts, failovers_observed, final_grid.label().c_str(),
                faults.size(), recovery_us,
                cancelled ? " | CANCELLED" : (recovered_all ? "" : " | RECOVERY EXHAUSTED"));
  return buf;
}

ShardedCgSolver::ShardedCgSolver(const Coords& dims, std::uint64_t gauge_seed, double mass,
                                 PartitionGrid grid, ShardedCgConfig cfg)
    : mass_(mass),
      grid_(grid),
      cfg_(std::move(cfg)),
      problem_o_(dims, gauge_seed, Parity::Odd),
      problem_e_(dims, gauge_seed, Parity::Even) {
  // Warm-start adoption (lookup-only; see the header).  The key matches
  // what MultiDeviceRunner::run_tuned records for the even-parity problem.
  if (tune::TuneSession* sess = tune::TuneSession::current(); sess != nullptr) {
    const tune::TuneEntry* hit = sess->lookup(runner_.tune_key(problem_e_, request(cfg_.wire)));
    if (hit != nullptr && hit->local_size > 0) cfg_.local_size = hit->local_size;
  }
}

ShardedCgSolver::ShardedCgSolver(int L, std::uint64_t gauge_seed, double mass,
                                 PartitionGrid grid, ShardedCgConfig cfg)
    : ShardedCgSolver(Coords{L, L, L, L}, gauge_seed, mass, grid, std::move(cfg)) {}

MultiDevRequest ShardedCgSolver::request(const WireFormat& wire) const {
  MultiDevRequest mreq;
  mreq.grid = grid_;
  mreq.req.strategy = cfg_.strategy;
  mreq.req.order = cfg_.order;
  mreq.req.local_size = cfg_.local_size;
  mreq.topo = cfg_.topo;
  mreq.wire = wire;
  mreq.xcfg = cfg_.xcfg;
  mreq.mode = minisycl::ExecMode::functional;
  mreq.rejoin_grid = rejoin_grid_;
  mreq.rejoin_what = rejoin_what_;
  return mreq;
}

bool ShardedCgSolver::run_dslash(DslashProblem& problem, std::unique_ptr<ShardPlan>& plan,
                                 ShardedCgResult* res, const WireFormat& wire) {
  const MultiDevResult mres = runner_.run(problem, request(wire), plan);
  if (res != nullptr) {
    res->recovery_us += mres.recovery_us;
    res->spares_consumed += mres.spares_consumed;
    res->rejoins += mres.rejoins;
    res->capacity_restored += mres.capacity_restored;
    res->rereplicated_bytes += mres.rereplicated_bytes;
    res->rereplication_us += mres.rereplication_us;
    if (!mres.failovers.empty()) {
      res->failovers_observed += static_cast<int>(mres.failovers.size());
      for (const FailoverEvent& f : mres.failovers) {
        res->events.push_back({0, "failover", f.from.label() + " -> " + f.to.label() +
                                                  " (" + f.reason + ")"});
      }
    }
  }
  if (!mres.failovers.empty()) {
    // Adopt the surviving grid for every subsequent apply; the caller
    // restores the last snapshot and replays on it.
    const PartitionGrid before = grid_;
    grid_ = mres.final_grid;
    failover_seen_ = true;
    if (rejoin_grid_.total() > 1 && grid_.total() >= rejoin_grid_.total()) {
      // A live rejoin restored the abandoned capacity mid-solve.
      rejoin_grid_ = PartitionGrid{};
      rejoin_what_.clear();
    } else if (grid_.total() < before.total() && rejoin_grid_.total() <= 1) {
      // First shrink of this solve: aim the heal consults of every
      // subsequent apply back at the grid this apply started on.  Only
      // sticky resource losses ("<what> lost") are healable; attempt-failure
      // shrinks leave no resource to wait for.
      for (const FailoverEvent& f : mres.failovers) {
        const std::size_t pos = f.reason.find(" lost");
        if (pos == std::string::npos) continue;
        rejoin_grid_ = before;
        rejoin_what_ = f.reason.substr(0, pos);
        break;
      }
    }
  }
  return mres.recovered;
}

bool ShardedCgSolver::apply_raw(const ColorField& in, ColorField& out, ShardedCgResult* res,
                                const WireFormat& wire) {
  // out = m^2 in - D_eo D_oe in, both hops through the sharded halo protocol.
  problem_o_.b() = in;
  if (!run_dslash(problem_o_, plan_o_, res, wire)) return false;
  problem_e_.b() = problem_o_.c();
  if (!run_dslash(problem_e_, plan_e_, res, wire)) return false;
  out = in;
  scale(mass_ * mass_, out);
  axpy(-1.0, problem_e_.c(), out);
  return true;
}

void ShardedCgSolver::apply_normal(const ColorField& in, ColorField& out) {
  (void)apply_raw(in, out, nullptr, cfg_.wire);
}

void ShardedCgSolver::apply_reference(const ColorField& in, ColorField& out) const {
  ColorField tmp(problem_o_.geom(), Parity::Odd);
  dslash_reference(problem_o_.view(), problem_o_.neighbors(), in, tmp);
  ColorField deo(problem_e_.geom(), Parity::Even);
  dslash_reference(problem_e_.view(), problem_e_.neighbors(), tmp, deo);
  out = in;
  scale(mass_ * mass_, out);
  axpy(-1.0, deo, out);
}

/// One solve's recovery tiers, each a hook on the CG core (core/cg.hpp):
/// the ABFT apply check and the step's failover check wrap the apply; the
/// convergence gate, the deadline, reliable updates and the two checkpoint
/// modes observe the state before every step, in that order; on_failure
/// answers an apply failure or a breakdown; run() drives the solve.  With no
/// fault plan on the exact wire every tier is pass-through, so the
/// trajectory is cg_solve's.
struct ShardedCgSolver::Tiers {
  ShardedCgSolver& solver;
  const ColorField& b;
  cg::State<ColorField>& st;
  const ShardedCgConfig& cfg = solver.cfg_;
  ShardedCgResult res;
  dsan::Recorder* rec = dsan::Recorder::current();
  const double b2 = norm2(b);
  const double target = cfg.cg.rel_tol * cfg.cg.rel_tol * b2;
  // Checkpoint-audit slack: on a reduced wire the recursion residual and a
  // recomputed residual legitimately drift apart by the wire's rounding
  // floor relative to ||b|| — once the recursion residual sinks below that
  // floor, only drift beyond the floor itself indicates corruption.  Exact
  // wire: the floor is 0 and the audit is unchanged.
  const double audit_slack = (cfg.cg.rel_tol + wire_abft_floor(cfg.wire.spinor)) * std::sqrt(b2);
  // ABFT anchor: z = A_ref r_abft via the serial reference, computed once.
  // A is Hermitian, so every accepted apply y = A v must satisfy
  // <r_abft, y> == <z, v> up to summation roundoff.
  ColorField r_abft, z_abft;
  double abft_norm_r = 0.0, abft_norm_z = 0.0;
  // `snap` is the durable slot restores use.  Async checkpointing stages
  // states off the critical path and promotes one into `snap` only after
  // its deferred true-residual audit passes.
  Snapshot snap, staged;
  // Iteration the last audit failure restored to.  A second audit failure
  // against the same snapshot means the snapshot itself captured corrupted
  // recursion state (the flip was below the audit threshold when it was
  // taken) — restoring it again can never help, so the solver escalates to
  // residual replacement instead.
  int last_audit_restore_iter = -1;
  int last_reliable = 0;
  bool fatal = false;
  const char* step_failure = "";  ///< restore reason of the last failed step apply

  Tiers(ShardedCgSolver& s, const ColorField& b_, cg::State<ColorField>& st_)
      : solver(s), b(b_), st(st_) {
    if (!cfg.abft) return;
    r_abft = ColorField(s.geom(), Parity::Even);
    r_abft.fill_random(cfg.abft_seed);
    z_abft = ColorField(s.geom(), Parity::Even);
    s.apply_reference(r_abft, z_abft);
    abft_norm_r = norm2(r_abft);
    abft_norm_z = norm2(z_abft);
  }

  /// The ABFT apply check: recompute (bounded) until the identity holds.
  /// False on an unrecoverable apply or a persistent mismatch.  `exact`
  /// forces the fp64 wire (residual replacements and the final
  /// certification); the tolerance floor tracks the wire actually used,
  /// since a reduced wire legitimately perturbs the identity.
  bool apply(const ColorField& in, ColorField& out, bool exact = false) {
    const WireFormat wire = exact ? WireFormat{} : cfg.wire;
    const double rel_tol = std::max(cfg.abft_rel_tol, wire_abft_floor(wire.spinor));
    for (int attempt = 0;; ++attempt) {
      if (!solver.apply_raw(in, out, &res, wire)) return false;
      ++res.applies;
      if (!cfg.abft) return true;
      const dcomplex lhs = dot(r_abft, out);
      const dcomplex rhs = dot(z_abft, in);
      const double err = std::hypot(lhs.re - rhs.re, lhs.im - rhs.im);
      const double scale_lr = std::sqrt(abft_norm_r * norm2(out));
      const double scale_zx = std::sqrt(abft_norm_z * norm2(in));
      const double tol = rel_tol * (1.0 + scale_lr + scale_zx);
      if (err <= tol) return true;
      if (attempt >= cfg.max_recomputes) return false;
      ++res.recomputes;
      char detail[128];
      std::snprintf(detail, sizeof detail, "abft |<r,y>-<z,x>| = %.3e > %.3e", err, tol);
      res.events.push_back({0, "recompute", detail});
    }
  }

  /// The step's apply.  A failover during it fails the step too: iterations
  /// since the last snapshot mixed grids mid-flight, so the solve replays
  /// from the snapshot and the trajectory is the pure post-failover one
  /// (bit-reproducible thanks to the sharded Dslash's grid-independent
  /// exactness).
  bool step_apply(const ColorField& in, ColorField& out) {
    if (!apply(in, out)) {
      step_failure = "apply unrecoverable";
      return false;
    }
    if (!solver.failover_seen_) return true;
    solver.failover_seen_ = false;
    step_failure = "device-loss failover";
    return false;
  }

  /// (Re)initialise the recursion from the current x: r = b - A x, p = r,
  /// through the exact fp64 wire — on the default format that is bit-for-bit
  /// the configured wire; on a reduced format it makes every (re)built
  /// residual a *true* residual, which is what the reliable-update exactness
  /// argument rests on (docs/WIRE.md §5).
  bool init() {
    auto exact = [this](const ColorField& in, ColorField& out) { return apply(in, out, true); };
    return st.init(exact, b);
  }

  cg::Next lost() {
    fatal = true;
    return cg::Next::stop;
  }

  /// Restore the last snapshot, or rebuild from the current x when it is
  /// missing or torn (the iterate is still a valid initial guess).
  cg::Next restore(const char* why) {
    if (res.restarts >= cfg.max_restarts) return lost();
    ++res.restarts;
    staged.valid = false;  // an unaudited staging never survives a restore
    if (snap.intact()) {
      snap.load(st);
      res.events.push_back({st.iter, "restore", std::string(why) + " -> snapshot @ iter " +
                                                    std::to_string(snap.iter)});
      if (rec != nullptr) rec->restore(snap.iter, why);
      return cg::Next::replaced;
    }
    res.events.push_back({st.iter, "restore", std::string(why) + " -> reinit (no snapshot)"});
    if (rec != nullptr) rec->restore(st.iter, std::string(why) + " (reinit)");
    return init() ? cg::Next::replaced : lost();
  }

  /// Reliable update (reduced wire only): replace the recursion residual by
  /// the exact-wire true residual and restart the search direction.  The
  /// reduced wire only ever perturbs *ghost* values of the inner applies, by
  /// a relative epsilon of the data on the wire — so between replacements
  /// the true residual tracks the recursion residual to O(eps_wire), and
  /// each replacement resets the accumulated drift.
  bool reliable_update(const char* why) {
    if (!init()) return false;
    last_reliable = st.iter;
    ++res.reliable_updates;
    char detail[128];
    std::snprintf(detail, sizeof detail, "%s; exact rel res %.3e", why, std::sqrt(st.rr / b2));
    res.events.push_back({st.iter, "reliable-update", detail});
    return true;
  }

  /// Convergence.  On the exact wire the recursion residual is trustworthy;
  /// on a reduced wire it drifted from the truth by the accumulated wire
  /// rounding, so it is replaced through the exact wire and only *that*
  /// residual may end the solve (docs/WIRE.md §5).
  cg::Next converged() {
    if (st.rr > target) return cg::Next::step;
    if (!cfg.wire.reduced()) return cg::Next::stop;
    if (!reliable_update("convergence gate")) return restore("reliable update failed");
    return st.rr <= target ? cg::Next::stop : cg::Next::replaced;
  }

  /// The deadline: a scheduler's apply budget or cancel hook stops the solve
  /// cleanly at an iteration boundary — x is still the best-so-far iterate.
  cg::Next deadline() {
    std::string why;
    if (cfg.max_applies > 0 && res.applies >= cfg.max_applies) {
      why = "apply budget " + std::to_string(cfg.max_applies) + " exhausted";
    } else if (cfg.cancel && cfg.cancel(st.iter, res.applies)) {
      why = "cancelled by caller";
    } else {
      return cg::Next::step;
    }
    res.cancelled = true;
    res.events.push_back({st.iter, "cancelled", why});
    return cg::Next::stop;
  }

  /// Periodic reliable update: bounds the residual drift a reduced wire can
  /// accumulate between replacements (never fires on the exact wire).
  cg::Next reliable() {
    if (!cfg.wire.reduced() || cfg.reliable_interval <= 0 ||
        st.iter - last_reliable < cfg.reliable_interval || reliable_update("periodic")) {
      return cg::Next::step;
    }
    return restore("reliable update failed");
  }

  enum class Audit { passed, apply_failed, drifted };

  /// Checkpoint audit of the state (xa, rra) taken at `iter`: one guarded
  /// apply, charged to checkpointing (hidden when it audits a staging, as it
  /// overlaps the next apply), then the true residual against the
  /// recursion residual.  A drift is logged before the caller restores.
  Audit audit(const ColorField& xa, double rra, int iter, bool staging) {
    const int mark = res.applies;
    const bool ok = apply(xa, st.Ap);
    res.checkpoint_applies += res.applies - mark;
    if (staging) res.hidden_applies += res.applies - mark;
    if (!ok) return Audit::apply_failed;
    const double tr2 = cg::residual_norm2(b, st.Ap);
    if (!(std::sqrt(tr2) > cfg.residual_audit_factor * std::sqrt(rra) + audit_slack)) {
      return Audit::passed;
    }
    char detail[128];
    std::snprintf(detail, sizeof detail, "%strue res %.3e vs recursion %.3e",
                  staging ? "staged " : "", std::sqrt(tr2 / b2), std::sqrt(rra / b2));
    res.events.push_back({iter, staging ? "audit-discard" : "audit-restore", detail});
    return Audit::drifted;
  }

  /// Async checkpointing: the deferred audit of a staged state, one
  /// iteration after the staging.  Its apply runs inside this iteration's
  /// apply window on the simulated clock, so it is off the critical path
  /// (hidden_applies); only an audited staging becomes durable.
  cg::Next async_audit() {
    if (!cfg.async_checkpoint || !staged.valid || staged.iter == st.iter) return cg::Next::step;
    const Audit a = audit(staged.x, staged.rr, staged.iter, /*staging=*/true);
    if (a == Audit::apply_failed) return restore("async audit apply failed");
    // The staging is a copy of the live recursion, so the live state is
    // suspect too: fall back to the last durable snapshot and replay.
    if (a == Audit::drifted) return restore("async residual audit failed");
    snap = staged;
    staged.valid = false;
    last_audit_restore_iter = -1;
    ++res.checkpoints_taken;
    ++res.snapshots_promoted;
    res.events.push_back({snap.iter, "checkpoint", "promoted (async audit passed)"});
    if (rec != nullptr) {
      rec->snapshot_audit(snap.iter, "true-residual audit passed");
      rec->snapshot_promote(snap.iter, "staged -> durable");
    }
    return cg::Next::step;
  }

  /// Checkpoint cadence.  Async mode only stages a host-side copy here;
  /// synchronous mode audits the recursion against the true residual on the
  /// critical path, then snapshots the audited state.
  cg::Next checkpoint() {
    if (cfg.checkpoint_interval <= 0 || st.iter == 0 || st.iter % cfg.checkpoint_interval != 0 ||
        snap.iter == st.iter) {
      return cg::Next::step;
    }
    const std::string rel = std::to_string(std::sqrt(st.rr / b2));
    if (cfg.async_checkpoint) {
      if (!staged.valid || staged.iter != st.iter) {
        staged.take(st);
        ++res.snapshots_staged;
        res.events.push_back({st.iter, "checkpoint-staged", "rel res " + rel});
        if (rec != nullptr) rec->checkpoint(st.iter, "staged (async) rel res " + rel);
      }
      return cg::Next::step;
    }
    const Audit a = audit(st.x, st.rr, st.iter, /*staging=*/false);
    if (a == Audit::apply_failed) return restore("audit apply failed");
    if (a == Audit::drifted) {
      if (snap.intact() && snap.iter == last_audit_restore_iter) return rebuild();
      const cg::Next next = restore("residual audit failed");
      if (next == cg::Next::replaced) last_audit_restore_iter = st.iter;
      return next;
    }
    snap.take(st);
    last_audit_restore_iter = -1;
    ++res.checkpoints_taken;
    res.events.push_back({st.iter, "checkpoint", "rel res " + rel});
    if (rec != nullptr) rec->checkpoint(st.iter, "rel res " + rel);
    return cg::Next::step;
  }

  /// The escalation: keep the snapshot's iterate but rebuild the recursion
  /// from scratch (r = b - A x, p = r).  The rebuilt state is consistent by
  /// construction, so a finite corruption burst costs at most some progress.
  cg::Next rebuild() {
    if (res.restarts >= cfg.max_restarts) return lost();
    ++res.restarts;
    st.x = snap.x;
    st.iter = snap.iter;
    res.events.push_back(
        {st.iter, "rebuild", "residual replacement @ iter " + std::to_string(st.iter)});
    if (!init()) return lost();
    snap.take(st);
    if (rec != nullptr) rec->checkpoint(st.iter, "post-rebuild");
    last_audit_restore_iter = -1;
    return cg::Next::replaced;
  }

  /// The observers, consulted before every step in this order; the first
  /// that does not let the step run decides.
  cg::Next observe() {
    for (cg::Next (Tiers::*tier)() : {&Tiers::converged, &Tiers::deadline, &Tiers::reliable,
                                      &Tiers::async_audit, &Tiers::checkpoint}) {
      if (const cg::Next next = (this->*tier)(); next != cg::Next::step) return next;
    }
    return cg::Next::step;
  }

  /// A failed step apply restores the last snapshot.  A negative curvature
  /// direction on an HPD operator means corrupted recursion state, not a
  /// property of the system: rebuild via residual replacement while the
  /// restart budget lasts.
  cg::Next on_failure(cg::Failure f) {
    if (f == cg::Failure::apply) return restore(step_failure);
    if (res.restarts >= cfg.max_restarts) return cg::Next::stop;
    ++res.restarts;
    res.events.push_back({st.iter, "rebuild", "pAp breakdown; residual replacement"});
    return init() ? cg::Next::replaced : lost();
  }

  /// The solve: initialise, iterate through the tiers, then certify on the
  /// exact wire.  A zero source sets x = 0 and converges with no apply.
  void run() {
    if (b2 == 0.0) {
      st.x.zero();
      res.cg.converged = true;
      return;
    }
    // Even the initial residual may fail; one restore pass (post-failover
    // replay) is then the only option left.
    if (init() || restore("init failed") == cg::Next::replaced) {
      snap.take(st);
      if (rec != nullptr) rec->checkpoint(st.iter, "initial state");
    }
    // A failover during init already replayed the whole apply on the
    // surviving grid inside the runner, so the freshly snapshotted state is
    // consistent.
    solver.failover_seen_ = false;
    if (!fatal) {
      cg::iterate(
          st, [this](const ColorField& in, ColorField& out) { return step_apply(in, out); },
          cfg.cg.max_iterations, [this](cg::State<ColorField>&) { return observe(); },
          [this](cg::State<ColorField>&, cg::Failure f) { return on_failure(f); });
    }
    res.cg.iterations = st.iter;
    res.cg.relative_residual = std::sqrt(st.rr / b2);
    res.cg.converged = !fatal && st.rr <= target;
    res.recovered_all = !fatal;

    // True residual through the guarded apply — always on the exact fp64
    // wire, so a reduced-wire solve is certified against the same answer an
    // exact solve must reach (falls back to the last value on a persistent
    // failure rather than reporting garbage).  A cancelled solve skips it:
    // the caller stopped paying for applies.
    if (res.cancelled) {
      res.cg.true_relative_residual = res.cg.relative_residual;
    } else if (apply(st.x, st.Ap, /*exact=*/true)) {
      res.cg.true_relative_residual = std::sqrt(cg::residual_norm2(b, st.Ap) / b2);
      res.certified = res.cg.converged && res.cg.true_relative_residual <= cfg.cg.rel_tol;
    } else {
      res.cg.true_relative_residual = res.cg.relative_residual;
      res.recovered_all = false;
    }
  }
};

ShardedCgResult ShardedCgSolver::solve(const ColorField& b, ColorField& x) {
  faultsim::Injector* inj = faultsim::Injector::current();
  const std::size_t log_mark = inj != nullptr ? inj->log().size() : 0;
  failover_seen_ = false;
  cg::State<ColorField> st(x, b);

  // Silent-corruption surface: the live solver vectors plus the staging
  // fields the applies stream through.  Snapshots and the ABFT anchors stay
  // unregistered — that is the trust boundary of the scheme.
  if (inj != nullptr) {
    inj->set_corruption_targets({region_of(x), region_of(st.r), region_of(st.p),
                                 region_of(st.Ap), region_of(problem_o_.b()),
                                 region_of(problem_o_.c()), region_of(problem_e_.b()),
                                 region_of(problem_e_.c())});
  }
  Tiers t(*this, b, st);
  t.run();
  t.res.final_grid = grid_;
  if (inj != nullptr) {
    t.res.faults = inj->log_since(log_mark);
    inj->set_corruption_targets({});
  }
  return std::move(t.res);
}

std::vector<ksan::SanitizerReport> ShardedCgSolver::dsan_check(const ColorField& b,
                                                               ColorField& x,
                                                               ShardedCgResult* result) {
  const std::string label = "sharded-cg @ " + grid_.label();
  dsan::ScopedRecorder sr;
  ShardedCgResult res = solve(b, x);
  if (result != nullptr) *result = std::move(res);
  return dsan::check_all(sr.rec.trace(), label);
}

}  // namespace milc::multidev
