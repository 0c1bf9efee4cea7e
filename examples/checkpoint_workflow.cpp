// checkpoint_workflow — a production-shaped end-to-end run: generate a gauge
// configuration, checkpoint it to disk, reload it (validated), invert the
// staggered operator on a point source with CG, and cross-check the
// solution.  Exercises the I/O, operator and solver layers together.
//
//   ./examples/checkpoint_workflow [--L 6] [--mass 0.25]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/cg.hpp"
#include "core/staggered_operator.hpp"
#include "lattice/io.hpp"

using namespace milc;

int main(int argc, char** argv) {
  int L = 6;
  double mass = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--L") == 0 && i + 1 < argc) L = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--mass") == 0 && i + 1 < argc) mass = std::atof(argv[++i]);
  }

  LatticeGeom geom(L);

  // 1. Generate and checkpoint a configuration.
  GaugeConfiguration cfg(geom);
  cfg.fill_random(2026);
  const std::string path = "gauge_checkpoint.bin";
  io::save_gauge(path, geom, cfg);
  std::printf("saved %d^4 configuration to %s\n", L, path.c_str());

  // 2. Reload (magic, geometry and checksum validated) and verify identity.
  const GaugeConfiguration reloaded = io::load_gauge(path, geom);
  double max_diff = 0.0;
  for (std::int64_t f = 0; f < geom.volume(); f += 97) {
    for (int k = 0; k < kNdim; ++k) {
      max_diff = std::max(max_diff, max_abs_diff(cfg.fat(f, k), reloaded.fat(f, k)));
    }
  }
  std::printf("reloaded: max link difference %.1e\n", max_diff);

  // 3. Invert on a point source (one colour at the origin).
  StaggeredOperator op(geom, reloaded, mass);
  ColorField b(geom, Parity::Even), x(geom, Parity::Even);
  b.zero();
  b[0].c[0] = {1.0, 0.0};
  x.zero();
  auto apply = [&op](const ColorField& in, ColorField& out) { op.apply_normal(in, out); };
  const double b2 = norm2(b);
  const CgResult r = cg::solve(apply, b, x, 1e-10, 5000, cg::Guess::given,
                               [b2](cg::State<ColorField>& s) {
                                 if (s.iter % 50 == 0) {
                                   std::printf("cg: iter %5d  rel res %.3e\n", s.iter,
                                               std::sqrt(s.rr / b2));
                                 }
                                 return cg::Next::step;
                               });
  ColorField Ax(geom, Parity::Even);
  std::printf("CG: %s in %d iterations, true residual %.2e\n",
              r.converged ? "converged" : "NOT converged", r.iterations,
              cg::true_relative_residual(apply, b, x, Ax));

  // 4. Checkpoint the propagator too, reload, verify.
  io::save_color_field("propagator.bin", geom, x);
  const ColorField back = io::load_color_field("propagator.bin", geom);
  std::printf("propagator checkpoint round-trip: max diff %.1e, |x|^2 = %.6e\n",
              max_abs_diff(x, back), norm2(x));

  std::remove(path.c_str());
  std::remove("propagator.bin");
  return r.converged && max_diff == 0.0 ? 0 : 1;
}
