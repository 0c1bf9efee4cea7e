#include "core/problem.hpp"

#include "core/dslash_ref.hpp"

namespace milc {

DslashProblem::DslashProblem(int L, std::uint64_t seed, Parity target)
    : DslashProblem(Coords{L, L, L, L}, seed, target) {}

DslashProblem::DslashProblem(const Coords& dims, std::uint64_t seed, Parity target)
    : geom_(dims),
      target_(target),
      cfg_(geom_),
      view_(),
      nbr_(geom_, target),
      b_(geom_, opposite(target)),
      c_(geom_, target) {
  cfg_.fill_random(seed);
  view_ = GaugeView(geom_, cfg_, target);
  b_.fill_random(seed ^ 0x9e3779b97f4a7c15ull);
  c_.zero();
}

const DeviceGaugeLayout& DslashProblem::device_gauge() const {
  std::call_once(dev_gauge_once_, [this] { dev_gauge_ = DeviceGaugeLayout(view_); });
  return dev_gauge_;
}

DslashArgs<dcomplex> DslashProblem::args() {
  return make_dslash_args(device_gauge(), nbr_, b_, c_);
}

}  // namespace milc
