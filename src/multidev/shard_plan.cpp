#include "multidev/shard_plan.hpp"

#include <algorithm>
#include <limits>

namespace milc::multidev {

ShardPlan::ShardPlan(const DslashProblem& problem, const PartitionGrid& grid)
    : problem_(&problem), part_(problem.geom(), grid, problem.target_parity()) {
  const GaugeView& view = problem.view();
  fields_.resize(part_.shards().size());
  for (const Shard& sh : part_.shards()) {
    ShardFields& f = fields(sh.rank);
    // Links are copied element by element in DeviceGaugeLayout's
    // [t][k][j][i] order (this loop nest appends in exactly that order) —
    // bit-exact, which is what makes the multi-device output identical to
    // the single-device one.
    for (int l = 0; l < kNlinks; ++l) {
      auto& fam = f.links[static_cast<std::size_t>(l)];
      fam.reserve(static_cast<std::size_t>(sh.targets() * kNdim * kColors * kColors));
      for (const std::int64_t g : sh.target_eo) {
        for (int k = 0; k < kNdim; ++k) {
          const SU3Matrix<dcomplex>& m = view.link(l, g, k);
          for (int j = 0; j < kColors; ++j) {
            for (int i = 0; i < kColors; ++i) fam.push_back(m.e[i][j]);
          }
        }
      }
    }
    f.src.resize(static_cast<std::size_t>(sh.extended_sources()));
    f.dst.resize(static_cast<std::size_t>(sh.targets()));
    f.wire.resize(sh.halo.size());
    f.rx.resize(sh.halo.size());
  }
}

bool ShardPlan::built_for(const DslashProblem& problem, const PartitionGrid& grid) const {
  return problem_ == &problem && part_.grid().devices == grid.devices;
}

void ShardPlan::load(const ColorField& b) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const SU3Vector<dcomplex> poison{{{nan, nan}, {nan, nan}, {nan, nan}}};
  for (const Shard& sh : part_.shards()) {
    ShardFields& f = fields(sh.rank);
    for (std::int64_t s = 0; s < sh.sources(); ++s) {
      f.src[static_cast<std::size_t>(s)] = b[sh.source_eo[static_cast<std::size_t>(s)]];
    }
    std::fill(f.src.begin() + sh.sources(), f.src.end(), poison);
    std::fill(f.dst.begin(), f.dst.end(), SU3Vector<dcomplex>{});
  }
}

void ShardPlan::size_wires(SpinorWire w) {
  for (const Shard& sh : part_.shards()) {
    ShardFields& f = fields(sh.rank);
    for (std::size_t mi = 0; mi < sh.halo.size(); ++mi) {
      f.wire[mi].resize(static_cast<std::size_t>(sh.halo[mi].wire_bytes(w)));
    }
  }
}

void ShardPlan::store(ColorField& c) const {
  for (const Shard& sh : part_.shards()) {
    const ShardFields& f = fields(sh.rank);
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      c[sh.target_eo[static_cast<std::size_t>(t)]] = f.dst[static_cast<std::size_t>(t)];
    }
  }
}

ShardPlan& resident_plan(std::unique_ptr<ShardPlan>& slot, const DslashProblem& problem,
                         const PartitionGrid& grid) {
  if (!slot || !slot->built_for(problem, grid)) {
    slot.reset();
    slot = std::make_unique<ShardPlan>(problem, grid);
  }
  return *slot;
}

}  // namespace milc::multidev
