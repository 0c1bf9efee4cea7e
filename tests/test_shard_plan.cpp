// test_shard_plan.cpp — the resident shard plan: one plan reused across many
// applies must give, apply after apply, exactly the output of a freshly
// built one-shot run, on every grid shape, both parities and every spinor
// wire format; and the per-apply NaN re-poison must survive reuse (a skipped
// unpack shows up as NaN, never as the previous apply's ghost values).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/dslash_ref.hpp"
#include "multidev/runner.hpp"

namespace milc::multidev {
namespace {

constexpr Strategy kStrategy = Strategy::LP3_1;
constexpr IndexOrder kOrder = IndexOrder::kMajor;
constexpr int kLocal = 768;

std::int64_t non_finite_sites(const ColorField& f) {
  std::int64_t n = 0;
  for (std::int64_t s = 0; s < f.size(); ++s) {
    bool finite = true;
    for (int c = 0; c < kColors; ++c) {
      finite = finite && std::isfinite(f[s].c[c].re) && std::isfinite(f[s].c[c].im);
    }
    n += finite ? 0 : 1;
  }
  return n;
}

// Plain values only: gtest prints a parameter without a printer as its raw
// bytes, and that text is part of the test name ctest discovers.  A pointer
// member (a case-name string) put a load address into the name, so the name
// changed with every build and with address-space randomisation.
struct PlanCase {
  std::uint64_t seed;
  Coords dims;
  Coords grid;
};

const PlanCase kCases[] = {
    {19, {12, 12, 12, 12}, {1, 1, 1, 1}},
    {19, {12, 12, 12, 12}, {1, 1, 2, 2}},
    {19, {12, 12, 12, 12}, {2, 2, 2, 1}},
    {19, {8, 12, 12, 16}, {1, 2, 2, 2}},
};

// "1x2x2x2" from the device grid, "aniso_" in front on a non-cubic lattice.
std::string case_name(const PlanCase& pc) {
  std::string name = pc.dims[0] == pc.dims[1] && pc.dims[1] == pc.dims[2] &&
                             pc.dims[2] == pc.dims[3]
                         ? ""
                         : "aniso_";
  for (int mu = 0; mu < kNdim; ++mu) {
    name += (mu > 0 ? "x" : "") + std::to_string(pc.grid[mu]);
  }
  return name;
}

class PlanReuse : public ::testing::TestWithParam<std::tuple<PlanCase, SpinorWire>> {};

TEST_P(PlanReuse, EveryApplyEqualsAFreshOneShotRun) {
  const auto& [pc, sw] = GetParam();
  const PartitionGrid grid{.devices = pc.grid};
  const WireFormat wire{.spinor = sw};
  const MultiDeviceRunner runner;
  const DslashRunner single;
  for (const Parity target : {Parity::Even, Parity::Odd}) {
    DslashProblem problem(pc.dims, pc.seed, target);
    ShardPlan plan(problem, grid);
    for (std::uint64_t k = 0; k < 3; ++k) {
      SCOPED_TRACE("parity " + std::to_string(static_cast<int>(target)) + " apply " +
                   std::to_string(k));
      problem.b().fill_random(100 + k);
      problem.c().zero();
      runner.run_functional(problem, plan, kStrategy, kOrder, kLocal, wire);
      const ColorField reused = problem.c();
      ASSERT_EQ(non_finite_sites(reused), 0);

      problem.c().zero();
      runner.run_functional(problem, grid, kStrategy, kOrder, kLocal, wire);
      EXPECT_EQ(max_abs_diff(reused, problem.c()), 0.0) << "reused plan vs one-shot run";

      if (sw == SpinorWire::fp64) {
        // The exact wire: the single-device kernel bit for bit, and the
        // serial reference operator up to the kernel's summation order.
        single.run_functional(problem, kStrategy, kOrder, kLocal);
        EXPECT_EQ(max_abs_diff(reused, problem.c()), 0.0) << "vs single device";
        ColorField ref(problem.geom(), target);
        dslash_reference(problem.view(), problem.neighbors(), problem.b(), ref);
        EXPECT_LE(max_abs_diff(reused, ref), 1e-12) << "vs dslash_reference";
        runner.run_reference(problem, grid, problem.c());
        EXPECT_EQ(max_abs_diff(problem.c(), ref), 0.0) << "sharded reference vs reference";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PlanReuse,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(SpinorWire::fp64, SpinorWire::fp32,
                                         SpinorWire::fp16)),
    [](const auto& param_info) {
      return case_name(std::get<0>(param_info.param)) + "_" +
             to_string(std::get<1>(param_info.param));
    });

TEST(ShardPlan, ResidentPlanIsRebuiltOnlyForANewGridOrProblem) {
  DslashProblem a(12, /*seed=*/3);
  DslashProblem b(12, /*seed=*/3);
  const PartitionGrid g4{.devices = {1, 1, 2, 2}};
  const PartitionGrid g2{.devices = {1, 1, 1, 2}};
  std::unique_ptr<ShardPlan> slot;
  const ShardPlan* first = &resident_plan(slot, a, g4);
  EXPECT_EQ(&resident_plan(slot, a, g4), first) << "same problem and grid: reused";
  EXPECT_TRUE(slot->built_for(a, g4));
  EXPECT_FALSE(slot->built_for(b, g4)) << "a plan is bound to its problem, not its values";

  const ShardPlan& shrunk = resident_plan(slot, a, g2);
  EXPECT_EQ(shrunk.grid().label(), "1x1x1x2");
  EXPECT_EQ(shrunk.shards().size(), 2u);
  EXPECT_EQ(resident_plan(slot, b, g2).grid().label(), "1x1x1x2");
  EXPECT_TRUE(slot->built_for(b, g2));
}

TEST(ShardPlan, RejectsAPlanOfAnotherProblem) {
  DslashProblem a(12, /*seed=*/3);
  DslashProblem b(12, /*seed=*/3);
  ShardPlan plan(a, PartitionGrid{.devices = {1, 1, 1, 2}});
  const MultiDeviceRunner runner;
  EXPECT_THROW(runner.run_functional(b, plan, kStrategy, kOrder, kLocal),
               std::invalid_argument);
}

TEST(ShardPlan, ASkippedUnpackOnTheSecondApplyLeavesNaNNotStaleGhosts) {
  // Mutation check of the re-poison rule.  The first apply fills every ghost
  // slot; the second skips one unpack.  With the per-apply re-poison the
  // targets that read those ghosts come out NaN; without it they would
  // silently read the first apply's (finite, wrong) ghost values.
  DslashProblem problem(12, /*seed=*/23);
  const PartitionGrid grid{.devices = {1, 1, 2, 2}};
  ShardPlan plan(problem, grid);
  const MultiDeviceRunner runner;

  runner.run_functional(problem, plan, kStrategy, kOrder, kLocal);
  ASSERT_EQ(non_finite_sites(problem.c()), 0);

  problem.b().fill_random(24);
  {
    const detail::ScopedSkipUnpack skip(/*rank=*/0, /*mi=*/0);
    runner.run_functional(problem, plan, kStrategy, kOrder, kLocal);
  }
  const std::int64_t poisoned = non_finite_sites(problem.c());
  EXPECT_GT(poisoned, 0) << "the skipped message's ghosts must read as NaN";
  EXPECT_LT(poisoned, plan.shards()[0].n_boundary)
      << "only rank 0's targets that read the skipped message may be poisoned";

  // The next clean apply is whole again and equals a fresh run.
  runner.run_functional(problem, plan, kStrategy, kOrder, kLocal);
  const ColorField healed = problem.c();
  EXPECT_EQ(non_finite_sites(healed), 0);
  runner.run_functional(problem, grid, kStrategy, kOrder, kLocal);
  EXPECT_EQ(max_abs_diff(healed, problem.c()), 0.0);
}

}  // namespace
}  // namespace milc::multidev
