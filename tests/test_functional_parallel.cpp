// Functional execution across host threads.  A functional launch above the
// cut-off runs contiguous blocks of work-groups on several threads; the
// kernels' output must not depend on how many.  Every launch here runs
// pinned to one block (the serial reference) and to 2, 3, 7 and more blocks
// than it has groups, and each output must match the serial one byte for
// byte.  The threading edge cases follow: exceptions, cross-group atomics,
// nested launches and the cut-off.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/problem.hpp"
#include "core/runner.hpp"
#include "core/strategy.hpp"
#include "lattice/io.hpp"
#include "minisycl/executor.hpp"
#include "minisycl/queue.hpp"
#include "multidev/halo_kernels.hpp"
#include "multidev/sharded_cg.hpp"
#include "qudaref/staggered_test.hpp"
#include "wilson/wilson.hpp"

namespace milc {
namespace {

using minisycl::LaunchSpec;
using minisycl::detail::FunctionalPlan;
using minisycl::detail::PinFunctionalPlan;

/// Block counts compared against one block; the last exceeds every
/// launch's group count and is clamped to one group per block.
const std::vector<int> kBlocks = {2, 3, 7, 1 << 20};

std::vector<std::byte> bytes_of(const void* p, std::size_t n) {
  std::vector<std::byte> v(n);
  std::memcpy(v.data(), p, n);
  return v;
}

/// Run `run` (which launches functionally and returns what it wrote) with
/// one block, then with each of kBlocks, and require identical bytes.
void expect_block_independent(const std::function<std::vector<std::byte>()>& run,
                              const std::string& what) {
  std::vector<std::byte> ref;
  {
    const PinFunctionalPlan pin(FunctionalPlan{1});
    ref = run();
  }
  ASSERT_FALSE(ref.empty()) << what;
  for (const int blocks : kBlocks) {
    const PinFunctionalPlan pin(FunctionalPlan{blocks});
    EXPECT_TRUE(run() == ref) << what << ": output differs with " << blocks << " blocks";
  }
}

// ---------------------------------------------------------------- Dslash --

DslashProblem& problem() {
  static DslashProblem p(8, 2024);
  return p;
}

/// Every local size the strategy and order accept at this site count.
std::vector<int> valid_local_sizes(Strategy s, IndexOrder o, std::int64_t sites) {
  std::vector<int> out;
  const int m = local_size_multiple(s, o);
  for (int ls = m; ls <= 1024; ls += m) {
    if (is_valid_local_size(s, o, ls, sites)) out.push_back(ls);
  }
  return out;
}

using Config = std::tuple<Strategy, IndexOrder>;

std::vector<Config> shipped_configs() {
  std::vector<Config> out;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) out.emplace_back(s, o);
  }
  return out;
}

class FunctionalBlocks : public ::testing::TestWithParam<Config> {};

TEST_P(FunctionalBlocks, EveryLocalSizeBitIdentical) {
  const auto [s, o] = GetParam();
  DslashProblem& p = problem();
  const DslashRunner runner;
  const std::vector<int> sizes = valid_local_sizes(s, o, p.sites());
  ASSERT_FALSE(sizes.empty());
  for (const bool cplx : {false, true}) {
    if (cplx && s != Strategy::LP3_1) continue;
    for (const int ls : sizes) {
      expect_block_independent(
          [&] {
            std::memset(static_cast<void*>(p.c().data()), 0xff, p.c().bytes());
            runner.run_functional(p, s, o, ls, cplx);
            return bytes_of(p.c().data(), p.c().bytes());
          },
          config_label(s, o, ls) + (cplx ? " SyclCPLX" : ""));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FunctionalBlocks, ::testing::ValuesIn(shipped_configs()),
                         [](const ::testing::TestParamInfo<Config>& param_info) {
                           std::string n = config_label(std::get<0>(param_info.param),
                                                        std::get<1>(param_info.param), 0);
                           n.resize(n.find(" /"));
                           for (char& c : n) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return n;
                         });

TEST(FunctionalParallel, QudaRecon18BitIdentical) {
  DslashProblem& p = problem();
  qudaref::StaggeredDslashTest quda(p);
  expect_block_independent(
      [&] {
        std::memset(static_cast<void*>(p.c().data()), 0xff, p.c().bytes());
        quda.run_functional(Reconstruct::k18);
        return bytes_of(p.c().data(), p.c().bytes());
      },
      "QUDA recon-18");
}

TEST(FunctionalParallel, WilsonBitIdentical) {
  const LatticeGeom geom(8);
  GaugeConfiguration cfg(geom);
  cfg.fill_random(91);
  const GaugeView view(geom, cfg, Parity::Even);
  const NeighborTable nbr(geom, Parity::Even);
  const DeviceGaugeLayout dev(view);
  wilson::WilsonField in(geom, Parity::Odd);
  in.fill_random(92);
  wilson::WilsonField out(geom, Parity::Even);
  const wilson::WilsonDslash d(dev, nbr);
  const auto out_bytes = static_cast<std::size_t>(out.size()) * sizeof(wilson::WilsonSpinor);
  expect_block_independent(
      [&] {
        std::memset(static_cast<void*>(out.data()), 0xff, out_bytes);
        d.apply(in, out, 64);
        return bytes_of(out.data(), out_bytes);
      },
      "Wilson");
}

// ------------------------------------------------------------------ halo --

/// Pack a scattered gather list onto a wire of element W, then unpack that
/// wire into a ghost span; both launches must be block-independent.
template <typename W>
void expect_halo_block_independent(const char* wire_name) {
  constexpr std::int64_t kCount = 1000;  // 3000 items: 94 groups of 32
  constexpr int kLocal = 32;
  const LatticeGeom geom(8);
  ColorField src(geom, Parity::Even);
  src.fill_random(17);
  std::vector<std::int32_t> slots(static_cast<std::size_t>(kCount));
  for (std::int64_t i = 0; i < kCount; ++i) {
    slots[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((i * 37) % src.size());
  }
  std::vector<W> wire(static_cast<std::size_t>(kCount * kColors));
  std::vector<SU3Vector<dcomplex>> ghosts(static_cast<std::size_t>(kCount));
  const multidev::HaloPackKernelT<W> pack{.src = src.data(),
                                          .slots = slots.data(),
                                          .wire = wire.data(),
                                          .count = kCount,
                                          .scale = 0.5};
  const multidev::HaloUnpackKernelT<W> unpack{.wire = wire.data(),
                                              .field = ghosts.data(),
                                              .ghost_base = 0,
                                              .count = kCount,
                                              .inv_scale = 2.0};
  const auto spec_of = [](const minisycl::KernelTraits& traits) {
    LaunchSpec spec;
    spec.global_size = multidev::halo_global_size(kCount, kLocal);
    spec.local_size = kLocal;
    spec.traits = traits;
    return spec;
  };
  const std::size_t wire_bytes = wire.size() * sizeof(W);
  const std::size_t ghost_bytes = ghosts.size() * sizeof(SU3Vector<dcomplex>);
  expect_block_independent(
      [&] {
        std::memset(static_cast<void*>(wire.data()), 0xff, wire_bytes);
        minisycl::execute_functional(spec_of(pack.traits()), pack);
        return bytes_of(wire.data(), wire_bytes);
      },
      std::string("pack ") + wire_name);
  expect_block_independent(
      [&] {
        std::memset(static_cast<void*>(ghosts.data()), 0xff, ghost_bytes);
        minisycl::execute_functional(spec_of(unpack.traits()), unpack);
        return bytes_of(ghosts.data(), ghost_bytes);
      },
      std::string("unpack ") + wire_name);
}

TEST(FunctionalParallel, HaloPackUnpackBitIdenticalOnEveryWire) {
  expect_halo_block_independent<dcomplex>("fp64");
  expect_halo_block_independent<scomplex>("fp32");
  expect_halo_block_independent<multidev::hcomplex>("fp16");
}

// ------------------------------------------------------------ sharded CG --

TEST(FunctionalParallel, ShardedCgSolutionFnvIdentical) {
  const Coords dims{4, 4, 4, 12};
  multidev::ShardedCgConfig cfg;
  cfg.cg.rel_tol = 1e-8;
  cfg.cg.max_iterations = 400;
  cfg.checkpoint_interval = 8;
  const auto solve = [&] {
    multidev::ShardedCgSolver solver(dims, 31, 0.5, multidev::PartitionGrid::along(3, 2), cfg);
    ColorField b(solver.geom(), Parity::Even);
    b.fill_random(77);
    ColorField x(solver.geom(), Parity::Even);
    const multidev::ShardedCgResult res = solver.solve(b, x);
    EXPECT_TRUE(res.cg.converged) << res.summary();
    return std::make_tuple(io::fnv1a(x.data(), x.bytes()), res.cg.iterations,
                           res.cg.true_relative_residual);
  };
  std::tuple<std::uint64_t, int, double> ref;
  {
    const PinFunctionalPlan pin(FunctionalPlan{1});
    ref = solve();
  }
  for (const int blocks : kBlocks) {
    const PinFunctionalPlan pin(FunctionalPlan{blocks});
    EXPECT_EQ(solve(), ref) << blocks << " blocks";
  }
}

// ------------------------------------------------------ threading edges --

/// Every item marks its slot; the first item of groups `bad_group` and
/// `bad_group + 10` throws, naming its group (a negative `bad_group`: none).
struct ThrowingKernel {
  static constexpr int kPhases = 1;
  int* out;
  std::int64_t bad_group;

  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.store(&out[lane.global_id()], 1);
    const std::int64_t g = lane.group_id();
    if (bad_group >= 0 && (g == bad_group || g == bad_group + 10)) {
      throw std::runtime_error("group " + std::to_string(g));
    }
  }
};

TEST(FunctionalParallel, BlockExceptionRethrownAfterEveryBlockJoined) {
  constexpr int kLocal = 32;
  constexpr int kGroups = 64;
  std::vector<int> out(kGroups * kLocal, 0);
  const LaunchSpec spec{kGroups * kLocal, kLocal, 0, 1, {}, {}};
  {
    // Blocks of 16 groups: group 20 throws and stops block 1 (groups
    // 16..31) there, before group 30 would.
    const PinFunctionalPlan pin(FunctionalPlan{4});
    try {
      minisycl::execute_functional(spec, ThrowingKernel{out.data(), 20});
      FAIL() << "expected the kernel's exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "group 20");
    }
  }
  // Blocks 0, 2 and 3 ran to completion although block 1 threw.
  for (int g = 0; g < kGroups; ++g) {
    if (g >= 16 && g < 32) continue;
    for (int t = 0; t < kLocal; ++t) {
      EXPECT_EQ(out[static_cast<std::size_t>(g * kLocal + t)], 1) << "group " << g;
    }
  }
  // The next launch works.
  std::fill(out.begin(), out.end(), 0);
  {
    const PinFunctionalPlan pin(FunctionalPlan{4});
    minisycl::execute_functional(spec, ThrowingKernel{out.data(), -1});
  }
  for (const int v : out) EXPECT_EQ(v, 1);
}

TEST(FunctionalParallel, LowestBlockExceptionWins) {
  constexpr int kLocal = 32;
  constexpr int kGroups = 64;
  std::vector<int> out(kGroups * kLocal, 0);
  const LaunchSpec spec{kGroups * kLocal, kLocal, 0, 1, {}, {}};
  const PinFunctionalPlan pin(FunctionalPlan{8});  // blocks of 8 groups
  // Group 45 (block 5) and group 55 (block 6) throw: block 5's goes out,
  // as it would first in a serial run.
  try {
    minisycl::execute_functional(spec, ThrowingKernel{out.data(), 45});
    FAIL() << "expected the kernel's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "group 45");
  }
}

/// Adds every global id into one address.  The store to `marks` (which
/// could alias `sum`) keeps the compiler from holding the sum in a register
/// across items, so a non-atomic add would lose updates between blocks.
struct AtomicSumKernel {
  static constexpr int kPhases = 1;
  double* sum;
  double* marks;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    lane.atomic_add(sum, static_cast<double>(lane.global_id()));
    lane.store(&marks[lane.global_id()], 1.0);
  }
};

TEST(FunctionalParallel, CrossGroupAtomicSumExactUnderConcurrency) {
  // Integer-valued partial sums stay below 2^53, so every order of the
  // relaxed adds gives the exact total; a lost update would show.  Blocks
  // are long enough (2^20 items at 4 blocks) that they overlap in time.
  constexpr std::int64_t kItems = std::int64_t{1} << 22;
  const LaunchSpec spec{kItems, 64, 0, 1, {}, {}};
  std::vector<double> marks(static_cast<std::size_t>(kItems));
  for (const int blocks : {2, 4, 7}) {
    const PinFunctionalPlan pin(FunctionalPlan{blocks});
    double sum = 0.0;
    minisycl::execute_functional(spec, AtomicSumKernel{&sum, marks.data()});
    EXPECT_EQ(sum, static_cast<double>(kItems) * static_cast<double>(kItems - 1) / 2.0)
        << blocks << " blocks";
  }
}

/// Every item records the host thread that ran it.
struct ThreadIdKernel {
  static constexpr int kPhases = 1;
  std::thread::id* ids;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    ids[lane.global_id()] = std::this_thread::get_id();
  }
};

std::set<std::thread::id> threads_of(std::int64_t items) {
  std::vector<std::thread::id> ids(static_cast<std::size_t>(items));
  const LaunchSpec spec{items, 32, 0, 1, {}, {}};
  minisycl::execute_functional(spec, ThreadIdKernel{ids.data()});
  return {ids.begin(), ids.end()};
}

TEST(FunctionalParallel, LaunchBelowCutoffRunsOnTheCallerAlone) {
  const std::int64_t below = minisycl::detail::kFunctionalParallelCutoff - 32;
  const std::set<std::thread::id> ids = threads_of(below);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());

  // At the cut-off the launch splits across the host's threads, the caller
  // among them.
  const std::set<std::thread::id> big = threads_of(minisycl::detail::kFunctionalParallelCutoff);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(big.size(), hw > 1 ? static_cast<std::size_t>(hw) : 1u);
  EXPECT_EQ(big.count(std::this_thread::get_id()), 1u);
}

TEST(FunctionalParallel, LaunchFromAnotherThreadCompletes) {
  constexpr std::int64_t kItems = std::int64_t{1} << 16;  // above the cut-off
  std::vector<int> out(static_cast<std::size_t>(kItems), 0);
  std::thread t([&] {
    minisycl::queue q;  // functional
    q.submit(LaunchSpec{kItems, 32, 0, 1, {}, {}}, ThrowingKernel{out.data(), -1});
  });
  t.join();
  for (const int v : out) EXPECT_EQ(v, 1);
}

}  // namespace
}  // namespace milc
