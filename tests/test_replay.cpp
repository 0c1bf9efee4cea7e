// Staged-replay determinism.  Every profiled launch is replayed inline, then
// staged over 1, 2 and 3 stage-1 workers with chunk budgets so small that a
// launch spans hundreds to thousands of chunks (every hand-off, slot reuse
// and worker/backend interleaving runs).  Each schedule must give bit-identical
// KernelStats — every counter, every timing double, bound_by — and
// bit-identical kernel output.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/dispatch.hpp"
#include "core/problem.hpp"
#include "minisycl/executor.hpp"
#include "qudaref/quda_dslash.hpp"
#include "tune/candidates.hpp"

namespace milc {
namespace {

using minisycl::LaunchSpec;
using minisycl::detail::ReplayPlan;

/// Inline first (the reference), then staged schedules: a 64-event budget
/// closes a chunk after every warp-step (maximal hand-off traffic); the
/// production budget packs steps of several SMs into one chunk, so stage 2
/// must re-interleave the workers' lists into global step order.
const std::vector<ReplayPlan>& plans() {
  static const std::vector<ReplayPlan> p = {{0, minisycl::detail::kChunkEvents},
                                            {1, 64},
                                            {2, 64},
                                            {3, 64},
                                            {2, minisycl::detail::kChunkEvents},
                                            {3, minisycl::detail::kChunkEvents}};
  return p;
}

std::string plan_name(const ReplayPlan& p) {
  return p.workers == 0 ? "inline"
                        : "staged/" + std::to_string(p.workers) + "/" +
                              std::to_string(p.chunk_events);
}

struct Field {
  const char* name;
  std::uint64_t bits;
};

/// Every number a KernelStats carries, doubles by their bit pattern.
std::vector<Field> fields(const gpusim::KernelStats& s) {
  std::vector<Field> f;
  const auto u = [&f](const char* n, std::uint64_t v) { f.push_back({n, v}); };
  const auto d = [&f](const char* n, double v) {
    f.push_back({n, std::bit_cast<std::uint64_t>(v)});
  };
  const gpusim::TraceCounters& c = s.counters;
  u("work_items", c.work_items);
  u("warps", c.warps);
  u("warp_issue_slots", c.warp_issue_slots);
  u("fp64_warp_slots", c.fp64_warp_slots);
  u("flops", c.flops);
  u("active_lane_ops", c.active_lane_ops);
  u("possible_lane_ops", c.possible_lane_ops);
  u("branch_events", c.branch_events);
  u("divergent_branches", c.divergent_branches);
  u("global_load_ops", c.global_load_ops);
  u("global_store_ops", c.global_store_ops);
  u("l1_tag_requests_global", c.l1_tag_requests_global);
  u("l1_sector_hits", c.l1_sector_hits);
  u("l1_sector_misses", c.l1_sector_misses);
  u("l2_sector_requests", c.l2_sector_requests);
  u("l2_sector_hits", c.l2_sector_hits);
  u("l2_sector_misses", c.l2_sector_misses);
  u("dram_sectors", c.dram_sectors);
  u("dram_row_hits", c.dram_row_hits);
  u("dram_row_misses", c.dram_row_misses);
  u("shared_ops", c.shared_ops);
  u("shared_wavefronts", c.shared_wavefronts);
  u("shared_wavefronts_ideal", c.shared_wavefronts_ideal);
  u("atomic_ops", c.atomic_ops);
  u("atomic_lane_updates", c.atomic_lane_updates);
  u("atomic_serial_replays", c.atomic_serial_replays);
  u("barrier_warp_events", c.barrier_warp_events);
  const gpusim::TimingBreakdown& t = s.timing;
  d("timing.dram_s", t.dram_s);
  d("timing.latency_s", t.latency_s);
  d("timing.l1_s", t.l1_s);
  d("timing.shared_s", t.shared_s);
  d("timing.issue_s", t.issue_s);
  d("timing.atomic_s", t.atomic_s);
  d("timing.barrier_s", t.barrier_s);
  d("timing.total_s", t.total_s);
  d("occupancy.achieved", s.occupancy.achieved);
  d("duration_us", s.duration_us);
  d("gflops", s.gflops);
  d("sm_throughput_pct", s.sm_throughput_pct);
  d("peak_pct", s.peak_pct);
  d("l1_throughput_pct", s.l1_throughput_pct);
  d("l1_miss_pct", s.l1_miss_pct);
  d("l2_miss_pct", s.l2_miss_pct);
  d("avg_divergent_branches", s.avg_divergent_branches);
  return f;
}

std::vector<std::byte> bytes_of(const void* p, std::size_t n) {
  std::vector<std::byte> v(n);
  std::memcpy(v.data(), p, n);
  return v;
}

/// Run `kernel` under every plan (calling `reset` before each run) and
/// require every schedule to match the inline one bit for bit, in stats and
/// in what `output` snapshots.
template <typename Kernel>
void expect_schedule_independent(const LaunchSpec& spec, const Kernel& kernel,
                                 const std::function<void()>& reset,
                                 const std::function<std::vector<std::byte>()>& output,
                                 const gpusim::MachineModel& m = gpusim::a100()) {
  const gpusim::Calibration cal = gpusim::default_calibration();
  std::vector<gpusim::KernelStats> stats;
  std::vector<std::vector<std::byte>> outs;
  for (const ReplayPlan& plan : plans()) {
    reset();
    stats.push_back(minisycl::detail::execute_profiled_with(m, cal, spec, kernel, "replay", plan));
    outs.push_back(output());
  }
  const std::vector<Field> ref = fields(stats[0]);
  ASSERT_GT(stats[0].counters.warps, 0u);
  for (std::size_t i = 1; i < stats.size(); ++i) {
    const std::string what = plan_name(plans()[i]);
    const std::vector<Field> got = fields(stats[i]);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(got[k].bits, ref[k].bits) << what << ": " << ref[k].name;
    }
    EXPECT_STREQ(stats[i].timing.bound_by, stats[0].timing.bound_by) << what;
    EXPECT_STREQ(stats[i].occupancy.limiter, stats[0].occupancy.limiter) << what;
    EXPECT_TRUE(outs[i] == outs[0]) << what << ": kernel output differs";
  }
}

// ---------------------------------------------------------------- Dslash --

DslashProblem& problem() {
  static DslashProblem p(8, 2024);
  return p;
}

/// The L=8 gauge field (4.7 MB) fits the A100's 40 MB L2, where no line is
/// ever evicted and the order of L2 requests barely shows in the counters.
/// A 1.25 MB L2 (640 sets) keeps LRU eviction busy, so any reordering of
/// the L2 stream changes hits, misses and DRAM rows.
gpusim::MachineModel small_l2() {
  gpusim::MachineModel m = gpusim::a100();
  m.l2_bytes = 640 * 16 * 128;
  return m;
}

/// The runner's launch: same spec and declared regions (core/runner.cpp).
template <typename Kernel>
LaunchSpec dslash_spec(const DslashArgs<dcomplex>& a, Strategy s, int local_size) {
  LaunchSpec spec;
  spec.global_size = a.sites * items_per_site(s);
  spec.local_size = local_size;
  spec.shared_bytes = Kernel::shared_bytes(local_size);
  spec.num_phases = Kernel::kPhases;
  spec.traits = Kernel::traits();
  const std::int64_t n = a.sites;
  for (int l = 0; l < kNlinks; ++l) {
    spec.regions.push_back(
        {a.links[l], n * kNdim * kColors * kColors * static_cast<std::int64_t>(sizeof(dcomplex))});
  }
  spec.regions.push_back({a.b, n * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))});
  spec.regions.push_back({a.c_out, n * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))});
  spec.regions.push_back(
      {a.neighbors, n * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))});
  return spec;
}

using Config = std::tuple<Strategy, IndexOrder>;

std::vector<Config> shipped_configs() {
  std::vector<Config> out;
  for (Strategy s : all_strategies()) {
    for (IndexOrder o : orders_of(s)) out.emplace_back(s, o);
  }
  return out;
}

class ReplayStrategies : public ::testing::TestWithParam<Config> {};

TEST_P(ReplayStrategies, EveryScheduleBitIdentical) {
  const auto [s, o] = GetParam();
  DslashProblem& p = problem();
  const DslashArgs<dcomplex> args = p.args();
  const int local = tune::pick_local_size(s, o, s == Strategy::LP1 ? 256 : 768, p.sites());
  with_dslash_kernel(args, s, o, /*use_syclcplx=*/false, [&](const auto& kernel) {
    using K = std::decay_t<decltype(kernel)>;
    expect_schedule_independent(
        dslash_spec<K>(args, s, local), kernel,
        [&] { std::memset(static_cast<void*>(p.c().data()), 0, p.c().bytes()); },
        [&] { return bytes_of(p.c().data(), p.c().bytes()); }, small_l2());
    return 0;
  });
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ReplayStrategies, ::testing::ValuesIn(shipped_configs()),
                         [](const ::testing::TestParamInfo<Config>& param_info) {
                           std::string n = config_label(std::get<0>(param_info.param),
                                                        std::get<1>(param_info.param), 0);
                           n.resize(n.find(" /"));
                           for (char& c : n) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return n;
                         });

TEST(Replay, QudaRecon18BitIdentical) {
  DslashProblem& p = problem();
  const SoAGauge gauge(p.view(), Reconstruct::k18);
  const SoAColor b(p.b());
  SoAColor c(p.geom(), p.target_parity());
  qudaref::QudaArgs a;
  a.gauge = gauge.data();
  a.reals = gauge.reals();
  a.pairs = gauge.pairs();
  a.scheme = Reconstruct::k18;
  a.b = b.data();
  a.c_out = c.data();
  a.neighbors = p.neighbors().data();
  a.sites = p.sites();

  LaunchSpec spec;
  spec.global_size = a.sites;
  spec.local_size = 128;
  spec.traits = qudaref::QudaStaggeredKernel::traits();
  spec.traits.regs_per_thread = qudaref::QudaStaggeredKernel::regs_for(Reconstruct::k18);
  const std::int64_t n = a.sites;
  const auto cbytes = static_cast<std::int64_t>(sizeof(dcomplex));
  spec.regions.push_back({a.gauge, kNlinks * kNdim * a.pairs * n * cbytes});
  spec.regions.push_back({a.b, kColors * n * cbytes});
  spec.regions.push_back({a.c_out, kColors * n * cbytes});
  spec.regions.push_back(
      {a.neighbors, n * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))});

  const std::size_t out_bytes = static_cast<std::size_t>(kColors * n * cbytes);
  expect_schedule_independent(
      spec, qudaref::QudaStaggeredKernel{a},
      [&] { std::memset(static_cast<void*>(c.data()), 0, out_bytes); },
      [&] { return bytes_of(c.data(), out_bytes); });
}

// ----------------------------------------------------- synthetic kernels --

/// Three barrier-separated phases through shared memory, with a bank
/// conflict in phase 1 and a masked half-warp in phase 2.
struct ThreePhaseShared {
  static constexpr int kPhases = 3;
  double* out;
  template <typename Lane>
  void operator()(Lane& lane, int phase) const {
    const int lid = lane.local_id();
    const int n = lane.local_range();
    if (phase == 0) {
      lane.template shared_store<double>(lid, 1.5 * lid);
    } else if (phase == 1) {
      const double v = lane.template shared_load<double>((lid + 1) % n);
      lane.flops(2);
      lane.template shared_store<double>(n + (lid * 16) % n, v * 2.0);
    } else {
      lane.branch(lid % 2);
      lane.set_masked(lid % 2 == 1);
      const double v = lane.template shared_load<double>(n + lid);
      lane.store(&out[lane.global_id()], v);
      lane.set_masked(false);
      lane.converge();
    }
  }
};

TEST(Replay, ThreePhaseSharedKernelBitIdentical) {
  std::vector<double> out(8192);
  LaunchSpec spec;
  spec.global_size = static_cast<std::int64_t>(out.size());
  spec.local_size = 256;
  spec.shared_bytes = 2 * 256 * static_cast<int>(sizeof(double));
  spec.num_phases = ThreePhaseShared::kPhases;
  spec.regions.push_back({out.data(), static_cast<std::int64_t>(out.size() * sizeof(double))});
  expect_schedule_independent(
      spec, ThreePhaseShared{out.data()}, [&] { std::fill(out.begin(), out.end(), 0.0); },
      [&] { return bytes_of(out.data(), out.size() * sizeof(double)); });
}

/// Every group adds into the same four addresses; the values make the sum
/// depend on the order the adds ran in.
struct SharedSumAtomics {
  static constexpr int kPhases = 1;
  double* sink;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const std::int64_t g = lane.global_id();
    lane.atomic_add(&sink[g % 4], 0.1 * static_cast<double>(g) + 1e-7);
  }
};

TEST(Replay, AtomicsIntoOneAddressBitIdentical) {
  std::vector<double> sink(4);
  LaunchSpec spec;
  spec.global_size = 16384;
  spec.local_size = 128;
  spec.regions.push_back({sink.data(), static_cast<std::int64_t>(sink.size() * sizeof(double))});
  expect_schedule_independent(
      spec, SharedSumAtomics{sink.data()}, [&] { std::fill(sink.begin(), sink.end(), 0.0); },
      [&] { return bytes_of(sink.data(), sink.size() * sizeof(double)); });
}

struct Saxpy {
  static constexpr int kPhases = 1;
  const double* x;
  double* y;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const std::int64_t i = lane.global_id();
    const double v = 2.0 * lane.load(&x[i]) + lane.load(&y[i]);
    lane.flops(2);
    lane.store(&y[i], v);
  }
};

TEST(Replay, NoDeclaredRegionsBitIdentical) {
  std::vector<double> x(65536), y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.5 * static_cast<double>(i);
  LaunchSpec spec;  // no regions: identity address map
  spec.global_size = static_cast<std::int64_t>(x.size());
  spec.local_size = 256;
  expect_schedule_independent(
      spec, Saxpy{x.data(), y.data()}, [&] { std::fill(y.begin(), y.end(), 1.0); },
      [&] { return bytes_of(y.data(), y.size() * sizeof(double)); });
}

// ------------------------------------------------------------ failure --

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Throws from the kernel once the staged replay is well under way, after
/// noting how many threads the process had at that moment.
struct ThrowsMidLaunch {
  static constexpr int kPhases = 1;
  double* y;
  std::int64_t throw_at;
  std::size_t* threads_when_thrown;
  template <typename Lane>
  void operator()(Lane& lane, int) const {
    const std::int64_t i = lane.global_id();
    lane.store(&y[i], lane.load(&y[i]) + 1.0);
    if (i == throw_at) {
      *threads_when_thrown = thread_count();
      throw std::runtime_error("kernel failed");
    }
  }
};

TEST(Replay, KernelExceptionPropagatesAndJoinsWorkers) {
  // 2 events per item.  Warps run round-robin across the 256 groups, so
  // item 65500 (group 255, warp 6) comes after ~1800 warp-steps, about 115k
  // events: every staged plan has handed off its first chunk by then.
  std::vector<double> y(65536);
  LaunchSpec spec;
  spec.global_size = static_cast<std::int64_t>(y.size());
  spec.local_size = 256;
  const std::size_t before = thread_count();
  for (const ReplayPlan& plan : plans()) {
    std::size_t during = 0;
    const ThrowsMidLaunch kernel{y.data(), 65500, &during};
    EXPECT_THROW((void)minisycl::detail::execute_profiled_with(gpusim::a100(),
                                                              gpusim::default_calibration(),
                                                              spec, kernel, "throws", plan),
                 std::runtime_error)
        << plan_name(plan);
    // Staged plans had their stage-1 threads and the backend running when
    // the kernel threw; none of them outlives the launch.
    const std::size_t engaged =
        plan.workers == 0 ? 0 : static_cast<std::size_t>(plan.workers) + 1;
    EXPECT_EQ(during, before + engaged) << plan_name(plan);
    EXPECT_EQ(thread_count(), before) << plan_name(plan);
  }
}

}  // namespace
}  // namespace milc
