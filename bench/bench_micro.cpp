// bench_micro — host-side microbenchmarks (experiment M1) of the building
// blocks: complex arithmetic (both libraries), SU(3) kernels, gauge
// pack/reconstruct, the serial reference Dslash, the simulator's own
// cache/coalescer throughput (which bounds how fast the benches run), the
// functional executor serial and across threads, and the sharded Dslash's
// set-up versus per-apply host cost.
#include <benchmark/benchmark.h>

#include <optional>
#include <random>
#include <vector>

#include "complexlib/syclcplx.hpp"
#include "core/dslash_ref.hpp"
#include "core/problem.hpp"
#include "core/runner.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/machine.hpp"
#include "gpusim/pipeline.hpp"
#include "minisycl/executor.hpp"
#include "minisycl/replay.hpp"
#include "multidev/runner.hpp"
#include "su3/random_su3.hpp"
#include "su3/reconstruct.hpp"

namespace {

using milc::dcomplex;

void BM_DComplexMac(benchmark::State& state) {
  dcomplex acc{0.1, 0.2}, a{1.1, -0.3}, b{0.7, 0.9};
  for (auto _ : state) {
    milc::cmac(acc, a, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DComplexMac);

void BM_SyclCplxMac(benchmark::State& state) {
  syclcplx::complex<double> acc{0.1, 0.2}, a{1.1, -0.3}, b{0.7, 0.9};
  for (auto _ : state) {
    acc += a * b;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SyclCplxMac);

void BM_SU3MatVec(benchmark::State& state) {
  milc::Rng rng(1);
  const auto u = milc::random_su3(rng);
  const auto v = milc::random_vector(rng);
  for (auto _ : state) {
    auto y = milc::matvec(u, v);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SU3MatVec);

void BM_SU3MatMul(benchmark::State& state) {
  milc::Rng rng(2);
  const auto a = milc::random_su3(rng);
  const auto b = milc::random_su3(rng);
  for (auto _ : state) {
    auto c = milc::matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SU3MatMul);

void BM_RandomSU3(benchmark::State& state) {
  milc::Rng rng(3);
  for (auto _ : state) {
    auto u = milc::random_su3(rng);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_RandomSU3);

void BM_PackUnpack(benchmark::State& state) {
  const auto scheme = static_cast<milc::Reconstruct>(state.range(0));
  milc::Rng rng(4);
  const auto u = milc::random_su3(rng);
  std::array<double, 18> buf{};
  for (auto _ : state) {
    milc::pack_link(scheme, u, buf);
    auto v = milc::unpack_link(scheme, buf);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_PackUnpack)->Arg(0)->Arg(1)->Arg(2);  // k18, k12, k9

void BM_ReferenceDslash(benchmark::State& state) {
  const int L = static_cast<int>(state.range(0));
  milc::DslashProblem p(L, 5);
  milc::ColorField out(p.geom(), p.target_parity());
  for (auto _ : state) {
    milc::dslash_reference(p.view(), p.neighbors(), p.b(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * p.sites());
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * p.flops() * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceDslash)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// One functional 3LP-1 k-major launch on a single device at 12^4.  Arg 0:
/// pinned to one block (the serial executor); Arg 1: the default plan, which
/// splits the launch's 162 work-groups across the host's threads.
void BM_FunctionalDslash(benchmark::State& state) {
  milc::DslashProblem p(12, 5);
  const milc::DslashRunner runner;
  std::optional<minisycl::detail::PinFunctionalPlan> serial;
  if (state.range(0) == 0) serial.emplace(minisycl::detail::FunctionalPlan{1});
  for (auto _ : state) {
    runner.run_functional(p, milc::Strategy::LP3_1, milc::IndexOrder::kMajor, 768);
    benchmark::DoNotOptimize(p.c().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * p.sites());
}
BENCHMARK(BM_FunctionalDslash)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The sharded Dslash of the `solve` workload: 12^4 on a 1x1x2x2 grid.
const milc::multidev::PartitionGrid kSolveGrid{.devices = {1, 1, 2, 2}};

void BM_PartitionerBuild(benchmark::State& state) {
  const milc::LatticeGeom geom(12);
  for (auto _ : state) {
    const milc::multidev::Partitioner part(geom, kSolveGrid, milc::Parity::Even);
    benchmark::DoNotOptimize(part.shards().data());
  }
}
BENCHMARK(BM_PartitionerBuild)->Unit(benchmark::kMillisecond);

/// Functional sharded apply.  Arg 0: one-shot (a plan is built and dropped
/// every apply); Arg 1: on a resident plan (per-apply work only).
void BM_ShardedApply(benchmark::State& state) {
  milc::DslashProblem p(12, 5);
  const milc::multidev::MultiDeviceRunner runner;
  milc::multidev::ShardPlan plan(p, kSolveGrid);
  const bool resident = state.range(0) == 1;
  for (auto _ : state) {
    if (resident) {
      runner.run_functional(p, plan, milc::Strategy::LP3_1, milc::IndexOrder::kMajor, 768);
    } else {
      runner.run_functional(p, kSolveGrid, milc::Strategy::LP3_1, milc::IndexOrder::kMajor,
                            768);
    }
    benchmark::DoNotOptimize(p.c().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ShardedApply)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CacheSimAccess(benchmark::State& state) {
  gpusim::SectoredCache cache(128 * 1024, 128, 32, 4);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    auto out = cache.access(addr, false);
    benchmark::DoNotOptimize(out);
    addr += 32;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheSimAccess);

// The A100 L2: 40 MB / (16 ways x 128 B) = 20480 sets, not a power of two,
// under a random sector stream (no locality: every access is a host cache
// miss on the 4 MB of tag state).  BM_CacheSimAccess's 256-set sequential
// stream never reaches the division or the miss path.
void BM_L2Access(benchmark::State& state) {
  const gpusim::MachineModel m = gpusim::a100();
  gpusim::SectoredCache cache(m.l2_bytes, m.line_bytes, m.sector_bytes, m.l2_ways);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> addrs(1 << 16);
  for (auto& a : addrs) a = (rng() % (std::uint64_t{1} << 30)) & ~std::uint64_t{31};
  std::size_t i = 0;
  for (auto _ : state) {
    auto out = cache.access(addrs[i], (i & 3) == 0);
    benchmark::DoNotOptimize(out);
    i = (i + 1) & (addrs.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Access);

// Stage 1's merge of one uniform warp position: 32 lanes loading 16 B at a
// 48 B stride (the 3LP k-major pattern), streaming through fresh lines so
// the L1 misses and every miss becomes an L2 request.
void BM_MergeWarp(benchmark::State& state) {
  gpusim::SmFrontEnd fe(gpusim::a100(), 1);
  std::vector<minisycl::LaneEvent> row(32);
  for (int l = 0; l < 32; ++l) {
    row[static_cast<std::size_t>(l)] =
        minisycl::LaneEvent{minisycl::EventKind::LoadGlobal, 16, 0, 0, 0,
                            static_cast<std::uint64_t>(l) * 48};
  }
  std::vector<gpusim::L2Op> ops;
  std::uint32_t mem_ops = 0;
  for (auto _ : state) {
    minisycl::detail::merge_position(fe, 0, row.data(), 32, nullptr, ops, mem_ops);
    benchmark::DoNotOptimize(ops.data());
    benchmark::ClobberMemory();
    ops.clear();
    for (auto& e : row) e.addr += 32 * 48;
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_MergeWarp);

void BM_Coalescer(benchmark::State& state) {
  std::vector<gpusim::LaneAccess> lanes;
  for (int l = 0; l < 32; ++l) {
    lanes.push_back({static_cast<std::uint64_t>(l) * 48, 16, static_cast<std::uint8_t>(l)});
  }
  std::vector<std::uint64_t> out;
  for (auto _ : state) {
    gpusim::coalesce_sectors(lanes, 32, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Coalescer);

void BM_BankAnalysis(benchmark::State& state) {
  std::vector<gpusim::LaneAccess> lanes;
  for (int l = 0; l < 32; ++l) {
    lanes.push_back({static_cast<std::uint64_t>(l) * 16, 16, static_cast<std::uint8_t>(l)});
  }
  for (auto _ : state) {
    auto r = gpusim::analyze_shared(lanes, 32, 4);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BankAnalysis);

}  // namespace

BENCHMARK_MAIN();
