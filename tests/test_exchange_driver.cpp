// test_exchange_driver.cpp — one halo-exchange driver behind every entry.
//
// run(), both run_functional overloads and every attempt of the hardened
// recovery loop make the same pass over the ShardPlan.  Its two switches
// are an installed fault plan and MultiDevRequest::mode, so:
//  * a fault plan that injects nothing changes no field of MultiDevResult
//    except the hardened-only `exchange` report and `faults` log — on one
//    island and across the fabric, on the exact and the fp16 wire, profiled
//    and functional;
//  * run(mode = functional), run_functional(problem, grid, ...) and
//    run_functional(problem, plan, ...) write the same bytes, which on the
//    fp64 wire are the single-device run's;
//  * dsan checks the recorded flow clean in every mode;
//  * the NaN re-poison seam (detail::ScopedSkipUnpack) reaches the driver's
//    unpack step on every path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <tuple>

#include "dsan/check.hpp"
#include "faultsim/faultsim.hpp"
#include "multidev/runner.hpp"

namespace milc::multidev {
namespace {

using faultsim::FaultPlan;
using faultsim::ScopedFaultInjection;
using minisycl::ExecMode;

constexpr int kL = 12;
constexpr std::uint64_t kSeed = 2024;
const PartitionGrid kGrid{.devices = {1, 1, 2, 2}};
const RunRequest kReq{.strategy = Strategy::LP3_1,
                      .order = IndexOrder::kMajor,
                      .local_size = 768,
                      .variant = Variant::SYCL};

bool same_bytes(const ColorField& a, const ColorField& b) {
  return a.bytes() == b.bytes() && std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

std::int64_t non_finite_sites(const ColorField& f) {
  std::int64_t n = 0;
  for (std::int64_t s = 0; s < f.size(); ++s) {
    for (int c = 0; c < kColors; ++c) {
      if (!std::isfinite(f[s].c[c].re) || !std::isfinite(f[s].c[c].im)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

MultiDevRequest request(const gpusim::NodeTopology& topo, SpinorWire sw, ExecMode mode) {
  MultiDevRequest mreq;
  mreq.grid = kGrid;
  mreq.req = kReq;
  mreq.topo = topo;
  mreq.wire = WireFormat{.spinor = sw};
  mreq.mode = mode;
  return mreq;
}

/// Every MultiDevResult field except the hardened-only exchange and faults.
void expect_same_result(const MultiDevResult& a, const MultiDevResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.per_iter_us, b.per_iter_us);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_EQ(a.overlap_efficiency, b.overlap_efficiency);
  EXPECT_EQ(a.comm_fraction, b.comm_fraction);
  EXPECT_EQ(a.surface_fraction, b.surface_fraction);
  EXPECT_EQ(a.halo_bytes, b.halo_bytes);
  EXPECT_EQ(to_string(a.wire), to_string(b.wire));
  ASSERT_EQ(a.per_device.size(), b.per_device.size());
  for (std::size_t d = 0; d < a.per_device.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    const DeviceTimeline& x = a.per_device[d];
    const DeviceTimeline& y = b.per_device[d];
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_EQ(x.interior_sites, y.interior_sites);
    EXPECT_EQ(x.boundary_sites, y.boundary_sites);
    EXPECT_EQ(x.halo_bytes_in, y.halo_bytes_in);
    EXPECT_EQ(x.pack_us, y.pack_us);
    EXPECT_EQ(x.interior_us, y.interior_us);
    EXPECT_EQ(x.arrival_us, y.arrival_us);
    EXPECT_EQ(x.unpack_us, y.unpack_us);
    EXPECT_EQ(x.boundary_us, y.boundary_us);
    EXPECT_EQ(x.exposed_us, y.exposed_us);
    EXPECT_EQ(x.iter_us, y.iter_us);
  }
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes);
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes);
  EXPECT_EQ(a.fabric_messages, b.fabric_messages);
  EXPECT_EQ(a.intra_wire_us, b.intra_wire_us);
  EXPECT_EQ(a.inter_wire_us, b.inter_wire_us);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.final_grid.label(), b.final_grid.label());
  EXPECT_EQ(a.recovery_us, b.recovery_us);
  EXPECT_EQ(a.failovers.size(), b.failovers.size());
  EXPECT_EQ(a.shard_recoveries.size(), b.shard_recoveries.size());
  EXPECT_EQ(a.spares_consumed, b.spares_consumed);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.capacity_restored, b.capacity_restored);
  EXPECT_EQ(a.rereplicated_bytes, b.rereplicated_bytes);
  EXPECT_EQ(a.rereplication_us, b.rereplication_us);
}

struct Topo {
  const char* name;
  gpusim::NodeTopology topo;
};

void PrintTo(const Topo& t, std::ostream* os) { *os << t.name; }

const Topo kTopos[] = {{"island", gpusim::NodeTopology{}},
                       {"cluster2x2", gpusim::cluster(2, 2)}};

class EmptyPlan
    : public ::testing::TestWithParam<std::tuple<Topo, SpinorWire, ExecMode>> {};

TEST_P(EmptyPlan, ChangesNothingButTheHardenedReports) {
  const auto& [topo, sw, mode] = GetParam();
  const MultiDeviceRunner runner;
  const MultiDevRequest mreq = request(topo.topo, sw, mode);

  DslashProblem clean(kL, kSeed);
  const MultiDevResult fault_free = runner.run(clean, mreq);
  DslashProblem hardened(kL, kSeed);
  MultiDevResult empty;
  {
    ScopedFaultInjection fi(FaultPlan{});
    empty = runner.run(hardened, mreq);
  }

  expect_same_result(fault_free, empty);
  EXPECT_TRUE(same_bytes(clean.c(), hardened.c()));
  EXPECT_EQ(non_finite_sites(clean.c()), 0);
  // The hardened reports say a clean exchange happened; the fault-free
  // run keeps the default (empty) ones.
  EXPECT_TRUE(empty.exchange.succeeded);
  EXPECT_TRUE(empty.exchange.clean()) << empty.exchange.summary();
  EXPECT_EQ(empty.exchange.rounds, 1);
  EXPECT_TRUE(empty.faults.empty());
  EXPECT_FALSE(fault_free.exchange.succeeded);
  EXPECT_TRUE(fault_free.exchange.events.empty());
  // Every slab is accounted to exactly one tier on both paths.
  EXPECT_GT(empty.intra_node_bytes, 0);
  if (topo.topo.multi_node()) {
    EXPECT_EQ(empty.nodes, 2);
    EXPECT_GT(empty.inter_node_bytes, 0);
  } else {
    EXPECT_EQ(empty.intra_node_bytes, empty.halo_bytes);
  }
  if (mode == ExecMode::functional) {
    for (const DeviceTimeline& t : empty.per_device) {
      EXPECT_GT(t.arrival_us, 0.0) << "functional applies still price the wire";
    }
  }
}

std::string case_name(
    const ::testing::TestParamInfo<std::tuple<Topo, SpinorWire, ExecMode>>& info) {
  const Topo& topo = std::get<0>(info.param);
  const bool fp64 = std::get<1>(info.param) == SpinorWire::fp64;
  const bool profiled = std::get<2>(info.param) == ExecMode::profiled;
  return std::string(topo.name) + (fp64 ? "_fp64" : "_fp16") +
         (profiled ? "_profiled" : "_functional");
}

INSTANTIATE_TEST_SUITE_P(
    Driver, EmptyPlan,
    ::testing::Combine(::testing::ValuesIn(kTopos),
                       ::testing::Values(SpinorWire::fp64, SpinorWire::fp16),
                       ::testing::Values(ExecMode::profiled, ExecMode::functional)),
    case_name);

TEST(ExchangeDriver, CleanIslandRunKeepsItsNvlinkBytes) {
  // 12^4 on 1x1x2x2 moves 995 328 halo bytes per apply, all over NVLink.
  const MultiDeviceRunner runner;
  const MultiDevRequest mreq = request(gpusim::NodeTopology{}, SpinorWire::fp64,
                                       ExecMode::functional);
  DslashProblem problem(kL, kSeed);
  ScopedFaultInjection fi(FaultPlan{});
  const MultiDevResult res = runner.run(problem, mreq);
  EXPECT_EQ(res.halo_bytes, 995'328);
  EXPECT_EQ(res.intra_node_bytes, 995'328);
  EXPECT_EQ(res.inter_node_bytes, 0);
}

TEST(ExchangeDriver, FunctionalEntriesWriteTheSameBytes) {
  const MultiDeviceRunner runner;
  for (const SpinorWire sw : {SpinorWire::fp64, SpinorWire::fp16}) {
    SCOPED_TRACE(sw == SpinorWire::fp64 ? "fp64" : "fp16");
    const WireFormat wire{.spinor = sw};

    DslashProblem via_run(kL, kSeed);
    (void)runner.run(via_run, request(gpusim::cluster(2, 2), sw, ExecMode::functional));

    DslashProblem one_shot(kL, kSeed);
    runner.run_functional(one_shot, kGrid, kReq.strategy, kReq.order, kReq.local_size, wire);

    DslashProblem resident(kL, kSeed);
    ShardPlan plan(resident, kGrid);
    for (int apply = 0; apply < 2; ++apply) {
      runner.run_functional(resident, plan, kReq.strategy, kReq.order, kReq.local_size,
                            wire);
    }

    EXPECT_EQ(non_finite_sites(via_run.c()), 0);
    EXPECT_TRUE(same_bytes(via_run.c(), one_shot.c()));
    EXPECT_TRUE(same_bytes(via_run.c(), resident.c()));
    if (sw == SpinorWire::fp64) {
      DslashProblem single(kL, kSeed);
      DslashRunner().run_functional(single, kReq.strategy, kReq.order, kReq.local_size);
      EXPECT_TRUE(same_bytes(via_run.c(), single.c()));
    }
  }
}

void expect_all_clean(const std::vector<ksan::SanitizerReport>& reports) {
  ASSERT_EQ(reports.size(), 4u);
  for (const ksan::SanitizerReport& rep : reports) {
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_EQ(rep.lint_count(), 0u) << rep.summary();
  }
}

TEST(ExchangeDriver, DsanChecksCleanInEveryMode) {
  const MultiDeviceRunner runner;
  for (const Topo& topo : kTopos) {
    for (const ExecMode mode : {ExecMode::profiled, ExecMode::functional}) {
      for (const bool with_plan : {false, true}) {
        SCOPED_TRACE(std::string(topo.name) +
                     (mode == ExecMode::profiled ? " profiled" : " functional") +
                     (with_plan ? " empty plan" : " fault-free"));
        DslashProblem problem(kL, kSeed);
        const MultiDevRequest mreq = request(topo.topo, SpinorWire::fp64, mode);
        if (with_plan) {
          ScopedFaultInjection fi(FaultPlan{});
          expect_all_clean(runner.dsan_check(problem, mreq));
        } else {
          expect_all_clean(runner.dsan_check(problem, mreq));
        }
      }
    }
  }
  DslashProblem problem(kL, kSeed);
  dsan::ScopedRecorder sr;
  runner.run_functional(problem, kGrid, kReq.strategy, kReq.order, kReq.local_size);
  expect_all_clean(dsan::check_all(sr.rec.trace(), "run_functional"));
}

TEST(ExchangeDriver, SkippedUnpackYieldsNaNOnEveryPath) {
  const MultiDeviceRunner runner;
  for (const ExecMode mode : {ExecMode::profiled, ExecMode::functional}) {
    for (const bool with_plan : {false, true}) {
      SCOPED_TRACE(std::string(mode == ExecMode::profiled ? "profiled" : "functional") +
                   (with_plan ? " empty plan" : " fault-free"));
      DslashProblem problem(kL, kSeed);
      const MultiDevRequest mreq = request(gpusim::NodeTopology{}, SpinorWire::fp64, mode);
      const detail::ScopedSkipUnpack skip(/*rank=*/0, /*mi=*/0);
      if (with_plan) {
        ScopedFaultInjection fi(FaultPlan{});
        (void)runner.run(problem, mreq);
      } else {
        (void)runner.run(problem, mreq);
      }
      EXPECT_GT(non_finite_sites(problem.c()), 0);
    }
  }
  DslashProblem problem(kL, kSeed);
  const detail::ScopedSkipUnpack skip(/*rank=*/1, /*mi=*/0);
  runner.run_functional(problem, kGrid, kReq.strategy, kReq.order, kReq.local_size);
  EXPECT_GT(non_finite_sites(problem.c()), 0);
}

}  // namespace
}  // namespace milc::multidev
