// test_problem.cpp — DslashProblem's lazily built single-device layout: the
// first device_gauge()/args() call builds exactly the eager layout, once,
// even when several threads make that first call at the same time.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/problem.hpp"

namespace milc {
namespace {

TEST(DslashProblem, LazyDeviceGaugeEqualsTheEagerLayout) {
  const DslashProblem problem(Coords{4, 6, 8, 10}, /*seed=*/41, Parity::Odd);
  const DeviceGaugeLayout eager(problem.view());
  const DeviceGaugeLayout& lazy = problem.device_gauge();
  ASSERT_EQ(lazy.sites(), eager.sites());
  ASSERT_EQ(lazy.family_bytes(), eager.family_bytes());
  for (int l = 0; l < kNlinks; ++l) {
    for (std::int64_t s = 0; s < eager.sites(); ++s) {
      for (int k = 0; k < kNdim; ++k) {
        for (int i = 0; i < kColors; ++i) {
          for (int j = 0; j < kColors; ++j) {
            const dcomplex& a = lazy.at(l, s, k, i, j);
            const dcomplex& b = eager.at(l, s, k, i, j);
            ASSERT_EQ(a.re, b.re);
            ASSERT_EQ(a.im, b.im);
          }
        }
      }
    }
  }
  EXPECT_EQ(&problem.device_gauge(), &lazy) << "built once, then reused";
}

TEST(DslashProblem, ArgsPointIntoTheLazyLayout) {
  DslashProblem problem(8, /*seed=*/42);
  const DslashArgs<dcomplex> a = problem.args();
  for (int l = 0; l < kNlinks; ++l) EXPECT_EQ(a.links[l], problem.device_gauge().family(l));
}

TEST(DslashProblem, ConcurrentFirstUseBuildsOneLayout) {
  const DslashProblem problem(8, /*seed=*/43);
  constexpr int kThreads = 4;
  std::vector<const DeviceGaugeLayout*> seen(kThreads, nullptr);
  std::vector<const dcomplex*> data(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const DeviceGaugeLayout& g = problem.device_gauge();
        seen[static_cast<std::size_t>(t)] = &g;
        data[static_cast<std::size_t>(t)] = g.family(0);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(data[static_cast<std::size_t>(t)], data[0]) << "one build, one buffer";
  }
  EXPECT_EQ(problem.device_gauge().sites(), problem.sites());
}

}  // namespace
}  // namespace milc
