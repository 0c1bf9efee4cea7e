// Sectored-cache and DRAM row-buffer model tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/dram.hpp"

namespace gpusim {
namespace {

// A tiny cache: 4 sets x 2 ways x 128 B lines = 1 KiB, 32 B sectors.
SectoredCache tiny() { return SectoredCache(1024, 128, 32, 2); }

TEST(SectoredCache, ColdMissThenHit) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101f, false).hit);  // same sector
}

TEST(SectoredCache, SectorGranularity) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x0, false).hit);
  // Same 128 B line, different 32 B sector: line present, sector missing.
  EXPECT_FALSE(c.access(0x20, false).hit);
  EXPECT_TRUE(c.access(0x20, false).hit);
  EXPECT_TRUE(c.access(0x0, false).hit);  // first sector still resident
}

TEST(SectoredCache, LruEviction) {
  auto c = tiny();
  // Three lines mapping to the same set (set stride = 4 lines = 512 B).
  EXPECT_FALSE(c.access(0 * 512, false).hit);
  EXPECT_FALSE(c.access(1 * 512, false).hit);
  EXPECT_TRUE(c.access(0 * 512, false).hit);   // touch line 0 -> line 1 is LRU
  EXPECT_FALSE(c.access(2 * 512, false).hit);  // evicts line 1
  EXPECT_TRUE(c.access(0 * 512, false).hit);
  EXPECT_FALSE(c.access(1 * 512, false).hit);  // line 1 was evicted
}

TEST(SectoredCache, DirtyWritebackOnEviction) {
  auto c = tiny();
  c.access(0 * 512, true);   // dirty sector
  c.access(0 * 512 + 32, true);  // second dirty sector, same line
  c.access(1 * 512, false);
  const auto out = c.access(2 * 512, false);  // evicts the dirty line (LRU)
  EXPECT_EQ(out.writeback_sectors, 2);
}

TEST(SectoredCache, NoAllocateLeavesCacheCold) {
  auto c = tiny();
  EXPECT_FALSE(c.access(0x40, false, /*allocate=*/false).hit);
  EXPECT_FALSE(c.access(0x40, false).hit);  // still a miss: nothing was installed
}

TEST(SectoredCache, FlushReturnsDirtySectors) {
  auto c = tiny();
  c.access(0, true);     // set 0, dirty
  c.access(128, true);   // set 1, dirty
  c.access(256, false);  // set 2, clean
  EXPECT_EQ(c.flush(), 2);
  EXPECT_FALSE(c.access(0, false).hit);
}

TEST(SectoredCache, ResetClears) {
  auto c = tiny();
  c.access(0, false);
  c.reset();
  EXPECT_FALSE(c.access(0, false).hit);
}

TEST(SectoredCache, CapacityHoldsWorkingSet) {
  // 1 KiB cache must keep a 1 KiB working set resident (no conflict misses
  // with perfect alignment: 8 lines over 4 sets x 2 ways).
  auto c = tiny();
  for (int rep = 0; rep < 3; ++rep) {
    int misses = 0;
    for (std::uint64_t a = 0; a < 1024; a += 32) {
      if (!c.access(a, false).hit) ++misses;
    }
    if (rep == 0) {
      EXPECT_EQ(misses, 32);  // cold
    } else {
      EXPECT_EQ(misses, 0);  // fully resident
    }
  }
}

// ------------------------------------------------------ geometry checks --

template <typename Make>
void expect_rejected(Make make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(SectoredCache, RejectsBadGeometryNamingTheField) {
  expect_rejected([] { SectoredCache(96 * 4 * 8, 96, 32, 4); }, "line_bytes");
  expect_rejected([] { SectoredCache(128 * 4 * 8, 128, 24, 4); }, "sector_bytes");
  expect_rejected([] { SectoredCache(128 * 4 * 8, 32, 64, 4); }, "sector_bytes");
  // 8 sectors per line: more than the packed masks hold.
  expect_rejected([] { SectoredCache(256 * 4 * 8, 256, 32, 4); }, "sectors per line");
  expect_rejected([] { SectoredCache(128 * 4 * 8, 128, 32, 0); }, "ways");
  expect_rejected([] { SectoredCache(1000, 128, 32, 4); }, "total_bytes");
  expect_rejected([] { SectoredCache(0, 128, 32, 4); }, "total_bytes");
}

TEST(DramModel, RejectsNonPowerOfTwoGeometryNamingTheField) {
  const Calibration cal;
  const auto with = [&cal](auto edit) {
    return [&cal, edit] {
      MachineModel m = a100();
      edit(m);
      DramModel d(m, cal);
    };
  };
  expect_rejected(with([](MachineModel& m) { m.dram_interleave_bytes = 384; }),
                  "dram_interleave_bytes");
  expect_rejected(with([](MachineModel& m) { m.dram_row_bytes = 6000; }), "dram_row_bytes");
  expect_rejected(with([](MachineModel& m) { m.dram_channels = 24; }), "dram_channels");
  expect_rejected(with([](MachineModel& m) { m.dram_banks_per_channel = 12; }),
                  "dram_banks_per_channel");
  expect_rejected(with([](MachineModel& m) { m.dram_channels = 0; }), "dram_channels");
}

// ------------------------------------------- brute-force reference cache --

/// The straightforward model the compact one must reproduce: one struct per
/// line, 64-bit LRU stamps that never wrap, division-based indexing.
class ReferenceCache {
 public:
  ReferenceCache(std::int64_t total_bytes, int line_bytes, int sector_bytes, int ways)
      : line_(static_cast<std::uint64_t>(line_bytes)),
        sector_(static_cast<std::uint64_t>(sector_bytes)),
        ways_(static_cast<std::size_t>(ways)),
        sets_(static_cast<std::uint64_t>(total_bytes) / (line_ * ways_)),
        lines_(sets_ * ways_) {}

  SectoredCache::Outcome access(std::uint64_t addr, bool write, bool allocate) {
    const std::uint64_t tag = addr / line_;
    const std::uint32_t bit = 1u << ((addr / sector_) % (line_ / sector_));
    Line* set = &lines_[(tag % sets_) * ways_];
    ++tick_;
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& ln = set[w];
      if (ln.valid != 0 && ln.tag == tag) {
        ln.lru = tick_;
        SectoredCache::Outcome out;
        out.hit = (ln.valid & bit) != 0;
        if (!out.hit && allocate) ln.valid |= bit;
        if (write && (out.hit || allocate)) ln.dirty |= bit;
        return out;
      }
    }
    if (!allocate) return {};
    Line* victim = nullptr;
    for (std::size_t w = 0; w < ways_ && victim == nullptr; ++w) {
      if (set[w].valid == 0) victim = &set[w];
    }
    if (victim == nullptr) {
      victim = set;
      for (std::size_t w = 1; w < ways_; ++w) {
        if (set[w].lru < victim->lru) victim = &set[w];
      }
    }
    SectoredCache::Outcome out;
    out.writeback_sectors = std::popcount(victim->dirty);
    *victim = Line{tag, bit, write ? bit : 0u, tick_};
    return out;
  }

  std::int64_t flush() {
    std::int64_t dirty = 0;
    for (Line& ln : lines_) {
      dirty += std::popcount(ln.dirty);
      ln = Line{};
    }
    return dirty;
  }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint32_t valid = 0;
    std::uint32_t dirty = 0;
    std::uint64_t lru = 0;
  };
  std::uint64_t line_;
  std::uint64_t sector_;
  std::size_t ways_;
  std::uint64_t sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
};

/// A sector stream that stresses replacement: hot conflict sets (far more
/// lines than ways), wide random traffic and a sequential run, with random
/// writes and no-allocate accesses.
struct Access {
  std::uint64_t addr;
  bool write;
  bool allocate;
};

std::vector<Access> stress_stream(std::uint64_t sets, int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> hot_sets(32);
  for (auto& s : hot_sets) s = rng() % sets;
  std::vector<Access> out;
  std::uint64_t seq = 0;
  for (int i = 0; i < n; ++i) {
    std::uint64_t line = 0;
    const std::uint64_t pick = rng() % 10;
    if (pick < 4) {
      line = hot_sets[rng() % hot_sets.size()] + (rng() % 48) * sets;
    } else if (pick < 8) {
      line = rng() % (sets * 64);
    } else {
      line = seq++ / 4;
    }
    const std::uint64_t addr = line * 128 + rng() % 128;
    out.push_back({addr, rng() % 10 < 3, rng() % 10 < 9});
  }
  return out;
}

void expect_matches_reference(std::uint64_t sets, int n, std::uint32_t clock_skip) {
  const auto total = static_cast<std::int64_t>(sets * 16 * 128);
  SectoredCache cache(total, 128, 32, 16);
  ReferenceCache ref(total, 128, 32, 16);
  ASSERT_EQ(cache.sets(), static_cast<std::int64_t>(sets));
  const std::vector<Access> stream = stress_stream(sets, n, sets);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    // Halfway through, jump the compact cache's clock to just below the
    // 32-bit wrap; the reference clock never wraps.
    if (i == stream.size() / 2) cache.advance_clock(clock_skip);
    const Access& a = stream[i];
    const SectoredCache::Outcome got = cache.access(a.addr, a.write, a.allocate);
    const SectoredCache::Outcome want = ref.access(a.addr, a.write, a.allocate);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback_sectors, want.writeback_sectors) << "access " << i;
  }
  EXPECT_EQ(cache.flush(), ref.flush());
}

TEST(SectoredCache, MatchesReferenceAtSmallL2Geometry) {
  // bench_arch_sweep's L2/8: 5 MB / (16 x 128 B) = 2560 sets, not a power of 2.
  expect_matches_reference(2560, 400000, 0);
}

TEST(SectoredCache, MatchesReferenceAtA100L2Geometry) {
  // 40 MB / (16 x 128 B) = 20480 sets.
  expect_matches_reference(20480, 400000, 0);
}

TEST(SectoredCache, MatchesReferenceAcrossLruClockWrap) {
  // The skip lands the clock 1000 accesses short of 2^32 - 1, so the wrap
  // (and the rank renumbering) happens mid-stream with every set populated.
  expect_matches_reference(2560, 200000, std::numeric_limits<std::uint32_t>::max() - 100000 - 1000);
}

// -------------------------------------------------------------------- DRAM --

TEST(DramModel, StreamingHitsOpenRows) {
  MachineModel m = a100();
  Calibration cal;
  DramModel d(m, cal);
  // A long consecutive-sector stream: within each 256 B channel interleave
  // chunk, 7 of 8 sectors hit the open row.
  for (std::uint64_t a = 0; a < 1 << 20; a += 32) d.access(a);
  EXPECT_GT(d.burst_efficiency(), 0.85);
}

TEST(DramModel, ScatteredMissesRows) {
  MachineModel m = a100();
  Calibration cal;
  DramModel d(m, cal);
  // Jump by a prime number of rows every access: almost every access misses.
  std::uint64_t a = 0;
  for (int i = 0; i < 10000; ++i) {
    d.access(a);
    a += 8192 * 7 + 256;
  }
  EXPECT_LT(d.burst_efficiency(), 0.55);
}

TEST(DramModel, OpaqueWritebacksArePessimistic) {
  MachineModel m = a100();
  Calibration cal;
  DramModel d(m, cal);
  d.access_opaque(10);
  EXPECT_EQ(d.sectors(), 10u);
  EXPECT_EQ(d.row_hits(), 0u);
}

TEST(DramModel, CostUnitsCombineHitsAndMisses) {
  MachineModel m = a100();
  Calibration cal;
  cal.dram_row_miss_penalty = 3.0;
  DramModel d(m, cal);
  d.access(0);      // row miss
  d.access(32);     // row hit
  EXPECT_DOUBLE_EQ(d.cost_units(), 3.0 + 1.0);
  EXPECT_DOUBLE_EQ(d.burst_efficiency(), 2.0 / 4.0);
}

}  // namespace
}  // namespace gpusim
