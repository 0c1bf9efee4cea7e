// replay.hpp — the staged host replay behind execute_profiled.
//
// A profiled launch is replayed in three stages (docs/SIMULATOR.md "Host
// replay"):
//   0. the caller runs the kernel's TraceLanes in wave → round → group → warp
//      order, appending each warp-step's lane events to a chunk buffer;
//   1. front ends, each owning the L1s of the SMs with sm mod W == its index,
//      merge warp positions into instructions, coalesce, analyse banks, count
//      atomic replays and run L1, emitting each step's ordered L2 requests;
//   2. one backend applies those requests to L2 and DRAM in global step
//      order and sums control slots in the same order.
// Once a launch has buffered more than one chunk of events, stage 1 runs on
// W worker threads and stage 2 on one more, over a fixed ring of chunks;
// otherwise both run inline on the caller.  Every counter and timing input
// is identical either way, for any W.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/calibration.hpp"
#include "gpusim/machine.hpp"
#include "gpusim/pipeline.hpp"
#include "gpusim/stats.hpp"
#include "minisycl/lane.hpp"

namespace minisycl {

/// One kernel-visible buffer, declared at launch time so the profiler can
/// normalize its addresses (see LaunchSpec::regions).
struct AddressRegion {
  const void* base = nullptr;
  std::int64_t bytes = 0;
};

namespace detail {

/// Host-address -> canonical-device-address mapping built from a launch's
/// declared regions.  Canonical bases are assigned by *declaration order*
/// (a pure function of the launch), 256-byte aligned with a guard gap, so
/// two buffers never share a cache line whatever the host heap did.
/// Addresses outside every declared region pass through unchanged.
/// translate() updates a lookup hint, so each thread needs its own copy.
class AddressMap {
 public:
  static constexpr std::uint64_t kCanonicalBase = 1ull << 40;
  static constexpr std::uint64_t kRegionAlign = 256;

  explicit AddressMap(const std::vector<AddressRegion>& regions);

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] std::uint64_t translate(std::uint64_t addr) const {
    // Accesses cluster by buffer: try the last-hit region before searching.
    if (last_ < entries_.size()) {
      const Entry& e = entries_[last_];
      if (addr >= e.host && addr - e.host < e.bytes) return e.canonical + (addr - e.host);
    }
    return translate_slow(addr);
  }

 private:
  struct Entry {
    std::uint64_t host = 0;
    std::uint64_t bytes = 0;
    std::uint64_t canonical = 0;
  };
  [[nodiscard]] std::uint64_t translate_slow(std::uint64_t addr) const;

  std::vector<Entry> entries_;
  mutable std::size_t last_ = 0;
};

/// Stage 1's merge: one event position of a warp (`row[l]` is lane l's
/// event) becomes one warp instruction per divergence path, fed to the
/// front end's L1 `l1`; the L2 requests it makes are appended to `ops` and
/// each memory instruction bumps `mem_ops`.
void merge_position(gpusim::SmFrontEnd& fe, int l1, const LaneEvent* row, int lanes,
                    const AddressMap* amap, std::vector<gpusim::L2Op>& ops,
                    std::uint32_t& mem_ops);

/// How a launch's replay may use threads.  Production launches use
/// default_replay_plan(); tests pin both fields to compare schedules.
struct ReplayPlan {
  int workers = 0;               ///< stage-1 threads once engaged; 0 = always inline
  std::size_t chunk_events = 0;  ///< lane events per chunk before it is handed off
};

/// workers = cores - 2 from std::thread::hardware_concurrency() (0 below
/// three cores: the caller and the stage-2 thread each keep one busy),
/// chunk_events = kChunkEvents.
[[nodiscard]] ReplayPlan default_replay_plan();

/// Lane events per chunk.  A chunk closes at the first warp-step boundary
/// past this many events, so the ring of kChunkSlots chunks bounds in-flight
/// replay memory by a constant independent of the launch size.
inline constexpr std::size_t kChunkEvents = std::size_t{1} << 16;
inline constexpr int kChunkSlots = 3;

/// What a finished replay hands back to make_stats.
struct ReplayTotals {
  gpusim::TraceCounters counters;  ///< stage-1 partials + stage-2 counters
  double dram_cost_units = 0.0;
  double control_slots = 0.0;
};

class Replay {
 public:
  Replay(const gpusim::MachineModel& m, const gpusim::Calibration& cal,
         const std::vector<AddressRegion>& regions, ReplayPlan plan);
  /// Stops and joins any worker threads (also when a kernel threw).
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;
  Replay(Replay&&) = delete;
  Replay& operator=(Replay&&) = delete;

  /// Stage-0 sink: the lanes of the next warp-step append their events
  /// here, one lane after another.
  [[nodiscard]] std::vector<LaneEvent>& events();

  /// Close the warp-step whose `lanes` lanes were just recorded, starting at
  /// index `begin` of events().  May hand the chunk to the other stages
  /// (and rethrows a worker's failure).
  void end_step(int sm, int lanes, std::size_t begin);

  /// Replay what is still buffered, flush L2 and return the launch totals.
  [[nodiscard]] ReplayTotals finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace detail
}  // namespace minisycl
