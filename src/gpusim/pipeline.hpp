// pipeline.hpp — replays merged warp instructions through the simulated
// memory hierarchy (per-SM L1 caches → shared L2 → DRAM channel model) and
// accumulates the raw trace counters.
//
// Write policies mirror the A100: L1 is write-through/no-allocate for global
// stores, L2 is write-back/write-allocate; atomics bypass L1 and
// read-modify-write in L2.  Loads allocate in both levels.
//
// The hierarchy is split where its state is: an `SmFrontEnd` owns the L1s of
// a set of SMs (coalescing, bank analysis, atomic replay counting, L1) and
// emits the sectors that reach L2 as an ordered list of `L2Op`s; one
// `L2Backend` applies such lists to L2 and DRAM.  L1 state never crosses
// SMs, so front ends for disjoint SM sets can run on different threads, and
// the backend reproduces the serial result exactly as long as it sees the
// lists in the serial order (docs/SIMULATOR.md "Host replay").
// `PerfPipeline` is the two halves run back to back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/calibration.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/dram.hpp"
#include "gpusim/machine.hpp"
#include "gpusim/stats.hpp"

namespace gpusim {

/// One L2 sector request: the 32 B-aligned sector address with the flags
/// below in its (otherwise zero) low bits.
using L2Op = std::uint64_t;
inline constexpr L2Op kL2Write = 1;      ///< marks the sector dirty
inline constexpr L2Op kL2DramFill = 2;   ///< a miss fetches the sector from DRAM

/// Per-SM half: coalescer, shared-memory banks, atomics, L1.  Fills every
/// counter except the l2_* and dram_* ones.
class SmFrontEnd {
 public:
  /// Owns `num_l1` L1 caches, addressed by index 0..num_l1-1.
  SmFrontEnd(const MachineModel& m, int num_l1);

  /// One warp-level global load instruction (one divergence path group).
  void global_load(int l1, std::span<const LaneAccess> lanes, std::vector<L2Op>& out);

  /// One warp-level global store instruction.
  void global_store(int l1, std::span<const LaneAccess> lanes, std::vector<L2Op>& out);

  /// One warp-level global atomic read-modify-write (relaxed add).
  void global_atomic(std::span<const LaneAccess> lanes, std::vector<L2Op>& out);

  /// One warp-level shared (work-group local) memory instruction.
  void shared_access(std::span<const LaneAccess> lanes);

  [[nodiscard]] TraceCounters& counters() { return ctr_; }
  [[nodiscard]] const TraceCounters& counters() const { return ctr_; }

  void reset();

 private:
  int sector_bytes_;
  int shared_banks_;
  int shared_bank_bytes_;
  std::vector<SectoredCache> l1_;
  TraceCounters ctr_;
  std::vector<std::uint64_t> sectors_;  // scratch
  std::vector<std::uint64_t> addrs_;    // scratch
};

/// Device-wide half: L2 and DRAM.  Fills only the l2_* and dram_* counters.
class L2Backend {
 public:
  L2Backend(const MachineModel& m, const Calibration& cal);

  void apply(L2Op op);
  /// apply() each op in order, prefetching a few ops ahead.
  void apply(std::span<const L2Op> ops);

  /// Flush dirty L2 sectors to DRAM (end of kernel).
  void finalize();

  [[nodiscard]] const TraceCounters& counters() const { return ctr_; }
  [[nodiscard]] const DramModel& dram() const { return dram_; }

  void reset();

 private:
  SectoredCache l2_;
  DramModel dram_;
  TraceCounters ctr_;
};

/// Both halves run inline for one ordered instruction stream.
class PerfPipeline {
 public:
  PerfPipeline(const MachineModel& m, const Calibration& cal);

  void global_load(int sm, std::span<const LaneAccess> lanes);
  void global_store(int sm, std::span<const LaneAccess> lanes);
  void global_atomic(int sm, std::span<const LaneAccess> lanes);
  void shared_access(std::span<const LaneAccess> lanes, bool write);

  /// Flush dirty L2 sectors to DRAM (end of kernel).
  void finalize();

  /// Sum of both halves' counters.
  [[nodiscard]] TraceCounters counters() const;
  [[nodiscard]] const DramModel& dram() const { return back_.dram(); }

  void reset();

 private:
  void drain();

  SmFrontEnd front_;
  L2Backend back_;
  std::vector<L2Op> ops_;
};

}  // namespace gpusim
