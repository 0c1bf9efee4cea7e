// executor.hpp — runs a phased kernel over an nd_range.
//
// Two modes:
//  * execute_functional: plain host loops, FastLane, no simulation — used by
//    correctness tests and the examples.
//  * execute_profiled: wave-scheduled, warp-granular execution with
//    TraceLane.  Work-groups are assigned round-robin to the machine's SMs
//    (per-SM L1), resident groups of a wave interleave their warps
//    round-robin (shared L2/DRAM), and each warp's 32 event streams are
//    merged position-by-position into warp instructions for the performance
//    pipeline.  The merge and the memory hierarchy run as the staged replay
//    of replay.hpp; this file is its stage 0.
//
// Barrier semantics: a kernel declares `num_phases`; the executor runs phase
// p for every work-item of a group before phase p+1 — precisely what
// group_barrier guarantees (DESIGN.md §5 "phase-split barriers").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/machine.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/timing.hpp"
#include "minisycl/lane.hpp"
#include "minisycl/replay.hpp"
#include "minisycl/traits.hpp"

namespace minisycl {

/// A kernel launch: the SYCL nd_range plus local-memory request and phase
/// count (barriers = num_phases - 1).
struct LaunchSpec {
  std::int64_t global_size = 0;
  int local_size = 1;
  int shared_bytes = 0;
  int num_phases = 1;
  KernelTraits traits{};
  /// Deterministic address normalization.  Global accesses are recorded with
  /// real host pointer values; cache-set and DRAM-row modelling over raw
  /// heap addresses would make simulated *time* depend on the process's
  /// allocation history (and ASLR).  Declaring the launch's buffers here —
  /// in a fixed, launch-derived order — remaps every access into a
  /// canonical device address space laid out by declaration order, making
  /// profiled timing a pure function of the launch.  The tuning cache's
  /// bit-for-bit replay contract (docs/TUNING.md) depends on this.  Empty =
  /// identity mapping (the pre-existing behaviour).
  std::vector<AddressRegion> regions;
};

/// Kernel concept: callable as kernel(lane, phase) for both lane types.
template <typename K>
concept PhasedKernel = requires(const K& k, FastLane& f, TraceLane& t) {
  k(f, 0);
  k(t, 0);
};

/// Correctness-only execution.
template <PhasedKernel Kernel>
void execute_functional(const LaunchSpec& spec, const Kernel& kernel) {
  assert(spec.global_size % spec.local_size == 0);
  const std::int64_t groups = spec.global_size / spec.local_size;
  std::vector<std::byte> local(static_cast<std::size_t>(spec.shared_bytes));
  for (std::int64_t g = 0; g < groups; ++g) {
    for (int phase = 0; phase < spec.num_phases; ++phase) {
      for (int t = 0; t < spec.local_size; ++t) {
        ItemIds ids{g * spec.local_size + t, t, g, spec.local_size};
        FastLane lane(ids, local.data());
        kernel(lane, phase);
      }
    }
  }
}

namespace detail {

/// execute_profiled with an explicit replay plan (tests compare schedules;
/// everything else goes through execute_profiled).
template <PhasedKernel Kernel>
gpusim::KernelStats execute_profiled_with(const gpusim::MachineModel& m,
                                          const gpusim::Calibration& cal,
                                          const LaunchSpec& spec, const Kernel& kernel,
                                          std::string stats_name, ReplayPlan plan) {
  gpusim::LaunchConfig cfg;
  cfg.global_size = spec.global_size;
  cfg.local_size = spec.local_size;
  cfg.shared_bytes_per_group = spec.shared_bytes;
  cfg.regs_per_thread = spec.traits.regs_per_thread;
  cfg.num_phases = spec.num_phases;

  const gpusim::OccupancyInfo occ = gpusim::compute_occupancy(m, cal, cfg);
  Replay replay(m, cal, spec.regions, plan);
  gpusim::TraceCounters sched;  // the counters stage 0 itself owns
  sched.work_items = static_cast<std::uint64_t>(spec.global_size);

  const int warp = m.warp_size;
  const int warps_per_group = (spec.local_size + warp - 1) / warp;
  const std::int64_t groups = spec.global_size / spec.local_size;
  const std::int64_t wave_cap = static_cast<std::int64_t>(occ.groups_per_sm) * m.num_sms;

  struct GroupState {
    int phase = 0;
    int next_warp = 0;
  };
  std::vector<GroupState> states;
  std::vector<std::vector<std::byte>> local_mem;

  for (std::int64_t wave_start = 0; wave_start < groups; wave_start += wave_cap) {
    const std::int64_t wave_n = std::min<std::int64_t>(wave_cap, groups - wave_start);
    states.assign(static_cast<std::size_t>(wave_n), GroupState{});
    local_mem.assign(static_cast<std::size_t>(wave_n),
                     std::vector<std::byte>(static_cast<std::size_t>(spec.shared_bytes)));

    std::int64_t done = 0;
    while (done < wave_n) {
      for (std::int64_t gi = 0; gi < wave_n; ++gi) {
        GroupState& st = states[static_cast<std::size_t>(gi)];
        if (st.phase >= spec.num_phases) continue;
        const std::int64_t g = wave_start + gi;
        const int sm = static_cast<int>(gi % m.num_sms);

        // Execute one warp of this group's current phase; its lanes record
        // one after another into the replay's chunk.
        const int w = st.next_warp;
        const int lanes = std::min(warp, spec.local_size - w * warp);
        std::vector<LaneEvent>& events = replay.events();
        const std::size_t begin = events.size();
        [[maybe_unused]] std::size_t per_lane = 0;
        for (int l = 0; l < lanes; ++l) {
          const std::size_t lane_begin = events.size();
          const int lid = w * warp + l;
          ItemIds ids{g * spec.local_size + lid, lid, g, spec.local_size};
          TraceLane lane(ids, local_mem[static_cast<std::size_t>(gi)].data(), &events);
          kernel(lane, st.phase);
          if (l == 0) per_lane = events.size() - lane_begin;
          assert(events.size() - lane_begin == per_lane &&
                 "kernel lanes must record positionally aligned event streams");
        }
        replay.end_step(sm, lanes, begin);
        if (st.phase == 0) ++sched.warps;

        // Advance the cursor; charge barrier events at phase boundaries.
        if (++st.next_warp == warps_per_group) {
          st.next_warp = 0;
          ++st.phase;
          if (st.phase < spec.num_phases) {
            sched.barrier_warp_events += static_cast<std::uint64_t>(warps_per_group);
          }
          if (st.phase >= spec.num_phases) ++done;
        }
      }
    }
  }

  ReplayTotals totals = replay.finish();
  totals.counters.add(sched);
  totals.counters.warp_issue_slots += static_cast<std::uint64_t>(totals.control_slots);
  return gpusim::make_stats(m, cal, std::move(stats_name), cfg, occ, totals.counters,
                            totals.dram_cost_units, spec.traits.codegen_slowdown);
}

}  // namespace detail

/// Profiled execution: returns the full Nsight-style statistics record.
template <PhasedKernel Kernel>
gpusim::KernelStats execute_profiled(const gpusim::MachineModel& m,
                                     const gpusim::Calibration& cal, const LaunchSpec& spec,
                                     const Kernel& kernel, std::string stats_name) {
  return detail::execute_profiled_with(m, cal, spec, kernel, std::move(stats_name),
                                       detail::default_replay_plan());
}

}  // namespace minisycl
