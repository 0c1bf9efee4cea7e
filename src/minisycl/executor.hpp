// executor.hpp — runs a phased kernel over an nd_range.
//
// Two modes:
//  * execute_functional: plain host loops, FastLane, no simulation — used by
//    correctness tests, the solvers and the examples.  A large launch splits
//    its work-groups into contiguous blocks that run on several host threads
//    (docs/SIMULATOR.md §1 "Functional execution across groups").
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
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/machine.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/timing.hpp"
#include "minisycl/exception.hpp"
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

/// Throw errc::nd_range unless `spec` is a launch every execution mode can
/// run: local_size >= 1, a non-negative global size that is a multiple of
/// it, num_phases >= 1 and shared_bytes >= 0.  Checked in every build type.
inline void validate_launch(const LaunchSpec& spec) {
  const auto fail = [&spec](const std::string& why) {
    throw exception(errc::nd_range, "nd_range: " + why + " (kernel '" + spec.traits.name + "')");
  };
  if (spec.local_size < 1) {
    fail("local size " + std::to_string(spec.local_size) + " is below 1");
  }
  if (spec.global_size < 0 || spec.global_size % spec.local_size != 0) {
    fail("global size " + std::to_string(spec.global_size) +
         " is not a non-negative multiple of local size " + std::to_string(spec.local_size));
  }
  if (spec.num_phases < 1) {
    fail("num_phases " + std::to_string(spec.num_phases) + " is below 1");
  }
  if (spec.shared_bytes < 0) {
    fail("shared_bytes " + std::to_string(spec.shared_bytes) + " is negative");
  }
}

namespace detail {

/// How a functional launch spreads its work-groups over host threads.
/// Production launches use functional_plan(); tests pin it.
struct FunctionalPlan {
  int blocks = 1;  ///< contiguous blocks of groups, one thread each; 1 = serial on the caller
};

/// Launches below this many work-items x phases run serially on the caller:
/// below it, spawning and joining the threads costs more than the groups.
inline constexpr std::int64_t kFunctionalParallelCutoff = 32768;

/// While it lives, every functional launch the constructing thread makes
/// runs with `plan`, whatever its size (tests compare whole solves).
class PinFunctionalPlan {
 public:
  explicit PinFunctionalPlan(FunctionalPlan plan) : prev_(pinned_blocks()) {
    pinned_blocks() = plan.blocks;
  }
  ~PinFunctionalPlan() { pinned_blocks() = prev_; }
  PinFunctionalPlan(const PinFunctionalPlan&) = delete;
  PinFunctionalPlan& operator=(const PinFunctionalPlan&) = delete;

  /// The calling thread's pinned block count; 0 when nothing is pinned.
  static int& pinned_blocks() {
    thread_local int blocks = 0;
    return blocks;
  }

 private:
  int prev_;
};

/// The pinned plan if there is one; otherwise serial below the cut-off and
/// one block per hardware thread at or above it.
[[nodiscard]] inline FunctionalPlan functional_plan(const LaunchSpec& spec) {
  if (const int pinned = PinFunctionalPlan::pinned_blocks(); pinned > 0) return {pinned};
  if (spec.global_size * spec.num_phases < kFunctionalParallelCutoff) return {1};
  static const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return {threads};
}

/// Run groups [first, last) phase by phase with one local-memory buffer.
/// Forced inline: called out of line, the serial path ran the many small
/// launches of the `serve` benchmark about 6% slower than the loop it
/// replaced.
template <PhasedKernel Kernel>
[[gnu::always_inline]] inline void run_groups(const LaunchSpec& spec, const Kernel& kernel,
                                              std::int64_t first, std::int64_t last,
                                              bool concurrent) {
  std::vector<std::byte> local(static_cast<std::size_t>(spec.shared_bytes));
  for (std::int64_t g = first; g < last; ++g) {
    for (int phase = 0; phase < spec.num_phases; ++phase) {
      for (int t = 0; t < spec.local_size; ++t) {
        ItemIds ids{g * spec.local_size + t, t, g, spec.local_size};
        FastLane lane(ids, local.data(), concurrent);
        kernel(lane, phase);
      }
    }
  }
}

}  // namespace detail

/// Correctness-only execution.  Work-groups have no ordering between them
/// and every barrier is inside a group, so a large launch runs contiguous
/// blocks of groups on separate host threads; block 0 runs on the caller.
/// Every thread joins before this returns; if blocks threw, the lowest
/// block's exception (the one a serial run meets first) is rethrown.
template <PhasedKernel Kernel>
void execute_functional(const LaunchSpec& spec, const Kernel& kernel) {
  validate_launch(spec);
  const std::int64_t groups = spec.global_size / spec.local_size;
  const std::int64_t blocks = std::clamp<std::int64_t>(detail::functional_plan(spec).blocks, 1,
                                                       std::max<std::int64_t>(groups, 1));
  if (blocks == 1) {
    detail::run_groups(spec, kernel, 0, groups, /*concurrent=*/false);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(blocks));
  const auto run_block = [&](std::int64_t b) {
    try {
      detail::run_groups(spec, kernel, groups * b / blocks, groups * (b + 1) / blocks,
                         /*concurrent=*/true);
    } catch (...) {
      errors[static_cast<std::size_t>(b)] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(blocks - 1));
    for (std::int64_t b = 1; b < blocks; ++b) threads.emplace_back(run_block, b);
    run_block(0);
  }  // joins
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
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
  validate_launch(spec);
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
