// shard_plan.hpp — the resident state of the sharded Dslash for one
// (problem, grid): built once, reused by every apply.
//
// Production MILC builds its gather tables once at start-up and moves only
// field data on each Dslash (hep-lat/0112038, arXiv:1712.00143).  A
// ShardPlan is that split for the simulated cluster:
//
//  * built once — the Partitioner (shards, neighbour tables, halo send
//    lists), every shard's gathered links in the kernels' column-major
//    layout, and every shard's source/output buffers (wire buffers grow to
//    their largest format on first use and are reused after);
//  * per apply (load/store) — scatter the owned sources from the problem's
//    b(), re-poison every ghost slot with NaN, zero the output, and after the
//    exchange gather the outputs into the problem's c().
//
// The NaN re-poison is the plan's correctness rule: a ghost slot the halo
// protocol forgot to unpack reads NaN and the bit-for-bit tests fail loudly,
// exactly as on a freshly built plan — never the previous apply's value.
//
// A plan is bound to the problem it gathered its links from (identity, not
// value) and to one grid; resident_plan() rebuilds it when either differs.
// Plans are neither copyable nor movable: kernels and dsan spans hold raw
// pointers into their buffers for the duration of an apply.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/problem.hpp"
#include "multidev/partition.hpp"

namespace milc::multidev {

/// Device-resident data of one shard.
struct ShardFields {
  /// Gathered links, [t][k][j][i] per family — built once.
  std::array<std::vector<dcomplex>, kNlinks> links;
  /// Extended source field: owned slots, then ghost slots (reloaded per apply).
  std::vector<SU3Vector<dcomplex>> src;
  std::vector<SU3Vector<dcomplex>> dst;  ///< per-target output (zeroed per apply)
  /// Inbound wire buffer per halo message (the sender's pack target) and the
  /// hardened path's receiver-side delivery copy of it.
  std::vector<std::vector<std::byte>> wire;
  std::vector<std::vector<std::byte>> rx;
};

class ShardPlan {
 public:
  /// Partitions `problem`'s lattice over `grid` and gathers every shard's
  /// links.  Throws std::invalid_argument exactly like Partitioner.
  ShardPlan(const DslashProblem& problem, const PartitionGrid& grid);
  ShardPlan(const ShardPlan&) = delete;
  ShardPlan& operator=(const ShardPlan&) = delete;

  [[nodiscard]] const Partitioner& partitioner() const { return part_; }
  [[nodiscard]] const PartitionGrid& grid() const { return part_.grid(); }
  [[nodiscard]] const std::vector<Shard>& shards() const { return part_.shards(); }
  [[nodiscard]] ShardFields& fields(int rank) { return fields_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] const ShardFields& fields(int rank) const {
    return fields_[static_cast<std::size_t>(rank)];
  }

  /// True when this plan holds `problem`'s links partitioned over `grid`.
  [[nodiscard]] bool built_for(const DslashProblem& problem, const PartitionGrid& grid) const;

  /// Per-apply reset from `b`: owned sources scattered, every ghost slot
  /// re-poisoned with NaN, every output zeroed.
  void load(const ColorField& b);
  /// Size every inbound wire buffer for one apply on the spinor format `w`
  /// (allocates only the first time a buffer grows).
  void size_wires(SpinorWire w);
  /// Gather every shard's output into `c`.
  void store(ColorField& c) const;

 private:
  const DslashProblem* problem_;
  Partitioner part_;
  std::vector<ShardFields> fields_;
};

/// The plan in `slot`, built first when the slot is empty or holds a plan
/// for another problem or grid (the old plan is released before the new one
/// is built, so two plans of one problem never coexist).
ShardPlan& resident_plan(std::unique_ptr<ShardPlan>& slot, const DslashProblem& problem,
                         const PartitionGrid& grid);

}  // namespace milc::multidev
