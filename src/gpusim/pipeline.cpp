#include "gpusim/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gpusim {

SmFrontEnd::SmFrontEnd(const MachineModel& m, int num_l1)
    : sector_bytes_(m.sector_bytes),
      shared_banks_(m.shared_banks),
      shared_bank_bytes_(m.shared_bank_bytes) {
  // L2Op carries its flags in the low bits of the sector address.
  if (m.sector_bytes <= static_cast<int>(kL2Write | kL2DramFill)) {
    throw std::invalid_argument("SmFrontEnd: sector_bytes must be at least 4 (got " +
                                std::to_string(m.sector_bytes) + ")");
  }
  l1_.reserve(static_cast<std::size_t>(num_l1));
  for (int s = 0; s < num_l1; ++s) {
    l1_.emplace_back(m.l1_bytes, m.line_bytes, m.sector_bytes, m.l1_ways);
  }
}

void SmFrontEnd::global_load(int l1, std::span<const LaneAccess> lanes,
                             std::vector<L2Op>& out) {
  ++ctr_.global_load_ops;
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  SectoredCache& cache = l1_[static_cast<std::size_t>(l1)];
  ctr_.l1_tag_requests_global += sectors_.size();
  for (std::uint64_t s : sectors_) {
    if (cache.access(s, /*write=*/false, /*allocate=*/true).hit) {
      ++ctr_.l1_sector_hits;
    } else {
      ++ctr_.l1_sector_misses;
      out.push_back(s | kL2DramFill);
    }
  }
}

void SmFrontEnd::global_store(int l1, std::span<const LaneAccess> lanes,
                              std::vector<L2Op>& out) {
  ++ctr_.global_store_ops;
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  SectoredCache& cache = l1_[static_cast<std::size_t>(l1)];
  ctr_.l1_tag_requests_global += sectors_.size();
  for (std::uint64_t s : sectors_) {
    // Write-through / no-allocate at L1: the access still consumes an L1 tag
    // lookup (and updates the sector if present), then writes into L2.
    cache.access(s, /*write=*/false, /*allocate=*/false);
    // Write-allocate in L2 without a DRAM fetch (write-combined sectors).
    out.push_back(s | kL2Write);
  }
}

void SmFrontEnd::global_atomic(std::span<const LaneAccess> lanes, std::vector<L2Op>& out) {
  ++ctr_.atomic_ops;
  ctr_.atomic_lane_updates += lanes.size();

  // Same-address lane updates within one instruction serialise at the L2
  // atomic unit; distinct addresses proceed in parallel across slices.
  addrs_.clear();
  for (const LaneAccess& a : lanes) addrs_.push_back(a.addr);
  std::sort(addrs_.begin(), addrs_.end());
  std::size_t i = 0;
  while (i < addrs_.size()) {
    std::size_t j = i + 1;
    while (j < addrs_.size() && addrs_[j] == addrs_[i]) ++j;
    ctr_.atomic_serial_replays += static_cast<std::uint64_t>(j - i - 1);
    i = j;
  }

  // Each distinct sector is a read-modify-write in L2 (bypasses L1).
  coalesce_sectors(lanes, sector_bytes_, sectors_);
  for (std::uint64_t s : sectors_) out.push_back(s | kL2Write | kL2DramFill);
}

void SmFrontEnd::shared_access(std::span<const LaneAccess> lanes) {
  ++ctr_.shared_ops;
  const BankAnalysis res = analyze_shared(lanes, shared_banks_, shared_bank_bytes_);
  ctr_.shared_wavefronts += res.wavefronts;
  ctr_.shared_wavefronts_ideal += res.ideal;
}

void SmFrontEnd::reset() {
  for (auto& c : l1_) c.reset();
  ctr_ = TraceCounters{};
}

L2Backend::L2Backend(const MachineModel& m, const Calibration& cal)
    : l2_(m.l2_bytes, m.line_bytes, m.sector_bytes, m.l2_ways), dram_(m, cal) {}

void L2Backend::apply(L2Op op) {
  const std::uint64_t sector_addr = op & ~(kL2Write | kL2DramFill);
  ++ctr_.l2_sector_requests;
  const SectoredCache::Outcome out =
      l2_.access(sector_addr, (op & kL2Write) != 0, /*allocate=*/true);
  if (out.hit) {
    ++ctr_.l2_sector_hits;
  } else {
    ++ctr_.l2_sector_misses;
    if ((op & kL2DramFill) != 0) {
      const bool row_hit = dram_.access(sector_addr);
      ++ctr_.dram_sectors;
      row_hit ? ++ctr_.dram_row_hits : ++ctr_.dram_row_misses;
    }
  }
  if (out.writeback_sectors > 0) {
    dram_.access_opaque(static_cast<std::uint64_t>(out.writeback_sectors));
    ctr_.dram_sectors += static_cast<std::uint64_t>(out.writeback_sectors);
    ctr_.dram_row_misses += static_cast<std::uint64_t>(out.writeback_sectors);
  }
}

void L2Backend::apply(std::span<const L2Op> ops) {
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i + kAhead < ops.size()) l2_.prefetch(ops[i + kAhead]);
    apply(ops[i]);
  }
}

void L2Backend::finalize() {
  const std::int64_t dirty = l2_.flush();
  if (dirty > 0) {
    dram_.access_opaque(static_cast<std::uint64_t>(dirty));
    ctr_.dram_sectors += static_cast<std::uint64_t>(dirty);
    ctr_.dram_row_misses += static_cast<std::uint64_t>(dirty);
  }
}

void L2Backend::reset() {
  l2_.reset();
  dram_.reset();
  ctr_ = TraceCounters{};
}

PerfPipeline::PerfPipeline(const MachineModel& m, const Calibration& cal)
    : front_(m, m.num_sms), back_(m, cal) {}

void PerfPipeline::drain() {
  back_.apply(ops_);
  ops_.clear();
}

void PerfPipeline::global_load(int sm, std::span<const LaneAccess> lanes) {
  front_.global_load(sm, lanes, ops_);
  drain();
}

void PerfPipeline::global_store(int sm, std::span<const LaneAccess> lanes) {
  front_.global_store(sm, lanes, ops_);
  drain();
}

void PerfPipeline::global_atomic(int /*sm*/, std::span<const LaneAccess> lanes) {
  front_.global_atomic(lanes, ops_);
  drain();
}

void PerfPipeline::shared_access(std::span<const LaneAccess> lanes, bool /*write*/) {
  front_.shared_access(lanes);
}

void PerfPipeline::finalize() { back_.finalize(); }

TraceCounters PerfPipeline::counters() const {
  TraceCounters c = front_.counters();
  c.add(back_.counters());
  return c;
}

void PerfPipeline::reset() {
  front_.reset();
  back_.reset();
  ops_.clear();
}

}  // namespace gpusim
