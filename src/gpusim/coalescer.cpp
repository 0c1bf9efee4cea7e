#include "gpusim/coalescer.hpp"

#include <algorithm>
#include <bit>

namespace gpusim {

namespace {

/// Append the distinct `unit`-byte blocks (as block indices) the lane
/// accesses touch.  Lanes usually arrive in address order, so consecutive
/// duplicates are dropped on the fly and the sort runs only when the list
/// turned out non-monotone; either way `out` ends sorted and unique.
void distinct_blocks(std::span<const LaneAccess> lanes, int unit,
                     std::vector<std::uint64_t>& out) {
  out.clear();
  const auto u = static_cast<std::uint64_t>(unit);
  const bool pow2 = std::has_single_bit(u);
  const int shift = std::countr_zero(u);
  const auto block = [&](std::uint64_t addr) { return pow2 ? addr >> shift : addr / u; };
  bool monotone = true;
  for (const LaneAccess& a : lanes) {
    const std::uint64_t last = block(a.addr + a.size - 1);
    for (std::uint64_t b = block(a.addr); b <= last; ++b) {
      if (!out.empty()) {
        if (b == out.back()) continue;
        if (b < out.back()) monotone = false;
      }
      out.push_back(b);
    }
  }
  if (!monotone) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

}  // namespace

void coalesce_sectors(std::span<const LaneAccess> lanes, int sector_bytes,
                      std::vector<std::uint64_t>& out) {
  distinct_blocks(lanes, sector_bytes, out);
  for (std::uint64_t& s : out) s *= static_cast<std::uint64_t>(sector_bytes);
}

BankAnalysis analyze_shared(std::span<const LaneAccess> lanes, int banks, int bank_bytes) {
  // Collect the distinct words each access touches, then count per-bank
  // distinct words; the warp needs max-over-banks wavefronts.
  thread_local std::vector<std::uint64_t> words;
  distinct_blocks(lanes, bank_bytes, words);

  BankAnalysis res;
  if (words.empty()) return res;

  thread_local std::vector<std::uint32_t> per_bank;
  per_bank.assign(static_cast<std::size_t>(banks), 0);
  const auto nb = static_cast<std::uint64_t>(banks);
  const bool pow2 = std::has_single_bit(nb);
  for (std::uint64_t w : words) {
    ++per_bank[static_cast<std::size_t>(pow2 ? w & (nb - 1) : w % nb)];
  }
  res.wavefronts = *std::max_element(per_bank.begin(), per_bank.end());
  res.ideal = static_cast<std::uint32_t>((words.size() + static_cast<std::size_t>(banks) - 1) /
                                         static_cast<std::size_t>(banks));
  return res;
}

}  // namespace gpusim
