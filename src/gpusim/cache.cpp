#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace gpusim {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("SectoredCache: " + what);
}

bool power_of_two(std::int64_t v) {
  return v > 0 && std::has_single_bit(static_cast<std::uint64_t>(v));
}

}  // namespace

SectoredCache::SectoredCache(std::int64_t total_bytes, int line_bytes, int sector_bytes,
                             int ways) {
  require(power_of_two(line_bytes),
          "line_bytes must be a power of two (got " + std::to_string(line_bytes) + ")");
  require(power_of_two(sector_bytes),
          "sector_bytes must be a power of two (got " + std::to_string(sector_bytes) + ")");
  require(sector_bytes <= line_bytes, "sector_bytes (" + std::to_string(sector_bytes) +
                                          ") exceeds line_bytes (" +
                                          std::to_string(line_bytes) + ")");
  require(line_bytes / sector_bytes <= kMaxSectorsPerLine,
          "line_bytes / sector_bytes = " + std::to_string(line_bytes / sector_bytes) +
              " sectors per line exceeds the " + std::to_string(kMaxSectorsPerLine) +
              " the packed sector masks hold");
  require(ways > 0, "ways must be positive (got " + std::to_string(ways) + ")");
  const std::int64_t set_bytes = static_cast<std::int64_t>(line_bytes) * ways;
  require(total_bytes > 0 && total_bytes % set_bytes == 0,
          "total_bytes (" + std::to_string(total_bytes) +
              ") must be a positive multiple of line_bytes * ways (" +
              std::to_string(set_bytes) + ")");

  ways_ = ways;
  sectors_per_line_ = line_bytes / sector_bytes;
  line_shift_ = std::countr_zero(static_cast<unsigned>(line_bytes));
  sector_shift_ = std::countr_zero(static_cast<unsigned>(sector_bytes));
  sets_ = static_cast<std::uint64_t>(total_bytes / set_bytes);
  sets_pow2_ = std::has_single_bit(sets_);
  const std::size_t lines = static_cast<std::size_t>(sets_) * static_cast<std::size_t>(ways_);
  tags_.assign(lines, kNoTag);
  masks_.assign(lines, 0);
  lru_.assign(lines, 0);
}

SectoredCache::Outcome SectoredCache::access(std::uint64_t byte_addr, bool write,
                                             bool allocate) {
  const std::uint64_t line_addr = byte_addr >> line_shift_;
  const auto sector_bit = static_cast<std::uint8_t>(
      1u << ((byte_addr >> sector_shift_) & static_cast<std::uint64_t>(sectors_per_line_ - 1)));
  const std::size_t base = set_of(line_addr) * static_cast<std::size_t>(ways_);
  std::uint64_t* tags = tags_.data() + base;
  std::uint8_t* masks = masks_.data() + base;
  std::uint32_t* lru = lru_.data() + base;
  if (tick_ == std::numeric_limits<std::uint32_t>::max()) renumber_lru();
  const std::uint32_t now = ++tick_;

  // Look for the line.
  for (int w = 0; w < ways_; ++w) {
    if (tags[w] == line_addr && (masks[w] & kValidBits) != 0) {
      lru[w] = now;
      Outcome out;
      out.hit = (masks[w] & sector_bit) != 0;
      if (!out.hit && allocate) masks[w] |= sector_bit;
      if (write && (out.hit || allocate)) masks[w] |= static_cast<std::uint8_t>(sector_bit << 4);
      return out;
    }
  }

  // Miss: no matching line.
  if (!allocate) return {};

  // Choose victim: invalid way first, else LRU.
  int victim = 0;
  for (int w = 0; w < ways_; ++w) {
    if ((masks[w] & kValidBits) == 0) {
      victim = w;
      break;
    }
    if (lru[w] < lru[victim]) victim = w;
  }

  Outcome out;
  out.writeback_sectors = std::popcount(static_cast<unsigned>(masks[victim] >> 4));
  tags[victim] = line_addr;
  masks[victim] = static_cast<std::uint8_t>(write ? sector_bit | sector_bit << 4 : sector_bit);
  lru[victim] = now;
  return out;
}

void SectoredCache::renumber_lru() {
  // Only the order of valid lines within a set matters (victim choice), and
  // their stamps are distinct, so each becomes 1 + the number of older
  // valid lines in its set.
  std::vector<std::uint32_t> old(static_cast<std::size_t>(ways_));
  for (std::size_t base = 0; base < lru_.size(); base += old.size()) {
    std::copy_n(lru_.begin() + static_cast<std::ptrdiff_t>(base), old.size(), old.begin());
    for (std::size_t w = 0; w < old.size(); ++w) {
      if ((masks_[base + w] & kValidBits) == 0) {
        lru_[base + w] = 0;
        continue;
      }
      std::uint32_t rank = 1;
      for (std::size_t v = 0; v < old.size(); ++v) {
        if ((masks_[base + v] & kValidBits) != 0 && old[v] < old[w]) ++rank;
      }
      lru_[base + w] = rank;
    }
  }
  tick_ = static_cast<std::uint32_t>(ways_);
}

void SectoredCache::advance_clock(std::uint32_t ticks) {
  const std::uint32_t room = std::numeric_limits<std::uint32_t>::max() - tick_;
  tick_ += std::min(ticks, room);
}

std::int64_t SectoredCache::flush() {
  std::int64_t dirty = 0;
  for (const std::uint8_t m : masks_) dirty += std::popcount(static_cast<unsigned>(m >> 4));
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(masks_.begin(), masks_.end(), std::uint8_t{0});
  std::fill(lru_.begin(), lru_.end(), 0u);
  return dirty;
}

void SectoredCache::reset() {
  flush();
  tick_ = 0;
}

}  // namespace gpusim
