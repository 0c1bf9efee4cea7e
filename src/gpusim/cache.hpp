// cache.hpp — sectored, set-associative cache model.
//
// NVIDIA GPUs tag cache lines at 128 B but fill and transfer at 32 B sector
// granularity; a "tag request" that finds the line but not the sector still
// costs a fill.  Both the per-SM L1 and the device-wide L2 are instances of
// this model (with different size/associativity and write policies decided
// by the pipeline).
//
// Line state is stored as structure-of-arrays, row-major by set: a set's
// tags are contiguous (a 16-way lookup scans 128 B), the valid and dirty
// sector masks share one byte, and LRU stamps are 32-bit — 13 B per line.
#pragma once

#include <cstdint>
#include <vector>

namespace gpusim {

class SectoredCache {
 public:
  /// Sector masks are packed four bits each into one byte.
  static constexpr int kMaxSectorsPerLine = 4;

  /// Throws std::invalid_argument naming the offending field unless
  /// `line_bytes` and `sector_bytes` are powers of two with at most
  /// kMaxSectorsPerLine sectors per line, `ways` is positive and
  /// `total_bytes` is a positive multiple of line_bytes * ways.  The set
  /// count may be any positive integer.
  SectoredCache(std::int64_t total_bytes, int line_bytes, int sector_bytes, int ways);

  struct Outcome {
    bool hit = false;            ///< requested sector present
    int writeback_sectors = 0;   ///< dirty sectors evicted by this access
  };

  /// Access one sector.  `write` marks the sector dirty (write-back policy);
  /// `allocate` controls whether a miss installs the line/sector (false for
  /// write-through-no-allocate policies).
  Outcome access(std::uint64_t byte_addr, bool write, bool allocate = true);

  /// Host-side prefetch of the state `access(byte_addr, ...)` will read; no
  /// simulated effect.  Lets a caller that knows its upcoming addresses hide
  /// the host's cache misses on a large simulated cache.
  void prefetch(std::uint64_t byte_addr) const {
    const std::size_t base = set_of(byte_addr >> line_shift_) * static_cast<std::size_t>(ways_);
    __builtin_prefetch(tags_.data() + base);
    __builtin_prefetch(lru_.data() + base);
    __builtin_prefetch(masks_.data() + base);
  }

  /// Evict everything, returning the number of dirty sectors flushed.
  std::int64_t flush();

  void reset();

  /// Move the LRU clock forward by `ticks` accesses' worth, saturating at
  /// the 32-bit limit (the next access then renumbers the stamps).  Lets
  /// tests reach the stamp wrap without four billion accesses.
  void advance_clock(std::uint32_t ticks);

  [[nodiscard]] int sectors_per_line() const { return sectors_per_line_; }
  [[nodiscard]] std::int64_t sets() const { return static_cast<std::int64_t>(sets_); }

 private:
  static constexpr std::uint64_t kNoTag = ~0ull;
  static constexpr std::uint8_t kValidBits = 0x0f;  ///< low nibble; dirty = high nibble

  [[nodiscard]] std::size_t set_of(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(sets_pow2_ ? line_addr & (sets_ - 1) : line_addr % sets_);
  }
  /// Replace every set's stamps by their rank (order-preserving) so the
  /// 32-bit clock can restart just above the largest rank.
  void renumber_lru();

  int ways_ = 0;
  int sectors_per_line_ = 0;
  int line_shift_ = 0;
  int sector_shift_ = 0;
  std::uint64_t sets_ = 0;
  bool sets_pow2_ = false;
  std::uint32_t tick_ = 0;
  std::vector<std::uint64_t> tags_;  // sets_ * ways_, row-major by set
  std::vector<std::uint8_t> masks_;  // valid | dirty << 4
  std::vector<std::uint32_t> lru_;   // last-access stamp
};

}  // namespace gpusim
