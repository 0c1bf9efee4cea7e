// halo_kernels.hpp — the pack/unpack kernels of the halo exchange.
//
// Both kernels are lane-policy templates like every other kernel in the
// repo, so they run functionally (correctness), profiled (the gpusim
// pipeline prices their memory behaviour into the overlap timeline) and
// under ksan (races / OOB on the ghost region) from one source.
//
// Index order is k-major in the paper's sense: one work-item per complex
// component with the colour index fastest, so adjacent work-items touch
// adjacent wire elements — the pack's stores and the unpack's loads and
// stores are all fully coalesced; only the pack's gather loads are
// scattered (inherently, they follow the face's site layout).
//
// The kernels are additionally templated over the wire element `W`
// (dcomplex / scomplex / hcomplex — the fp64 / fp32 / fp16 wire formats of
// `wire_format.hpp`): the precision convert is *fused* into the gather and
// scatter through WireCodec<W>, so a reduced-format wire never exists at
// fp64 width anywhere — pack writes encoded bytes directly, unpack decodes
// straight into the ghost slots.  The work decomposition (one work-item
// per complex component) is identical for every W; only the store/load
// width changes, and WireCodec<dcomplex> is the identity, so the fp64
// instantiations are bit-for-bit the pre-wire-format kernels.
//
// Wire counts are not multiples of any work-group size, so the global size
// is padded up and tail work-items predicate themselves off against the
// last valid element — the same clamp + set_masked idiom as the 3LP-1
// reduction phase, which keeps all 32 event streams of a warp positionally
// aligned while generating no memory transactions for dead lanes.
#pragma once

#include <cstdint>

#include "complexlib/dcomplex.hpp"
#include "minisycl/traits.hpp"
#include "multidev/wire_format.hpp"
#include "su3/su3_vector.hpp"

namespace milc::multidev {

/// Gather `count` boundary source vectors (via `slots`) into the
/// contiguous wire buffer of one outbound halo message, encoding each
/// complex component into the wire element format on the fly.
template <typename W>
struct HaloPackKernelT {
  static constexpr int kPhases = 1;

  const SU3Vector<dcomplex>* src = nullptr;  ///< sender's owned source field
  const std::int32_t* slots = nullptr;       ///< owned slot per wire site
  W* wire = nullptr;                         ///< outbound buffer, count*3 elements
  std::int64_t count = 0;                    ///< sites on the wire
  double scale = 1.0;                        ///< fp16 range scale (1.0 otherwise)

  static minisycl::KernelTraits traits() {
    return {.name = "halo-pack", .regs_per_thread = 24, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    std::int64_t gid = lane.global_id();
    const std::int64_t limit = count * kColors;
    const bool tail = gid >= limit;
    lane.set_masked(tail);
    if (tail) gid = limit - 1;  // clamp: masked lanes replay a valid address
    const std::int64_t site = gid / kColors;
    const int comp = static_cast<int>(gid % kColors);
    const std::int32_t s = lane.load(&slots[site]);
    const dcomplex v = lane.load(&src[s].c[comp]);
    lane.store(&wire[site * kColors + comp], WireCodec<W>::encode(v, scale));
    lane.set_masked(false);
  }
};

/// The exact fp64 wire — the historical pack kernel, unchanged.
using HaloPackKernel = HaloPackKernelT<dcomplex>;

/// Scatter one received wire buffer into the ghost tail of the receiver's
/// extended source field (slots [ghost_base, ghost_base + count)), decoding
/// each wire element back to fp64 on the fly.
template <typename W>
struct HaloUnpackKernelT {
  static constexpr int kPhases = 1;

  const W* wire = nullptr;                   ///< inbound buffer, count*3 elements
  SU3Vector<dcomplex>* field = nullptr;      ///< extended source field base
  std::int64_t ghost_base = 0;               ///< first ghost slot of this message
  std::int64_t count = 0;
  double inv_scale = 1.0;                    ///< fp16 range scale (1.0 otherwise)

  static minisycl::KernelTraits traits() {
    return {.name = "halo-unpack", .regs_per_thread = 16, .codegen_slowdown = 1.0};
  }
  static int shared_bytes(int) { return 0; }

  template <typename Lane>
  void operator()(Lane& lane, int /*phase*/) const {
    std::int64_t gid = lane.global_id();
    const std::int64_t limit = count * kColors;
    const bool tail = gid >= limit;
    lane.set_masked(tail);
    if (tail) gid = limit - 1;
    const std::int64_t site = gid / kColors;
    const int comp = static_cast<int>(gid % kColors);
    const W v = lane.load(&wire[gid]);
    lane.store(&field[ghost_base + site].c[comp], WireCodec<W>::decode(v, inv_scale));
    lane.set_masked(false);
  }
};

/// The exact fp64 wire — the historical unpack kernel, unchanged.
using HaloUnpackKernel = HaloUnpackKernelT<dcomplex>;

/// Work-group size of every pack and unpack launch.
inline constexpr int kHaloLocalSize = 96;

/// Padded global size for a wire of `count` sites at the given local size.
/// Format-independent: every wire element format keeps one work-item per
/// complex component.
[[nodiscard]] inline std::int64_t halo_global_size(std::int64_t count, int local_size) {
  const std::int64_t items = count * kColors;
  const std::int64_t groups = (items + local_size - 1) / local_size;
  return groups * local_size;
}

}  // namespace milc::multidev
