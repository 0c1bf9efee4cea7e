#include "multidev/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/dispatch.hpp"
#include "dsan/check.hpp"
#include "multidev/halo_kernels.hpp"
#include "tune/candidates.hpp"
#include "tune/explorer.hpp"

namespace milc::multidev {

namespace {

/// Argument block for a contiguous target range [first, first + count) of a
/// shard — the interior-first renumbering makes both kernel ranges plain
/// base-pointer offsets.
DslashArgs<dcomplex> range_args(ShardFields& f, const Shard& sh, std::int64_t first,
                                std::int64_t count) {
  DslashArgs<dcomplex> a;
  for (int l = 0; l < kNlinks; ++l) {
    a.links[l] =
        f.links[static_cast<std::size_t>(l)].data() + first * kNdim * kColors * kColors;
  }
  a.b = f.src.data();
  a.c_out = f.dst.data() + first;
  a.neighbors = sh.neighbors.data() + first * kNeighbors;
  a.sites = count;
  return a;
}

/// The shard launch's buffers in a fixed order, for the profiler's canonical
/// address map (see minisycl::AddressRegion): shard timings become pure
/// functions of the launch, which the tuning cache's bit-for-bit replay rule
/// needs.  `src_elems` is the extended source extent — neighbor indices can
/// reach any ghost slot, so the whole field is one region.
std::vector<minisycl::AddressRegion> shard_regions(const DslashArgs<dcomplex>& a,
                                                   std::int64_t src_elems) {
  std::vector<minisycl::AddressRegion> regions;
  for (int l = 0; l < kNlinks; ++l) {
    regions.push_back({a.links[l], a.sites * kNdim * kColors * kColors *
                                       static_cast<std::int64_t>(sizeof(dcomplex))});
  }
  regions.push_back({a.b, src_elems * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))});
  regions.push_back(
      {a.c_out, a.sites * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))});
  regions.push_back({a.neighbors,
                     a.sites * kNeighbors * static_cast<std::int64_t>(sizeof(std::int32_t))});
  return regions;
}

template <typename W>
std::vector<minisycl::AddressRegion> pack_regions(const HaloPackKernelT<W>& k,
                                                  std::int64_t src_elems) {
  return {{k.src, src_elems * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))},
          {k.slots, k.count * static_cast<std::int64_t>(sizeof(std::int32_t))},
          {k.wire, k.count * kColors * static_cast<std::int64_t>(sizeof(W))}};
}

template <typename W>
std::vector<minisycl::AddressRegion> unpack_regions(const HaloUnpackKernelT<W>& k,
                                                    std::int64_t field_elems) {
  return {{k.wire, k.count * kColors * static_cast<std::int64_t>(sizeof(W))},
          {k.field, field_elems * static_cast<std::int64_t>(sizeof(SU3Vector<dcomplex>))}};
}

/// Dispatch a wire-format-generic callable over the spinor format's wire
/// element type.  `fn` receives a WireCodec-compatible element as a type
/// tag: fn(dcomplex{}) / fn(scomplex{}) / fn(hcomplex{}).
template <typename Fn>
decltype(auto) with_wire_element(SpinorWire w, Fn&& fn) {
  switch (w) {
    case SpinorWire::fp64: return fn(dcomplex{});
    case SpinorWire::fp32: return fn(scomplex{});
    case SpinorWire::fp16: return fn(hcomplex{});
  }
  return fn(dcomplex{});
}

/// The fp16 wire's per-message range scale: 1 / max|component| over the
/// values about to be packed (1.0 for empty or all-zero payloads, and on
/// every other format).  Computed on the sender from the same slots the
/// pack kernel gathers, so both ends agree by construction — the scale
/// rides the message header, not the payload bytes (docs/WIRE.md §2).
double message_scale(SpinorWire w, const SU3Vector<dcomplex>* src, const HaloMsg& hm) {
  if (w != SpinorWire::fp16) return 1.0;
  double peak = 0.0;
  for (const std::int32_t s : hm.send_slots) {
    for (int c = 0; c < kColors; ++c) {
      peak = std::max(peak, std::abs(src[s].c[c].re));
      peak = std::max(peak, std::abs(src[s].c[c].im));
    }
  }
  return peak > 0.0 ? 1.0 / peak : 1.0;
}

/// Submit one Dslash kernel range on a shard queue; returns the raw stats
/// (stats.fault names an injected failure — no side effects in that case).
gpusim::KernelStats submit_dslash(minisycl::queue& q, const DslashArgs<dcomplex>& a,
                                  std::int64_t src_elems, const RunRequest& req,
                                  const VariantInfo& vi, int local_size,
                                  const std::string& name) {
  return with_dslash_kernel(a, req.strategy, req.order, vi.use_syclcplx,
                            [&](const auto& kernel) {
                              using K = std::decay_t<decltype(kernel)>;
                              minisycl::LaunchSpec spec;
                              spec.global_size = a.sites * items_per_site(req.strategy);
                              spec.local_size = local_size;
                              spec.shared_bytes = K::shared_bytes(local_size);
                              spec.num_phases = K::kPhases;
                              spec.traits = K::traits();
                              spec.traits.codegen_slowdown = vi.codegen_slowdown;
                              spec.regions = shard_regions(a, src_elems);
                              return q.submit(spec, kernel, name);
                            });
}

minisycl::LaunchSpec halo_spec(std::int64_t count, const minisycl::KernelTraits& traits) {
  minisycl::LaunchSpec spec;
  spec.global_size = halo_global_size(count, kHaloLocalSize);
  spec.local_size = kHaloLocalSize;
  spec.shared_bytes = 0;
  spec.num_phases = 1;
  spec.traits = traits;
  return spec;
}

/// Build the pack kernel of shard `sh`'s inbound message `mi` — the sender's
/// owned sources gathered into the plan's wire buffer, encoded in the spinor
/// format `sw` — and hand `fn` its launch spec and kernel.
template <typename Fn>
decltype(auto) with_pack_kernel(ShardPlan& plan, const Shard& sh, std::size_t mi,
                                SpinorWire sw, double scale, Fn&& fn) {
  const HaloMsg& msg = sh.halo[mi];
  ShardFields& sender = plan.fields(msg.peer);
  std::byte* wire = plan.fields(sh.rank).wire[mi].data();
  return with_wire_element(sw, [&](auto tag) {
    using W = decltype(tag);
    const HaloPackKernelT<W> pack{.src = sender.src.data(),
                                  .slots = msg.send_slots.data(),
                                  .wire = reinterpret_cast<W*>(wire),
                                  .count = msg.count(),
                                  .scale = scale};
    minisycl::LaunchSpec spec = halo_spec(msg.count(), HaloPackKernelT<W>::traits());
    spec.regions = pack_regions(pack, plan.shards()[static_cast<std::size_t>(msg.peer)]
                                          .extended_sources());
    return fn(spec, pack);
  });
}

/// Build the unpack kernel of shard `sh`'s inbound message `mi`, decoding
/// `payload` (the wire buffer, or the hardened path's verified receiver
/// copy) into the message's ghost slots, and hand `fn` spec and kernel.
template <typename Fn>
decltype(auto) with_unpack_kernel(ShardPlan& plan, const Shard& sh, std::size_t mi,
                                  SpinorWire sw, const std::byte* payload, double scale,
                                  Fn&& fn) {
  const HaloMsg& msg = sh.halo[mi];
  ShardFields& f = plan.fields(sh.rank);
  return with_wire_element(sw, [&](auto tag) {
    using W = decltype(tag);
    const HaloUnpackKernelT<W> unpack{.wire = reinterpret_cast<const W*>(payload),
                                      .field = f.src.data(),
                                      .ghost_base = msg.ghost_base,
                                      .count = msg.count(),
                                      .inv_scale = 1.0 / scale};
    minisycl::LaunchSpec spec = halo_spec(msg.count(), HaloUnpackKernelT<W>::traits());
    spec.regions = unpack_regions(unpack, sh.extended_sources());
    return fn(spec, unpack);
  });
}

/// One apply's per-device phase times (µs), indexed by rank.
struct PhaseTimes {
  explicit PhaseTimes(int ndev)
      : pack(static_cast<std::size_t>(ndev), 0.0),
        interior(pack),
        arrival(pack),
        unpack(pack),
        boundary(pack) {}
  std::vector<double> pack, interior, arrival, unpack, boundary;
};

/// Assemble res's per-device overlap timeline and its summary ratios from
/// one apply's phase times.
void assemble_timeline(const DslashProblem& problem, const ShardPlan& plan, SpinorWire sw,
                       const PhaseTimes& pt, MultiDevResult& res) {
  const std::vector<Shard>& shards = plan.shards();
  const int ndev = static_cast<int>(shards.size());
  res.per_device.assign(shards.size(), DeviceTimeline{});
  res.per_iter_us = 0.0;
  res.halo_bytes = 0;
  double comm_window = 0.0;
  double hidden = 0.0;
  std::int64_t boundary_total = 0;
  for (int d = 0; d < ndev; ++d) {
    const auto di = static_cast<std::size_t>(d);
    const Shard& sh = shards[di];
    DeviceTimeline& t = res.per_device[di];
    t.rank = d;
    t.interior_sites = sh.n_interior;
    t.boundary_sites = sh.n_boundary;
    t.halo_bytes_in = sh.halo_wire_bytes(sw);
    t.pack_us = pt.pack[di];
    t.interior_us = pt.interior[di];
    t.arrival_us = pt.arrival[di];
    t.unpack_us = pt.unpack[di];
    t.boundary_us = pt.boundary[di];
    t.exposed_us = std::max(0.0, t.arrival_us - (t.pack_us + t.interior_us));
    t.iter_us = std::max(t.pack_us + t.interior_us, t.arrival_us) + t.unpack_us + t.boundary_us;
    res.per_iter_us = std::max(res.per_iter_us, t.iter_us);
    comm_window += std::max(0.0, t.arrival_us - t.pack_us);
    hidden += std::max(0.0, t.arrival_us - t.pack_us) - t.exposed_us;
    res.halo_bytes += t.halo_bytes_in;
    boundary_total += sh.n_boundary;
  }
  res.overlap_efficiency = comm_window > 0.0 ? hidden / comm_window : 1.0;
  res.comm_fraction = 0.0;
  if (res.per_iter_us > 0.0) {
    double comm_frac_sum = 0.0;
    for (const DeviceTimeline& t : res.per_device) {
      comm_frac_sum += (t.pack_us + t.unpack_us + t.exposed_us) / res.per_iter_us;
    }
    res.comm_fraction = comm_frac_sum / ndev;
  }
  res.surface_fraction =
      static_cast<double>(boundary_total) / static_cast<double>(problem.sites());
  res.gflops =
      res.per_iter_us > 0.0 ? problem.flops() / (res.per_iter_us * 1e-6) / 1e9 : 0.0;
}

/// Adapt the caller's request to a fallback rung (same policy as
/// ResilientRunner): plain SYCL variant, and the first paper-valid
/// (order, local size) when the caller's choice does not exist there.
RunRequest adapt_request(const RunRequest& base, Strategy s, std::int64_t sites) {
  if (s == base.strategy) return base;
  RunRequest r = base;
  r.strategy = s;
  r.variant = Variant::SYCL;
  const std::vector<IndexOrder> orders = orders_of(s);
  if (std::find(orders.begin(), orders.end(), r.order) == orders.end()) {
    r.order = orders.front();
  }
  if (!is_valid_local_size(s, r.order, r.local_size, sites)) {
    const std::vector<int> sizes = paper_local_sizes(s, r.order, sites);
    if (!sizes.empty()) r.local_size = sizes.front();
  }
  return r;
}

/// Discard a queue's buffered async errors (the hardened path classifies
/// faults from stats.fault at the submission site; the buffered exceptions
/// are the same information).
void drain_errors(minisycl::queue& q) {
  try {
    q.wait_and_throw();
  } catch (const minisycl::exception&) {
    // already handled via stats.fault
  }
}

/// The unique message site name, shared between gpusim's injector consult,
/// the ExchangeReport and docs/RESILIENCE.md.
std::string exchange_site(int src, int dst) {
  return "halo-exchange r" + std::to_string(src) + "->r" + std::to_string(dst);
}

std::string pack_site(int src, int dst) {
  return "halo-pack r" + std::to_string(src) + "->r" + std::to_string(dst);
}

std::string unpack_site(int src, int dst) {
  return "halo-unpack r" + std::to_string(src) + "->r" + std::to_string(dst);
}

}  // namespace

namespace detail {

namespace {
thread_local const ScopedSkipUnpack* g_skip_unpack = nullptr;
}  // namespace

ScopedSkipUnpack::ScopedSkipUnpack(int rank, std::size_t mi)
    : rank_(rank), mi_(mi), prev_(g_skip_unpack) {
  g_skip_unpack = this;
}

ScopedSkipUnpack::~ScopedSkipUnpack() { g_skip_unpack = prev_; }

bool skip_unpack(int rank, std::size_t mi) {
  const ScopedSkipUnpack* s = g_skip_unpack;
  return s != nullptr && s->rank_ == rank && s->mi_ == mi;
}

}  // namespace detail

std::string ExchangeReport::summary() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ExchangeReport: %s  rounds=%d  messages=%d  retx=%d  drop=%d  corrupt=%d  "
                "delay=%d  checksum-fail=%d  backoff=%.1f us%s\n",
                succeeded ? "SUCCEEDED" : "FAILED", rounds, messages, retransmissions, drops,
                corruptions, delays, checksum_failures, backoff_us,
                watchdog_fired ? "  WATCHDOG" : "");
  out += buf;
  for (const ExchangeEvent& e : events) {
    std::snprintf(buf, sizeof(buf), "  round %d %s: %s%s%s%s%s\n", e.round, e.site.c_str(),
                  e.delivered ? "delivered" : "failed", e.dropped ? " [dropped]" : "",
                  e.corrupted ? " [corrupted]" : "", e.delayed ? " [delayed]" : "",
                  e.checksum_ok ? "" : " [checksum mismatch]");
    out += buf;
  }
  return out;
}

PartitionGrid fallback_grid(const PartitionGrid& grid) {
  PartitionGrid next = grid;
  for (int d = 0; d < 4; ++d) {
    const int n = next.devices[static_cast<std::size_t>(d)];
    if (n <= 1) continue;
    int factor = n;  // smallest prime factor
    for (int f = 2; f * f <= n; ++f) {
      if (n % f == 0) {
        factor = f;
        break;
      }
    }
    next.devices[static_cast<std::size_t>(d)] = n / factor;
    return next;
  }
  return next;
}

gpusim::NodeTopology effective_topology(const gpusim::NodeTopology& topo, int devices) {
  gpusim::NodeTopology t = topo;
  if (topo.multi_node() && devices > topo.devices_per_node &&
      devices % topo.devices_per_node == 0) {
    t.nodes = devices / topo.devices_per_node;
  } else {
    t.nodes = 1;
    t.devices_per_node = devices;
  }
  return t;
}

int pick_local_size(Strategy s, IndexOrder o, int preferred, std::int64_t sites) {
  // The fallback ladder (paper pool, warp-aligned multiples, partial-warp
  // algorithmic multiples) now lives in tune::local_size_ladder — the same
  // enumeration the online tuner sweeps on a cache miss.
  return tune::pick_local_size(s, o, preferred, sites);
}

MultiDevResult MultiDeviceRunner::run(DslashProblem& problem,
                                      const MultiDevRequest& mreq) const {
  std::unique_ptr<ShardPlan> plan;
  return run(problem, mreq, plan);
}

MultiDevResult MultiDeviceRunner::run(DslashProblem& problem, const MultiDevRequest& mreq,
                                      std::unique_ptr<ShardPlan>& plan) const {
  // One rule for both paths, checked before any fault consult (score_grid's
  // rule): a grid may use fewer devices than the topology declares — it is
  // re-packed by effective_topology — but never more.
  if (mreq.grid.total() > mreq.topo.total_devices()) {
    throw std::invalid_argument("MultiDeviceRunner: grid needs " +
                                std::to_string(mreq.grid.total()) +
                                " devices but the topology has " +
                                std::to_string(mreq.topo.total_devices()));
  }
  if (faultsim::Injector::current() != nullptr) return run_hardened(problem, mreq, plan);
  if (mreq.grid.total() == 1 && mreq.mode == minisycl::ExecMode::profiled) {
    // Delegate so single-device numbers reproduce bench_fig6 exactly (the
    // driver would be bit-identical in values but allocates shard copies at
    // different addresses, and the run would carry pack/unpack launches a
    // true single-device run does not have).
    const DslashRunner single(machine_, cal_);
    const RunResult rr = single.run(problem, mreq.req);
    MultiDevResult res;
    res.label = rr.label + " @ " + mreq.grid.label();
    res.devices = 1;
    res.per_iter_us = rr.per_iter_us;
    res.gflops = rr.gflops;
    DeviceTimeline t;
    t.interior_sites = problem.sites();
    t.interior_us = rr.kernel_us;
    t.iter_us = rr.per_iter_us;
    res.per_device.push_back(t);
    res.final_grid = mreq.grid;
    res.wire = mreq.wire;
    return res;
  }
  MultiDevResult res;
  std::string unused;  // a fault-free pass cannot fail
  (void)drive(problem, mreq, resident_plan(plan, problem, mreq.grid), res, unused);
  return res;
}

tune::TuneKey MultiDeviceRunner::tune_key(const DslashProblem& problem,
                                          const MultiDevRequest& mreq) const {
  tune::TuneKey key;
  key.arch = tune::arch_fingerprint(machine_);
  const LatticeGeom& g = problem.geom();
  key.geom = tune::geom_signature(g.extent(0), g.extent(1), g.extent(2), g.extent(3),
                                  problem.target_parity() == Parity::Even);
  key.kernel = "mdslash";
  key.config = std::string(to_string(mreq.req.strategy)) + " " +
               to_string(mreq.req.order) + " " + variant_info(mreq.req.variant).name +
               " grid " + mreq.grid.label();
  // Wire format rides the grammar's prec/recon fields; the fp64/recon-18
  // default maps to the field defaults so pre-wire-format entries replay.
  key.prec = wire_prec_field(mreq.wire);
  key.recon = wire_recon_field(mreq.wire);
  key.devices = mreq.grid.total();
  key.topo = tune::topo_signature(mreq.topo.nodes, mreq.topo.devices_per_node);
  return key;
}

MultiDevTunedResult MultiDeviceRunner::run_tuned(DslashProblem& problem,
                                                 const MultiDevRequest& mreq) const {
  const tune::TuneKey key = tune_key(problem, mreq);

  std::vector<tune::Candidate> candidates;
  for (int ls : paper_local_sizes(mreq.req.strategy, mreq.req.order, problem.sites())) {
    tune::Candidate c;
    c.local_size = ls;
    c.order = to_string(mreq.req.order);
    c.grid = mreq.grid.label();
    candidates.push_back(c);
  }

  // Every candidate runs on the same grid, so they share one plan.
  std::unique_ptr<ShardPlan> plan;
  std::map<int, MultiDevResult> priced;
  const tune::PriceFn price = [&](const tune::Candidate& c) {
    MultiDevRequest r = mreq;
    r.req.local_size = c.local_size;
    MultiDevResult res = run(problem, r, plan);
    const double t = res.per_iter_us;
    priced[c.local_size] = std::move(res);
    return t;
  };

  const tune::TuneOutcome out = tune::tune_or_replay(key, candidates, price);
  MultiDevTunedResult tr;
  tr.entry = out.entry;
  tr.from_cache = out.from_cache;
  tr.candidates_tried = out.candidates_tried;
  tr.result = std::move(priced.at(out.entry.local_size));
  return tr;
}

std::vector<ksan::SanitizerReport> MultiDeviceRunner::dsan_check(
    DslashProblem& problem, const MultiDevRequest& mreq) const {
  dsan::ScopedRecorder sr;
  (void)run(problem, mreq);
  return dsan::check_all(sr.rec.trace(), mreq.grid.label());
}

std::int64_t shard_slab_bytes(const Partitioner& part, int rank) {
  return shard_slab_bytes(part, rank, WireFormat{});
}

std::int64_t shard_slab_bytes(const Partitioner& part, int rank, const WireFormat& wire) {
  const Shard& sh = part.shard(rank);
  // Gauge links ride the wire in the recon frame (docs/WIRE.md §3); spinors
  // in the spinor wire format.  k18 + fp64 reproduces the historical
  // 144 B/link + 48 B/site numbers bit-for-bit.
  const std::int64_t gauge =
      sh.targets() * kNlinks * kNdim * gauge_link_bytes(wire.gauge);
  const std::int64_t spinor = sh.extended_sources() * spinor_site_bytes(wire.spinor);
  return gauge + spinor;
}

namespace {

/// One grid abandoned by a shrink failover, kept so a later heal of the
/// stickily-lost resource can rejoin it (newest on top of the stack).
struct RejoinTarget {
  PartitionGrid grid{};
  std::string what;  ///< heal-site grammar: "device r<k>" | "node n<j>"
};

/// Priced, checksummed, retransmitting wire transfer of rank `dst`'s shard
/// state (`bytes`, see shard_slab_bytes) from survivor `src` onto the device
/// adopting it on `grid` — a hot spare, a standby node or a rejoining rank.
/// Mirrors the hardened halo exchange: one injector consult per round, dsan
/// send/recv/checksum per transmission, exponential backoff between rounds,
/// every microsecond charged to the elastic accounting on `res`.  A verified
/// delivery enters the dsan trace as `dst`'s rejoin (`why`) followed by its
/// resync on that delivery (`verified`); false when the round budget is
/// spent — the caller then falls back to shrinking the grid.
bool transfer_slab(faultsim::Injector* inj, const gpusim::NodeTopology& topo, int src, int dst,
                   const PartitionGrid& grid, std::int64_t bytes, const ExchangeConfig& xc,
                   MultiDevResult& res, const std::string& why, const std::string& verified) {
  dsan::Recorder* rec = dsan::Recorder::current();
  const std::string site = "rereplicate r" + std::to_string(dst) + " @ " + grid.label();
  const bool cross = topo.multi_node() && !topo.same_node(src, dst);
  double spent = 0.0;
  bool delivered = false;
  for (int round = 1; round <= xc.max_rounds && !delivered; ++round) {
    const faultsim::LinkVerdict v =
        inj->on_message(site, static_cast<std::uint64_t>(bytes));
    double wire = cross ? gpusim::fabric_wire_time_us(topo.fabric, bytes)
                        : gpusim::wire_time_us(topo.intra, src % topo.devices_per_node,
                                               dst % topo.devices_per_node, bytes);
    if (v.delayed) wire = wire * v.bw_factor + v.extra_latency_us;
    spent += wire;
    res.rereplicated_bytes += bytes;
    delivered = !v.dropped && !v.corrupted;
    std::uint64_t uid = 0;
    if (rec != nullptr) {
      uid = rec->send(src, dst, site, round,
                      dsan::MemSpan{0, static_cast<std::uint64_t>(bytes)}, v.dropped, cross,
                      topo.node_of(src), topo.node_of(dst));
      if (!v.dropped) {
        rec->recv(uid, /*delivered=*/!v.corrupted);
        rec->checksum(uid, !v.corrupted);
      }
      if (delivered) {
        rec->rejoin(dst, why);
        rec->resync(dst, uid, verified);
      }
    }
    if (!delivered) spent += xc.backoff_base_us * std::pow(xc.backoff_factor, round - 1);
  }
  res.rereplication_us += spent;
  res.recovery_us += spent;
  return delivered;
}

}  // namespace

MultiDevResult MultiDeviceRunner::run_hardened(DslashProblem& problem,
                                               const MultiDevRequest& mreq,
                                               std::unique_ptr<ShardPlan>& plan) const {
  faultsim::Injector* inj = faultsim::Injector::current();
  dsan::Recorder* rec = dsan::Recorder::current();
  const std::size_t log_mark = inj->log().size();

  MultiDevResult res;
  PartitionGrid grid = mreq.grid;
  // Abandon `grid` for `next` and record why.
  const auto fail_over = [&](const PartitionGrid& next, const std::string& reason,
                             int attempt) {
    res.failovers.push_back(FailoverEvent{grid, next, reason, attempt});
    if (rec != nullptr) rec->failover(reason);
    grid = next;
  };
  // Hot-spare pool (elastic recovery): device spares per node group of the
  // *requested* topology, plus whole standby nodes behind the fabric.
  int device_spares = mreq.topo.spares.devices_per_node * std::max(1, mreq.topo.nodes);
  int node_spares = mreq.topo.spares.nodes;
  // Grids abandoned by shrink failovers, newest last; a heal of the lost
  // resource pops one and rejoins.  Seeded from the request when a previous
  // run (e.g. an earlier CG apply) already shrank.
  std::vector<RejoinTarget> rejoinable;
  if (mreq.rejoin_grid.total() > grid.total() && !mreq.rejoin_what.empty()) {
    rejoinable.push_back(RejoinTarget{mreq.rejoin_grid, mreq.rejoin_what});
  }
  for (int attempt = 0;; ++attempt) {
    const int ndev = grid.total();
    const gpusim::NodeTopology topo = effective_topology(mreq.topo, ndev);

    // Live rejoin: when capacity was shrunk away, ask the heal stream
    // whether the stickily-lost resource returned to service; if so,
    // re-replicate shard state onto the re-admitted ranks (priced over the
    // wire, checksummed) and continue on the larger grid.  The rejoined
    // ranks compute nothing before their resync — the RejoinBeforeResync
    // protocol check enforces exactly that window.
    if (!rejoinable.empty() &&
        inj->on_heal_check("heal/" + rejoinable.back().what + " @ " + grid.label())) {
      const RejoinTarget tgt = rejoinable.back();
      const gpusim::NodeTopology big_topo = effective_topology(mreq.topo, tgt.grid.total());
      // The re-admitted ranks receive the shard state of the rejoined grid's
      // plan — built here, and kept for the attempt on that grid.
      const Partitioner& part = resident_plan(plan, problem, tgt.grid).partitioner();
      bool resynced = true;
      for (int r = ndev; r < tgt.grid.total() && resynced; ++r) {
        // A survivor re-sends the slabs it holds; a spent transfer budget
        // leaves the run on the small grid.
        resynced = transfer_slab(inj, big_topo, r % ndev, r, tgt.grid,
                                 shard_slab_bytes(part, r, mreq.wire), mreq.xcfg, res,
                                 tgt.what + " healed; rank r" + std::to_string(r) +
                                     " re-admitted",
                                 "replica verified on " + tgt.grid.label());
      }
      if (resynced) {
        ++res.rejoins;
        res.capacity_restored += tgt.grid.total() - ndev;
        res.failovers.push_back(FailoverEvent{
            grid, tgt.grid, tgt.what + " healed; rejoined " + tgt.grid.label(), attempt});
        rejoinable.pop_back();
        grid = tgt.grid;
        continue;
      }
    }

    // Node health: one consult per node group per attempt, before the
    // per-device checks — losing a node loses all its devices at once, so
    // the grid must shrink below the survivor count in one failover.
    int lost_node = -1;
    if (topo.multi_node()) {
      for (int n = 0; n < topo.nodes; ++n) {
        if (inj->on_node_check("node n" + std::to_string(n) + " @ " + grid.label())) {
          lost_node = n;
          break;
        }
      }
    }
    if (lost_node >= 0) {
      // A standby node adopts every lost shard over the fabric instead of
      // shrinking below the survivor count.
      if (node_spares > 0) {
        const Partitioner& part = resident_plan(plan, problem, grid).partitioner();
        bool adopted = true;
        for (int d = 0; d < topo.devices_per_node && adopted; ++d) {
          const int r = lost_node * topo.devices_per_node + d;
          adopted = transfer_slab(inj, topo, (r + topo.devices_per_node) % ndev, r, grid,
                                  shard_slab_bytes(part, r, mreq.wire), mreq.xcfg, res,
                                  "standby node adopts rank r" + std::to_string(r),
                                  "replica verified on standby node");
        }
        if (adopted) {
          --node_spares;
          ++res.spares_consumed;
          res.failovers.push_back(FailoverEvent{
              grid, grid,
              "node n" + std::to_string(lost_node) +
                  " lost; re-replicated onto standby node",
              attempt});
          continue;
        }
      }
      const int survivors = ndev - topo.devices_per_node;
      PartitionGrid next = grid;
      while (next.total() > survivors && next.total() > 1) next = fallback_grid(next);
      rejoinable.push_back(RejoinTarget{grid, "node n" + std::to_string(lost_node)});
      fail_over(next,
                "node n" + std::to_string(lost_node) + " lost (" +
                    std::to_string(topo.devices_per_node) + " devices)",
                attempt);
      continue;
    }

    // Device health: one consult per device per attempt.  A lost device has
    // no spare on a 1x1x1x1 grid, so single-device runs skip the consult
    // (ResilientRunner is the single-device recovery story).
    int lost = -1;
    if (ndev > 1) {
      for (int d = 0; d < ndev; ++d) {
        if (inj->on_device_check("device r" + std::to_string(d) + " @ " + grid.label())) {
          lost = d;
          break;
        }
      }
    }
    if (lost >= 0) {
      // A hot spare on the island adopts the lost shard and the grid keeps
      // its full width; only when no spare (or no transfer budget) is left
      // does the shrink failover below run.
      if (device_spares > 0 &&
          transfer_slab(inj, topo, (lost + 1) % ndev, lost, grid,
                        shard_slab_bytes(resident_plan(plan, problem, grid).partitioner(),
                                         lost, mreq.wire),
                        mreq.xcfg, res, "hot spare adopts rank r" + std::to_string(lost),
                        "replica verified on spare")) {
        --device_spares;
        ++res.spares_consumed;
        res.failovers.push_back(FailoverEvent{
            grid, grid,
            "device r" + std::to_string(lost) + " lost; shard re-replicated onto hot spare",
            attempt});
        continue;
      }
      rejoinable.push_back(RejoinTarget{grid, "device r" + std::to_string(lost)});
      fail_over(fallback_grid(grid), "device r" + std::to_string(lost) + " lost", attempt);
      continue;
    }

    // One Dslash application is stateless (inputs b/cfg are never mutated,
    // and the plan reloads all per-apply state from them), so "replay from
    // the last consistent state" is a rerun from the inputs on the surviving
    // grid; the sharded CG solver layers checkpointed *solver* state on top.
    std::string reason;
    if (drive(problem, mreq, resident_plan(plan, problem, grid), res, reason)) break;
    if (grid.total() == 1) {
      // Nothing left to shrink to: recovery exhausted.
      res.recovered = false;
      res.failovers.push_back(FailoverEvent{grid, grid, reason + " (no surviving grid)",
                                            attempt});
      break;
    }
    fail_over(fallback_grid(grid), reason, attempt);
  }

  res.faults = inj->log_since(log_mark);
  return res;
}

bool MultiDeviceRunner::drive(DslashProblem& problem, const MultiDevRequest& mreq,
                              ShardPlan& plan, MultiDevResult& res,
                              std::string& fail_reason) const {
  // The fault-plan switch: with an injector installed, payloads are
  // checksummed, every delivery lands on a receiver-side copy and
  // undelivered messages ride retransmission rounds.  Kernel retries and
  // the strategy ladder below engage only on an injected fault, so without
  // one every step runs exactly once.
  faultsim::Injector* const inj = faultsim::Injector::current();
  const PartitionGrid& grid = plan.grid();
  const int ndev = grid.total();
  const gpusim::NodeTopology topo = effective_topology(mreq.topo, ndev);
  const auto crosses_fabric = [&](int a, int b) {
    return topo.multi_node() && !topo.same_node(a, b);
  };
  const ExchangeConfig& xc = mreq.xcfg;
  const std::vector<Shard>& shards = plan.shards();
  // Wire buffers hold *encoded* payload bytes in the request's wire format:
  // the pack kernels write the wire element type directly, and checksums,
  // corruption, retransmission and pricing all operate on these bytes.
  const SpinorWire sw = mreq.wire.spinor;
  plan.load(problem.b());
  plan.size_wires(sw);

  const VariantInfo& vi = variant_info(mreq.req.variant);
  std::vector<minisycl::queue> queues(
      static_cast<std::size_t>(ndev), minisycl::queue(mreq.mode, vi.queue_order, machine_, cal_));
  dsan::Recorder* rec = dsan::Recorder::current();
  if (rec != nullptr) {
    rec->barrier("apply @ " + grid.label());
    // The hook fires only on successful submissions, so retried failures
    // never enter the trace; each step below refines the raw Kernel event
    // with its protocol site and memory spans via annotate().
    for (int d = 0; d < ndev; ++d) {
      queues[static_cast<std::size_t>(d)].set_kernel_hook(
          [rec, d](const std::string& name, const gpusim::KernelStats&) { rec->kernel(d, name); });
    }
  }

  res.label = config_label(mreq.req.strategy, mreq.req.order, mreq.req.local_size) + " @ " +
              grid.label();
  res.devices = ndev;
  res.nodes = topo.nodes;
  res.final_grid = grid;
  res.wire = mreq.wire;
  PhaseTimes pt(ndev);

  // Bounded-retry submission of one halo (pack/unpack) kernel.
  auto submit_halo = [&](minisycl::queue& q, const minisycl::LaunchSpec& spec,
                         const auto& kernel, const std::string& name, int rank,
                         double& us_acc) -> bool {
    for (int a = 0; a < xc.max_kernel_attempts; ++a) {
      const gpusim::KernelStats st = q.submit(spec, kernel, name);
      if (st.fault.empty()) {
        us_acc += st.duration_us + q.launch_overhead_us();
        return true;
      }
      drain_errors(q);
      const double backoff = xc.backoff_base_us * std::pow(xc.backoff_factor, a);
      res.recovery_us += backoff;
      us_acc += backoff;
      res.shard_recoveries.push_back(
          ShardRecovery{rank, name, mreq.req.strategy, a, "retry", backoff});
    }
    return false;
  };

  // Bounded retry + strategy-fallback ladder for one Dslash range (the
  // per-shard analogue of ResilientRunner's rung loop).
  auto submit_range = [&](const Shard& sh, std::int64_t first, std::int64_t count,
                          const std::string& name, double& us_acc) -> bool {
    minisycl::queue& q = queues[static_cast<std::size_t>(sh.rank)];
    std::vector<Strategy> rungs{mreq.req.strategy};
    for (Strategy s : xc.ladder) {
      if (std::find(rungs.begin(), rungs.end(), s) == rungs.end()) rungs.push_back(s);
    }
    const DslashArgs<dcomplex> args = range_args(plan.fields(sh.rank), sh, first, count);
    for (std::size_t rung = 0; rung < rungs.size(); ++rung) {
      const RunRequest r = adapt_request(mreq.req, rungs[rung], count);
      const VariantInfo& rvi = variant_info(r.variant);
      const int ls = pick_local_size(r.strategy, r.order, r.local_size, count);
      for (int a = 0; a < xc.max_kernel_attempts; ++a) {
        const gpusim::KernelStats st =
            submit_dslash(q, args, sh.extended_sources(), r, rvi, ls, name);
        if (st.fault.empty()) {
          us_acc += st.duration_us + q.launch_overhead_us();
          return true;
        }
        drain_errors(q);
        const bool last_attempt = a + 1 == xc.max_kernel_attempts;
        const bool last_rung = rung + 1 == rungs.size();
        const double backoff =
            last_attempt ? 0.0 : xc.backoff_base_us * std::pow(xc.backoff_factor, a);
        res.recovery_us += backoff;
        us_acc += backoff;
        res.shard_recoveries.push_back(ShardRecovery{
            sh.rank, name, r.strategy, a,
            last_attempt ? (last_rung ? "abort" : "fallback") : "retry", backoff});
      }
    }
    return false;
  };

  // Every inbound message in canonical (receiver, message) order: the order
  // the wire prices and consults them in, and the unpack order.
  struct Msg {
    int dst = 0;
    std::size_t mi = 0;
    double scale = 1.0;          ///< fp16 range scale, fixed by the sender
    std::uint64_t checksum = 0;  ///< FNV-1a of the packed payload (fault plan only)
    std::uint64_t tx = 0;        ///< dsan uid of the delivery the unpack consumes
  };
  std::vector<Msg> msgs;
  for (const Shard& sh : shards) {
    for (std::size_t mi = 0; mi < sh.halo.size(); ++mi) msgs.push_back({sh.rank, mi});
  }
  const auto halo_of = [&](const Msg& m) -> const HaloMsg& {
    return shards[static_cast<std::size_t>(m.dst)].halo[m.mi];
  };
  const auto wire_of = [&](const Msg& m) -> std::vector<std::byte>& {
    return plan.fields(m.dst).wire[m.mi];
  };
  const auto rx_of = [&](const Msg& m) -> std::vector<std::byte>& {
    return plan.fields(m.dst).rx[m.mi];
  };

  // --- pack: every sender gathers its outbound faces. -------------------
  // Fabric-bound slabs pack first so their aggregates hit the slow pipe
  // while the NVLink slabs are still packing — the two-phase schedule; a
  // single node has no fabric pass.
  std::vector<double> fabric_pack_us;
  for (const bool fabric_pass : {true, false}) {
    for (Msg& m : msgs) {
      const HaloMsg& hm = halo_of(m);
      if (crosses_fabric(hm.peer, m.dst) != fabric_pass) continue;
      const auto peer = static_cast<std::size_t>(hm.peer);
      const ShardFields& sender = plan.fields(hm.peer);
      m.scale = message_scale(sw, sender.src.data(), hm);
      const std::string name = pack_site(hm.peer, m.dst);
      const bool ok = with_pack_kernel(
          plan, shards[static_cast<std::size_t>(m.dst)], m.mi, sw, m.scale,
          [&](const minisycl::LaunchSpec& spec, const auto& pack) {
            return submit_halo(queues[peer], spec, pack, name, hm.peer, pt.pack[peer]);
          });
      if (!ok) {
        fail_reason = "pack kernel '" + name + "' exhausted its retries";
        return false;
      }
      const std::vector<std::byte>& wire = wire_of(m);
      if (rec != nullptr) {
        rec->annotate(hm.peer, name,
                      {dsan::span_of(sender.src.data(),
                                     static_cast<std::size_t>(shards[peer].sources())),
                       dsan::span_of(hm.send_slots.data(), hm.send_slots.size())},
                      {dsan::span_of(wire.data(), wire.size())});
      }
      if (inj != nullptr) m.checksum = fnv1a(wire.data(), wire.size());
    }
    if (fabric_pass) fabric_pack_us = pt.pack;
  }

  // --- interior compute, concurrent with the exchange. ------------------
  // Host execution order (interior before unpack) also proves the interior
  // range reads no ghost slot: ghosts are still NaN poison here.
  for (const Shard& sh : shards) {
    if (sh.n_interior == 0) continue;
    const std::string name = "dslash-interior r" + std::to_string(sh.rank);
    if (!submit_range(sh, 0, sh.n_interior, name,
                      pt.interior[static_cast<std::size_t>(sh.rank)])) {
      fail_reason = "interior kernel '" + name + "' exhausted the strategy ladder";
      return false;
    }
    if (rec != nullptr) {
      const ShardFields& f = plan.fields(sh.rank);
      rec->annotate(sh.rank, name,
                    {dsan::span_of(f.src.data(), static_cast<std::size_t>(sh.sources()))},
                    {dsan::span_of(f.dst.data(), static_cast<std::size_t>(sh.n_interior))});
    }
  }

  // --- exchange rounds: price -> deliver -> verify -> retransmit. -------
  // A device puts its messages on the wire once the packs feeding them are
  // done (bulk departure, the cudaMemcpyPeerAsync-after-pack pattern);
  // fabric-bound slabs depart at the end of the fabric pass.  Under a fault
  // plan the sender's wire buffer stays pristine: every delivery lands on a
  // receiver-side copy, so corruption never destroys the retransmission
  // source and a verified payload is unpacked exactly once.
  ExchangeReport unreported;  // the report is hardened-path accounting
  ExchangeReport& xr = inj != nullptr ? res.exchange : unreported;
  xr.messages += static_cast<int>(msgs.size());
  std::vector<std::size_t> pend(msgs.size());
  for (std::size_t i = 0; i < pend.size(); ++i) pend[i] = i;
  double wire_clock = 0.0;
  for (int round = 1; !pend.empty(); ++round) {
    if (round > xc.max_rounds) {
      xr.succeeded = false;
      fail_reason = "exchange exhausted " + std::to_string(xc.max_rounds) +
                    " delivery rounds (" + std::to_string(pend.size()) + " undelivered)";
      return false;
    }
    ++xr.rounds;
    if (round > 1) xr.retransmissions += static_cast<int>(pend.size());

    std::vector<gpusim::LinkMessage> wire_msgs;
    wire_msgs.reserve(pend.size());
    for (const std::size_t i : pend) {
      const HaloMsg& hm = halo_of(msgs[i]);
      const auto peer = static_cast<std::size_t>(hm.peer);
      const int dst = msgs[i].dst;
      const double packed =
          crosses_fabric(hm.peer, dst) ? fabric_pack_us[peer] : pt.pack[peer];
      wire_msgs.push_back({.src = hm.peer,
                           .dst = dst,
                           .bytes = hm.wire_bytes(sw),
                           .depart_us = std::max(packed, wire_clock),
                           .site = exchange_site(hm.peer, dst)});
    }
    // Over a multi-node topology the round's messages ride the two-level
    // exchange: intra-node ones keep their per-message fault sites, inter-
    // node ones are aggregated per neighbour and consulted per aggregate.
    // Retransmissions re-enter here round after round, so a pending frame
    // joins the next round's (smaller) aggregate — retransmit-over-fabric.
    if (topo.multi_node()) {
      const gpusim::FabricExchangeReport frep =
          gpusim::simulate_topology_exchange(topo, wire_msgs);
      res.intra_node_bytes += frep.intra_bytes;
      res.inter_node_bytes += frep.inter_bytes;
      res.fabric_messages += frep.inter_messages;
      res.intra_wire_us += frep.intra_wire_us;
      res.inter_wire_us += frep.inter_wire_us;
    } else {
      res.intra_node_bytes += simulate_exchange(topo.intra, wire_msgs, ndev).total_bytes;
    }

    // Transmissions enter the trace after the wire simulation so the drop
    // verdict rides the Send event (a retransmit round records fresh uids).
    std::vector<std::uint64_t> round_tx(wire_msgs.size(), 0);
    if (rec != nullptr) {
      for (std::size_t j = 0; j < wire_msgs.size(); ++j) {
        const gpusim::LinkMessage& lm = wire_msgs[j];
        const std::vector<std::byte>& wire = wire_of(msgs[pend[j]]);
        round_tx[j] = rec->send(lm.src, lm.dst, lm.site, round,
                                dsan::span_of(wire.data(), wire.size()), lm.dropped,
                                crosses_fabric(lm.src, lm.dst), topo.node_of(lm.src),
                                topo.node_of(lm.dst));
      }
    }

    std::vector<std::size_t> undelivered;
    double round_end = wire_clock;
    for (std::size_t j = 0; j < wire_msgs.size(); ++j) {
      Msg& m = msgs[pend[j]];
      const gpusim::LinkMessage& lm = wire_msgs[j];
      round_end = std::max(round_end, lm.done_us);
      ExchangeEvent ev{.round = round,
                       .src = lm.src,
                       .dst = lm.dst,
                       .site = lm.site,
                       .dropped = lm.dropped,
                       .corrupted = lm.corrupted,
                       .delayed = lm.delayed};
      xr.drops += lm.dropped ? 1 : 0;
      xr.corruptions += lm.corrupted ? 1 : 0;
      xr.delays += lm.delayed ? 1 : 0;
      if (!lm.dropped) {
        const std::vector<std::byte>& wire = wire_of(m);
        std::vector<std::byte>& rx = rx_of(m);
        std::vector<dsan::MemSpan> copies;
        if (inj != nullptr) {
          rx.assign(wire.begin(), wire.end());
          if (lm.corrupted) {
            // The bit flip lands in the *encoded* wire bytes — on a reduced
            // format that is the compressed payload, so the checksum below
            // (also over encoded bytes) catches it before any decode runs.
            faultsim::flip_bit(rx.data(), rx.size(), lm.corrupt_key);
          }
          ev.checksum_ok = fnv1a(rx.data(), rx.size()) == m.checksum;
          copies.push_back(dsan::span_of(rx.data(), rx.size()));
        }
        if (rec != nullptr) {
          rec->recv(round_tx[j], ev.checksum_ok, {dsan::span_of(wire.data(), wire.size())},
                    std::move(copies));
          if (inj != nullptr) rec->checksum(round_tx[j], ev.checksum_ok);
        }
        if (ev.checksum_ok) {
          ev.delivered = true;
          m.tx = round_tx[j];
          pt.arrival[static_cast<std::size_t>(lm.dst)] =
              std::max(pt.arrival[static_cast<std::size_t>(lm.dst)], lm.done_us);
        } else {
          ++xr.checksum_failures;
        }
      }
      if (!ev.delivered) undelivered.push_back(pend[j]);
      xr.events.push_back(std::move(ev));
    }
    pend = std::move(undelivered);

    if (!pend.empty()) {
      const double backoff = xc.backoff_base_us * std::pow(xc.backoff_factor, round - 1);
      xr.backoff_us += backoff;
      res.recovery_us += backoff;
      wire_clock = round_end + backoff;
      if (wire_clock > xc.watchdog_us) {
        xr.watchdog_fired = true;
        fail_reason = "exchange watchdog expired after round " + std::to_string(round) + " (" +
                      std::to_string(pend.size()) + " undelivered)";
        return false;
      }
    }
  }
  xr.succeeded = true;

  // --- unpack the verified payloads, then boundary compute. -------------
  for (const Msg& m : msgs) {
    if (detail::skip_unpack(m.dst, m.mi)) continue;
    const HaloMsg& hm = halo_of(m);
    const auto dst = static_cast<std::size_t>(m.dst);
    const std::vector<std::byte>& payload = inj != nullptr ? rx_of(m) : wire_of(m);
    const std::string name = unpack_site(hm.peer, m.dst);
    const bool ok = with_unpack_kernel(
        plan, shards[dst], m.mi, sw, payload.data(), m.scale,
        [&](const minisycl::LaunchSpec& spec, const auto& unpack) {
          return submit_halo(queues[dst], spec, unpack, name, m.dst, pt.unpack[dst]);
        });
    if (!ok) {
      fail_reason = "unpack kernel '" + name + "' exhausted its retries";
      return false;
    }
    if (rec != nullptr) {
      rec->annotate(m.dst, name, {dsan::span_of(payload.data(), payload.size())},
                    {dsan::span_of(plan.fields(m.dst).src.data() + hm.ghost_base,
                                   static_cast<std::size_t>(hm.count()))},
                    m.tx);
    }
  }

  for (const Shard& sh : shards) {
    if (sh.n_boundary == 0) continue;
    const std::string name = "dslash-boundary r" + std::to_string(sh.rank);
    if (!submit_range(sh, sh.n_interior, sh.n_boundary, name,
                      pt.boundary[static_cast<std::size_t>(sh.rank)])) {
      fail_reason = "boundary kernel '" + name + "' exhausted the strategy ladder";
      return false;
    }
    if (rec != nullptr) {
      const ShardFields& f = plan.fields(sh.rank);
      rec->annotate(
          sh.rank, name,
          {dsan::span_of(f.src.data(), static_cast<std::size_t>(sh.extended_sources()))},
          {dsan::span_of(f.dst.data() + sh.n_interior,
                         static_cast<std::size_t>(sh.n_boundary))});
    }
  }

  // --- gather the output and assemble the overlap timeline. -------------
  plan.store(problem.c());
  assemble_timeline(problem, plan, sw, pt, res);
  return true;
}

void MultiDeviceRunner::run_functional(DslashProblem& problem, const PartitionGrid& grid,
                                       Strategy s, IndexOrder o, int preferred_local_size,
                                       const WireFormat& wire_fmt) const {
  ShardPlan plan(problem, grid);
  run_functional(problem, plan, s, o, preferred_local_size, wire_fmt);
}

void MultiDeviceRunner::run_functional(DslashProblem& problem, ShardPlan& plan, Strategy s,
                                       IndexOrder o, int preferred_local_size,
                                       const WireFormat& wire_fmt) const {
  if (!plan.built_for(problem, plan.grid())) {
    throw std::invalid_argument("run_functional: the plan for grid " + plan.grid().label() +
                                " was built for a different problem");
  }
  MultiDevRequest mreq;
  mreq.grid = plan.grid();
  mreq.req = RunRequest{.strategy = s, .order = o, .local_size = preferred_local_size};
  mreq.wire = wire_fmt;
  mreq.mode = minisycl::ExecMode::functional;
  MultiDevResult res;
  std::string reason;
  if (!drive(problem, mreq, plan, res, reason)) {
    throw std::runtime_error("run_functional: " + reason);
  }
}

void MultiDeviceRunner::run_reference(DslashProblem& problem, const PartitionGrid& grid,
                                      ColorField& out) const {
  ShardPlan plan(problem, grid);
  plan.load(problem.b());

  // Serial exchange: copy every wire site straight from owner to ghost slot.
  for (const Shard& sh : plan.shards()) {
    ShardFields& f = plan.fields(sh.rank);
    for (const HaloMsg& msg : sh.halo) {
      const ShardFields& peer = plan.fields(msg.peer);
      for (std::int64_t i = 0; i < msg.count(); ++i) {
        f.src[static_cast<std::size_t>(msg.ghost_base + i)] =
            peer.src[static_cast<std::size_t>(msg.send_slots[static_cast<std::size_t>(i)])];
      }
    }
  }

  // Per-shard evaluation in dslash_reference's exact loop order (k outer,
  // l inner, matvec + signed accumulate) over the gathered shard data —
  // the same values in the same operations, so bit-for-bit equal.
  for (const Shard& sh : plan.shards()) {
    const ShardFields& f = plan.fields(sh.rank);
    for (std::int64_t t = 0; t < sh.targets(); ++t) {
      SU3Vector<dcomplex> acc;
      for (int k = 0; k < kNdim; ++k) {
        for (int l = 0; l < kNlinks; ++l) {
          SU3Matrix<dcomplex> m;
          const auto& fam = f.links[static_cast<std::size_t>(l)];
          for (int j = 0; j < kColors; ++j) {
            for (int i = 0; i < kColors; ++i) {
              m.e[i][j] = fam[static_cast<std::size_t>(((t * kNdim + k) * kColors + j) *
                                                           kColors +
                                                       i)];
            }
          }
          const std::int32_t n =
              sh.neighbors[static_cast<std::size_t>(t * kNeighbors + k * kNlinks + l)];
          const SU3Vector<dcomplex> v = matvec(m, f.src[static_cast<std::size_t>(n)]);
          const double sign = kStencilSigns[static_cast<std::size_t>(l)];
          acc += sign * v;
        }
      }
      out[sh.target_eo[static_cast<std::size_t>(t)]] = acc;
    }
  }
}

namespace {

/// ksan replay of every pack and unpack launch of one exchange, with exact
/// region declarations.  Pack reads must stay inside the sender's *owned*
/// sources (reading a ghost slot would be an ordering bug) and write inside
/// the wire; unpack reads the payload and writes *only* its message's ghost
/// span — declaring exactly that span turns any stray write (owned sites,
/// another message's ghosts) into a reported OOB.  The fused convert
/// kernels run at the requested format, so accesses are checked against the
/// *encoded* buffers.  With `via_copy` the hardened data flow: every
/// delivery lands on a receiver-side copy the unpack reads (the sender
/// buffer stays pristine for retransmission), and the first message of
/// every shard is redelivered and re-unpacked in a *separate* launch — a
/// retransmission whose repeated ghost writes are ordered by the launch
/// boundary, hence clean.
std::vector<ksan::SanitizerReport> sanitize_messages(DslashProblem& problem,
                                                     const PartitionGrid& grid, SpinorWire sw,
                                                     bool via_copy) {
  ShardPlan plan(problem, grid);
  plan.load(problem.b());
  plan.size_wires(sw);
  std::vector<ksan::SanitizerReport> reports;
  for (const Shard& sh : plan.shards()) {
    ShardFields& f = plan.fields(sh.rank);
    for (std::size_t mi = 0; mi < sh.halo.size(); ++mi) {
      const HaloMsg& msg = sh.halo[mi];
      const ShardFields& peer = plan.fields(msg.peer);
      const std::vector<std::byte>& wire = f.wire[mi];
      const std::string suffix = " r" + std::to_string(msg.peer) + "->r" +
                                 std::to_string(sh.rank) + " dim" + std::to_string(msg.dim) +
                                 (msg.side == 0 ? "-" : "+");
      const double scale = message_scale(sw, peer.src.data(), msg);

      with_pack_kernel(
          plan, sh, mi, sw, scale,
          [&](const minisycl::LaunchSpec& spec, const auto& pack) {
            const Shard& sender = plan.shards()[static_cast<std::size_t>(msg.peer)];
            ksan::SanitizeConfig cfg;
            cfg.regions.push_back(
                ksan::region_of(peer.src.data(), static_cast<std::size_t>(sender.sources())));
            cfg.regions.push_back(ksan::region_of(msg.send_slots.data(), msg.send_slots.size()));
            cfg.regions.push_back(ksan::region_of(wire.data(), wire.size()));
            reports.push_back(
                ksan::sanitize_launch(spec, pack, std::move(cfg), "halo-pack" + suffix));
          });

      std::vector<std::byte>& rx = f.rx[mi];
      const int deliveries = via_copy && mi == 0 ? 2 : 1;
      for (int delivery = 0; delivery < deliveries; ++delivery) {
        if (via_copy) rx.assign(wire.begin(), wire.end());
        const std::vector<std::byte>& payload = via_copy ? rx : wire;
        with_unpack_kernel(
            plan, sh, mi, sw, payload.data(), scale,
            [&](const minisycl::LaunchSpec& spec, const auto& unpack) {
              ksan::SanitizeConfig cfg;
              cfg.regions.push_back(ksan::region_of(payload.data(), payload.size()));
              cfg.regions.push_back(ksan::region_of(f.src.data() + msg.ghost_base,
                                                    static_cast<std::size_t>(msg.count())));
              reports.push_back(ksan::sanitize_launch(
                  spec, unpack, std::move(cfg),
                  "halo-unpack" + suffix + (delivery > 0 ? " retry" : "")));
            });
      }
    }
  }
  return reports;
}

}  // namespace

std::vector<ksan::SanitizerReport> MultiDeviceRunner::sanitize_halo(
    DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire_fmt) const {
  return sanitize_messages(problem, grid, wire_fmt.spinor, /*via_copy=*/false);
}

std::vector<ksan::SanitizerReport> MultiDeviceRunner::sanitize_exchange(
    DslashProblem& problem, const PartitionGrid& grid, const WireFormat& wire_fmt) const {
  return sanitize_messages(problem, grid, wire_fmt.spinor, /*via_copy=*/true);
}

}  // namespace milc::multidev
