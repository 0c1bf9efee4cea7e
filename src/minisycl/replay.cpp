#include "minisycl/replay.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <thread>

#include "gpusim/pipeline.hpp"

namespace minisycl::detail {

AddressMap::AddressMap(const std::vector<AddressRegion>& regions) {
  std::uint64_t next = kCanonicalBase;
  for (const AddressRegion& r : regions) {
    if (r.base == nullptr || r.bytes <= 0) continue;
    const auto bytes = static_cast<std::uint64_t>(r.bytes);
    entries_.push_back({reinterpret_cast<std::uint64_t>(r.base), bytes, next});
    next += (bytes + 2 * kRegionAlign - 1) / kRegionAlign * kRegionAlign;
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.host < b.host; });
}

std::uint64_t AddressMap::translate_slow(std::uint64_t addr) const {
  auto it = std::upper_bound(entries_.begin(), entries_.end(), addr,
                             [](std::uint64_t a, const Entry& e) { return a < e.host; });
  if (it == entries_.begin()) return addr;
  --it;
  if (addr - it->host >= it->bytes) return addr;
  last_ = static_cast<std::size_t>(it - entries_.begin());
  return it->canonical + (addr - it->host);
}

namespace {

/// The caller thread runs stage 0 and one thread runs stage 2; stage 1 gets
/// the remaining cores.  Past a few workers stage 2 is the critical path.
constexpr int kMaxWorkers = 6;

/// Positions stage 1 transposes at a time (kTile x 32 events, 4 KB).
constexpr std::size_t kTile = 8;

using gpusim::L2Op;

/// One warp's execution of one phase, as recorded by stage 0.
struct Step {
  int sm = 0;
  int lanes = 0;
  std::size_t begin = 0;  ///< first event in the chunk (lane-major)
  std::size_t n = 0;      ///< events per lane
};

/// Stage-1 result for one step, in the owning worker's step order.
struct StepOut {
  std::size_t op_begin = 0;   ///< the step's requests in the worker's op list
  std::size_t op_end = 0;
  std::uint32_t mem_ops = 0;  ///< memory instructions issued (control-slot additions)
};

struct Chunk {
  std::vector<LaneEvent> events;
  std::vector<Step> steps;
  std::vector<std::vector<L2Op>> ops;      ///< per worker
  std::vector<std::vector<StepOut>> outs;  ///< per worker
};

/// Book one warp instruction over the lanes `member` selects — a FLOP
/// bundle or a memory instruction — and return the issue slots it takes.
template <typename Member>
int issue_group(gpusim::SmFrontEnd& fe, int l1, const LaneEvent* row, int lanes,
                EventKind kind, const AddressMap* amap, std::vector<L2Op>& ops,
                std::uint32_t& mem_ops, Member member) {
  gpusim::TraceCounters& ctr = fe.counters();
  if (kind == EventKind::Flops) {
    std::uint32_t max_n = 0;
    std::uint64_t sum_n = 0;
    for (int l = 0; l < lanes; ++l) {
      if (!member(l)) continue;
      max_n = std::max(max_n, row[l].value);
      sum_n += row[l].value;
    }
    const int group_slots = static_cast<int>((max_n + 1) / 2);  // FP64 FMA = 2 FLOP
    ctr.fp64_warp_slots += static_cast<std::uint64_t>(group_slots);
    ctr.flops += sum_n;
    return group_slots;
  }
  // Memory instruction.  Global addresses go through the launch's canonical
  // address map (shared events carry byte offsets, already
  // launch-deterministic).
  const bool global_kind = kind == EventKind::LoadGlobal || kind == EventKind::StoreGlobal ||
                           kind == EventKind::AtomicGlobal;
  const AddressMap* map = global_kind ? amap : nullptr;
  std::array<gpusim::LaneAccess, 32> acc;
  std::size_t n = 0;
  for (int l = 0; l < lanes; ++l) {
    if (!member(l)) continue;
    const LaneEvent& e = row[l];
    acc[n++] = gpusim::LaneAccess{map != nullptr ? map->translate(e.addr) : e.addr, e.size,
                                  static_cast<std::uint8_t>(l)};
  }
  const std::span<const gpusim::LaneAccess> span(acc.data(), n);
  switch (kind) {
    case EventKind::LoadGlobal: fe.global_load(l1, span, ops); break;
    case EventKind::StoreGlobal: fe.global_store(l1, span, ops); break;
    case EventKind::AtomicGlobal: fe.global_atomic(span, ops); break;
    default: fe.shared_access(span); break;
  }
  ++mem_ops;
  return 1;
}

}  // namespace

void merge_position(gpusim::SmFrontEnd& fe, int l1, const LaneEvent* row, int lanes,
                    const AddressMap* amap, std::vector<L2Op>& ops, std::uint32_t& mem_ops) {
  gpusim::TraceCounters& ctr = fe.counters();
  const LaneEvent& e0 = row[0];
  const EventKind kind = e0.kind;

  // A uniform warp — every lane active, one path — is a single group.
  int n_active = 0;
  bool uniform = true;
  for (int l = 0; l < lanes; ++l) {
    assert(row[l].kind == kind && "lane event streams diverged structurally");
    n_active += row[l].masked == 0 ? 1 : 0;
    uniform = uniform && row[l].masked == 0 && row[l].path == e0.path;
  }

  int slots = 0;
  if (kind == EventKind::Branch) {
    slots = 1;
    ++ctr.branch_events;
    // Divergent when the active lanes chose more than one target.
    const LaneEvent* first = nullptr;
    for (int l = 0; l < lanes; ++l) {
      if (row[l].masked != 0) continue;
      if (first == nullptr) {
        first = &row[l];
      } else if (row[l].value != first->value) {
        ++ctr.divergent_branches;
        break;
      }
    }
  } else if (uniform) {
    slots = issue_group(fe, l1, row, lanes, kind, amap, ops, mem_ops, [](int) { return true; });
  } else {
    // One instruction per distinct path among the active lanes, in order of
    // each path's first lane.
    std::array<std::uint8_t, 32> distinct{};
    const auto first_path = distinct.begin();
    auto paths_end = distinct.begin();
    for (int l = 0; l < lanes; ++l) {
      if (row[l].masked == 0 && std::find(first_path, paths_end, row[l].path) == paths_end) {
        *paths_end++ = row[l].path;
      }
    }
    for (auto p = first_path; p != paths_end; ++p) {
      slots += issue_group(fe, l1, row, lanes, kind, amap, ops, mem_ops, [&](int l) {
        return row[l].masked == 0 && row[l].path == *p;
      });
    }
  }

  slots = std::max(slots, 1);
  ctr.warp_issue_slots += static_cast<std::uint64_t>(slots);
  ctr.active_lane_ops += static_cast<std::uint64_t>(n_active);
  ctr.possible_lane_ops += static_cast<std::uint64_t>(slots) * 32u;
}

namespace {

/// Stage 1 for `worker` of `workers`: every step on an SM it owns.
void run_stage1(Chunk& c, int worker, int workers, gpusim::SmFrontEnd& fe,
                const AddressMap* amap) {
  std::vector<L2Op>& ops = c.ops[static_cast<std::size_t>(worker)];
  std::vector<StepOut>& outs = c.outs[static_cast<std::size_t>(worker)];
  ops.clear();
  outs.clear();
  // A step's events are lane-major (lanes record one after another), so one
  // position's lanes lie n events apart.  Transposing kTile positions at a
  // time reads each lane's events sequentially and gives the merge one
  // contiguous row per position.
  std::array<LaneEvent, kTile * 32> tile;
  for (const Step& s : c.steps) {
    if (s.sm % workers != worker) continue;
    const std::size_t op_begin = ops.size();
    std::uint32_t mem_ops = 0;
    const LaneEvent* ev = c.events.data() + s.begin;
    for (std::size_t p0 = 0; p0 < s.n; p0 += kTile) {
      const std::size_t np = std::min(kTile, s.n - p0);
      for (int l = 0; l < s.lanes; ++l) {
        const LaneEvent* src = ev + static_cast<std::size_t>(l) * s.n + p0;
        for (std::size_t p = 0; p < np; ++p) tile[p * 32 + static_cast<std::size_t>(l)] = src[p];
      }
      for (std::size_t p = 0; p < np; ++p) {
        merge_position(fe, s.sm / workers, tile.data() + p * 32, s.lanes, amap, ops, mem_ops);
      }
    }
    outs.push_back({op_begin, ops.size(), mem_ops});
  }
}

/// Stage 2: every step's L2 requests in the chunk's (global) step order,
/// and its control slots as the same sequence of additions the serial
/// replay made (a multiplication would round differently).
void run_stage2(const Chunk& c, int workers, gpusim::L2Backend& back, double per_mem_op,
                double& control_slots, std::vector<std::size_t>& cursor) {
  cursor.assign(static_cast<std::size_t>(workers), 0);  // next StepOut per worker
  for (const Step& s : c.steps) {
    const auto w = static_cast<std::size_t>(s.sm % workers);
    const StepOut& o = c.outs[w][cursor[w]++];
    back.apply(std::span<const L2Op>(c.ops[w]).subspan(o.op_begin, o.op_end - o.op_begin));
    for (std::uint32_t k = 0; k < o.mem_ops; ++k) control_slots += per_mem_op;
  }
}

}  // namespace

ReplayPlan default_replay_plan() {
  static const int workers =
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()) - 2, 0, kMaxWorkers);
  return {workers, kChunkEvents};
}

class Replay::Impl {
 public:
  Impl(const gpusim::MachineModel& m, const gpusim::Calibration& cal,
       const std::vector<AddressRegion>& regions, ReplayPlan plan)
      : machine_(m),
        per_mem_op_(cal.control_slots_per_mem_op),
        amap_(regions),
        plan_(plan),
        back_(m, cal) {}

  ~Impl() {
    if (threads_.empty()) return;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    join();
  }

  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  Impl(Impl&&) = delete;
  Impl& operator=(Impl&&) = delete;

  std::vector<LaneEvent>& events() { return slot(filling_).events; }

  void end_step(int sm, int lanes, std::size_t begin) {
    Chunk& c = slot(filling_);
    const std::size_t per_lane = (c.events.size() - begin) / static_cast<std::size_t>(lanes);
    c.steps.push_back({sm, lanes, begin, per_lane});
    if (c.events.size() <= plan_.chunk_events) return;
    if (plan_.workers <= 0) {
      run_inline(c);
      return;
    }
    if (threads_.empty()) start_threads();
    publish();
  }

  ReplayTotals finish() {
    if (threads_.empty()) {
      run_inline(slot(filling_));
    } else {
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (!slot(filling_).steps.empty()) published_ = filling_ + 1;
        closed_ = true;
        cv_.notify_all();
        cv_.wait(lk, [&] { return stop_ || applied_ == published_; });
      }
      join();
      if (error_) std::rethrow_exception(error_);
    }
    back_.finalize();
    ReplayTotals t;
    for (const gpusim::SmFrontEnd& fe : fronts_) t.counters.add(fe.counters());
    t.counters.add(back_.counters());
    t.dram_cost_units = back_.dram().cost_units();
    t.control_slots = control_slots_;
    return t;
  }

 private:
  Chunk& slot(std::size_t seq) { return slots_[seq % kChunkSlots]; }

  static const AddressMap* map_or_null(const AddressMap& m) { return m.empty() ? nullptr : &m; }

  /// Both stages on the caller, one front end owning every SM.
  void run_inline(Chunk& c) {
    if (fronts_.empty()) {
      fronts_.emplace_back(machine_, machine_.num_sms);
      c.ops.resize(1);
      c.outs.resize(1);
    }
    run_stage1(c, 0, 1, fronts_[0], map_or_null(amap_));
    run_stage2(c, 1, back_, per_mem_op_, control_slots_, cursor_);
    c.events.clear();
    c.steps.clear();
  }

  void start_threads() {
    const int w_count = plan_.workers;
    for (int w = 0; w < w_count; ++w) {
      fronts_.emplace_back(machine_, (machine_.num_sms - w + w_count - 1) / w_count);
      maps_.push_back(amap_);
    }
    for (Chunk& c : slots_) {
      c.ops.resize(static_cast<std::size_t>(w_count));
      c.outs.resize(static_cast<std::size_t>(w_count));
    }
    l1_done_.assign(static_cast<std::size_t>(w_count), 0);
    for (int w = 0; w < w_count; ++w) threads_.emplace_back([this, w] { worker_main(w); });
    threads_.emplace_back([this] { backend_main(); });
  }

  /// Hand the filled chunk to stage 1, then wait until the next slot's
  /// previous chunk has left stage 2.
  void publish() {
    std::unique_lock<std::mutex> lk(mu_);
    published_ = ++filling_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return stop_ || applied_ + kChunkSlots > filling_; });
    if (stop_) std::rethrow_exception(error_);
    lk.unlock();
    slot(filling_).events.clear();
    slot(filling_).steps.clear();
  }

  void worker_main(int w) {
    try {
      const auto wi = static_cast<std::size_t>(w);
      for (std::size_t seq = 0;; ++seq) {
        {
          std::unique_lock<std::mutex> lk(mu_);
          cv_.wait(lk, [&] { return stop_ || closed_ || published_ > seq; });
          if (stop_ || published_ <= seq) return;
        }
        run_stage1(slot(seq), w, plan_.workers, fronts_[wi], map_or_null(maps_[wi]));
        {
          const std::lock_guard<std::mutex> lk(mu_);
          l1_done_[wi] = seq + 1;
        }
        cv_.notify_all();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void backend_main() {
    try {
      for (std::size_t seq = 0;; ++seq) {
        {
          std::unique_lock<std::mutex> lk(mu_);
          const auto stage1_done = [&] {
            return std::all_of(l1_done_.begin(), l1_done_.end(),
                               [&](std::size_t d) { return d > seq; });
          };
          cv_.wait(lk, [&] { return stop_ || (closed_ && published_ <= seq) || stage1_done(); });
          if (stop_ || !stage1_done()) return;
        }
        run_stage2(slot(seq), plan_.workers, back_, per_mem_op_, control_slots_, cursor_);
        {
          const std::lock_guard<std::mutex> lk(mu_);
          applied_ = seq + 1;
        }
        cv_.notify_all();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void fail(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::move(e);
      stop_ = true;
    }
    cv_.notify_all();
  }

  void join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  const gpusim::MachineModel machine_;
  const double per_mem_op_;
  const AddressMap amap_;
  const ReplayPlan plan_;

  std::array<Chunk, kChunkSlots> slots_;
  std::size_t filling_ = 0;  ///< sequence number of the chunk stage 0 fills

  std::vector<gpusim::SmFrontEnd> fronts_;  ///< one per worker (one when inline)
  std::vector<AddressMap> maps_;            ///< one per worker: translate() is not thread-safe
  gpusim::L2Backend back_;
  double control_slots_ = 0.0;
  std::vector<std::size_t> cursor_;  ///< stage-2 scratch

  std::mutex mu_;  ///< guards everything below
  std::condition_variable cv_;
  std::size_t published_ = 0;         ///< chunks handed to stage 1
  std::vector<std::size_t> l1_done_;  ///< per worker: chunks through stage 1
  std::size_t applied_ = 0;           ///< chunks through stage 2
  bool closed_ = false;               ///< no chunk will be published any more
  bool stop_ = false;                 ///< a stage failed or the replay is abandoned
  std::exception_ptr error_;

  std::vector<std::thread> threads_;
};

Replay::Replay(const gpusim::MachineModel& m, const gpusim::Calibration& cal,
               const std::vector<AddressRegion>& regions, ReplayPlan plan)
    : impl_(std::make_unique<Impl>(m, cal, regions, plan)) {}

Replay::~Replay() = default;

std::vector<LaneEvent>& Replay::events() { return impl_->events(); }

void Replay::end_step(int sm, int lanes, std::size_t begin) { impl_->end_step(sm, lanes, begin); }

ReplayTotals Replay::finish() { return impl_->finish(); }

}  // namespace minisycl::detail
