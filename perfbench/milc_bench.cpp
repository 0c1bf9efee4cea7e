// milc_bench.cpp — the repository benchmark: three workloads driven through
// the library's public calls, timed on the host clock and read off the
// simulated clock, with a separate traced run for the per-layer numbers.
//
//   milc_bench --workload <ladder|solve|serve> --seed <n> --seconds <n>
//              --trace <0|1> [--size <full|smoke>] [--trace-out <path>]
//
// Every workload repeats a fixed, seed-determined *pass* of work until
// --seconds have elapsed (always at least one pass).  Simulated numbers and
// counts come from the first pass and repeat exactly; every later pass must
// reproduce them, which is checked like any other output.  Host numbers pool
// every pass.  With --trace 1 the run makes one untraced pass and then the
// same pass again with spans recorded (plus the layer probes only a traced
// run makes); the per-layer metrics come from that traced pass, and the
// tracing overhead is the difference of the two.
//
// stdout carries two JSON lines: an "info" object (seeds, percentiles,
// sample counts, checksums) and, last, the result object.  Usage errors exit
// with code 2, failed correctness checks with code 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dslash_ref.hpp"
#include "core/runner.hpp"
#include "multidev/sharded_cg.hpp"
#include "qudaref/staggered_test.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace milc;
using multidev::MultiDeviceRunner;
using multidev::PartitionGrid;
using multidev::ShardedCgConfig;
using multidev::ShardedCgResult;
using multidev::ShardedCgSolver;

// --- command line ------------------------------------------------------------

constexpr const char* kUsage =
    "usage: milc_bench --workload <ladder|solve|serve> --seed <n> --seconds <n>\n"
    "                  --trace <0|1> [--size <full|smoke>] [--trace-out <path>]\n"
    "  --trace-out is required with --trace 1 and rejected with --trace 0.\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "milc_bench: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || end == text || v > max)
    usage_error("malformed value '" + std::string(text) + "' for " + flag);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  bool have_size = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    if (flag.rfind("--", 0) != 0) usage_error("unexpected argument '" + flag + "'");
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace" &&
        flag != "--size" && flag != "--trace-out")
      usage_error("unknown flag '" + flag + "'");
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const char* value = argv[++i];
    bool repeated = false;
    if (flag == "--workload") {
      repeated = have_workload;
      have_workload = true;
      a.workload = value;
      if (a.workload != "ladder" && a.workload != "solve" && a.workload != "serve")
        usage_error("unknown workload '" + a.workload + "'");
    } else if (flag == "--seed") {
      repeated = have_seed;
      have_seed = true;
      a.seed = parse_u64(flag, value, UINT64_MAX);
    } else if (flag == "--seconds") {
      repeated = have_seconds;
      have_seconds = true;
      a.seconds = static_cast<int>(parse_u64(flag, value, 3600));
      if (a.seconds < 1) usage_error("--seconds must be at least 1");
    } else if (flag == "--trace") {
      repeated = have_trace;
      have_trace = true;
      a.trace = static_cast<int>(parse_u64(flag, value, 1));
    } else if (flag == "--size") {
      repeated = have_size;
      have_size = true;
      const std::string size = value;
      if (size != "full" && size != "smoke") usage_error("unknown size '" + size + "'");
      a.smoke = size == "smoke";
    } else {
      repeated = !a.trace_out.empty();
      a.trace_out = value;
      if (a.trace_out.empty()) usage_error("empty --trace-out path");
    }
    if (repeated) usage_error("repeated flag " + flag);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage_error("--workload, --seed, --seconds and --trace are required");
  if (a.trace == 1 && a.trace_out.empty()) usage_error("--trace 1 needs --trace-out");
  if (a.trace == 0 && !a.trace_out.empty()) usage_error("--trace-out applies only to --trace 1");
  return a;
}

// --- small helpers ---------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in [0, 1]) — the convention of serve's SloReport.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// A JSON array of numbers with all their digits.
std::string json_array(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// splitmix64: the benchmark's own input generator, so the inputs a seed
/// produces do not depend on the standard library's distributions.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// A derived seed for one input stream of the workload (gauge, sources...).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x6a09e667f3bcc909ULL * (stream + 1));
  return splitmix64(s);
}

/// Repeat passes until the time budget is spent: at least one pass, and no
/// pass started that the last pass's duration says would overrun.
void run_passes(int seconds, const std::function<void(int)>& pass) {
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  for (int k = 0; k == 0 || seconds_since(t0) + last <= seconds; ++k) {
    const Clock::time_point tp = Clock::now();
    pass(k);
    last = seconds_since(tp);
  }
}

// --- results -------------------------------------------------------------------

/// Everything one run reports: the end-to-end metrics and the per-layer
/// metrics this workload measures.  Names and units are declared in
/// BENCHMARK.json; run.py attaches the units and reports a per-layer metric
/// another workload measures as 0.
struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> info;  ///< key -> JSON value

  void note(const std::string& key, const std::string& json) { info.emplace_back(key, json); }
  void note(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    note(key, os.str());
  }
  /// One op attempted; `ok` is false when it errored or failed a check.
  void op(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  [[nodiscard]] double ok_frac() const {
    return static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  }
};

/// Set-up is repeated and its median reported: one set-up is too short to
/// time steadily.
constexpr int kSetupRepeats = 5;

/// Tail percentiles: the highest percentile with at least ten samples beyond
/// it at each workload's full size (README.md, "Percentiles").
constexpr double kLadderTail = 0.80;  ///< 54 launches per pass
constexpr double kSolveTail = 0.93;   ///< ~147 iteration samples per solve
constexpr double kServeTail = 0.75;   ///< 60 requests; see README.md

/// Logs a failed correctness check; returns `ok`.
bool check(bool ok, const std::string& what) {
  if (!ok) std::fprintf(stderr, "milc_bench: CHECK FAILED: %s\n", what.c_str());
  return ok;
}

/// Records the tracing overhead: traced host time minus untraced host time
/// of the same work (without the probes only a traced pass makes).
void note_overhead(Outcome& out, double untraced_s, double traced_s, const Tracer& tracer) {
  out.layer["trace.overhead_s"] = traced_s - untraced_s;
  out.layer["trace.spans"] = static_cast<double>(tracer.host_spans().size());
  out.note("untraced_s", untraced_s);
  out.note("traced_s", traced_s);
}


// --- ladder ------------------------------------------------------------------
//
// The Fig. 6 ladder on one lattice: every strategy x index order x paper
// local size, each 3LP-1 variant of the gray block once (k-major, the first
// paper local size, where the variant peak lies) and QUDA recon-18
// (autotuned, as bench_fig6 runs it), as a closed loop of profiled
// launches, one at a time.

/// One rung of the ladder.
struct Rung {
  RunRequest req;
  bool quda = false;  ///< QUDA staggered_dslash_test, recon-18 (the reference line)
};

std::vector<Rung> ladder_rungs(std::int64_t sites) {
  std::vector<Rung> rungs;
  for (Strategy s : all_strategies())
    for (IndexOrder o : orders_of(s))
      for (int ls : paper_local_sizes(s, o, sites))
        rungs.push_back({{s, o, ls, Variant::SYCL, 100}, false});
  const int ls = paper_local_sizes(Strategy::LP3_1, IndexOrder::kMajor, sites).front();
  for (Variant v : fig6_variants())
    if (v != Variant::SYCL)
      rungs.push_back({{Strategy::LP3_1, IndexOrder::kMajor, ls, v, 100}, false});
  rungs.push_back({{}, true});
  return rungs;
}

struct Launch {
  std::size_t rung = 0;
  std::string label;
  bool quda = false;
  Strategy strategy = Strategy::LP1;
  double host_ms = 0.0;        ///< the profiled launch call
  double op_ms = 0.0;          ///< the whole op: launch, check and its spans
  double functional_ms = 0.0;  ///< traced pass only
  double per_iter_us = 0.0;
  double gflops = 0.0;
  gpusim::KernelStats stats;
};

Outcome run_ladder(const Args& args, Tracer& tracer) {
  Outcome out;
  const int L = args.smoke ? 8 : 16;

  // Set-up, kSetupRepeats times: the problem (random SU(3) field + source),
  // the serial reference output every launch is checked against, and the
  // QUDA reference test's SoA copies.
  std::vector<double> setup_s, problem_s;
  std::unique_ptr<DslashProblem> problem;
  std::unique_ptr<ColorField> ref;
  std::unique_ptr<qudaref::StaggeredDslashTest> quda;
  for (int k = 0; k < kSetupRepeats; ++k) {
    quda.reset();
    const Clock::time_point t0 = Clock::now();
    problem = std::make_unique<DslashProblem>(L, args.seed);
    problem_s.push_back(seconds_since(t0));
    ref = std::make_unique<ColorField>(problem->geom(), problem->target_parity());
    dslash_reference(problem->view(), problem->neighbors(), problem->b(), *ref);
    quda = std::make_unique<qudaref::StaggeredDslashTest>(*problem);
    setup_s.push_back(seconds_since(t0));
  }

  const DslashRunner runner;
  const std::vector<Rung> rungs = ladder_rungs(problem->sites());
  std::vector<std::size_t> all(rungs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<Launch> first;  // the first full pass: every simulated number
  std::vector<double> host_ms;
  std::uint64_t op = 0;

  const auto output_ok = [&](const std::string& label) {
    Span s("check vs dslash_reference");
    const double err = max_abs_diff(problem->c(), *ref);
    return check(std::isfinite(err) && err <= 1e-10, label + ": output vs dslash_reference");
  };

  // Launch the given rungs once each.  `probes` adds the functional launch of
  // every Dslash rung (the core/gpusim host split); only the traced pass
  // makes it.  Every launch after the first full pass must repeat that
  // pass's simulated numbers.
  const auto pass = [&](const std::vector<std::size_t>& which, bool probes) {
    Span ps("ladder pass");
    std::vector<Launch> launches;
    for (const std::size_t i : which) {
      const Rung& rung = rungs[i];
      Span os("ladder op", ++op);
      const Clock::time_point op_start = Clock::now();
      Launch l;
      l.rung = i;
      l.quda = rung.quda;
      l.strategy = rung.req.strategy;
      problem->c().zero();
      const Clock::time_point t0 = Clock::now();
      if (rung.quda) {
        qudaref::StaggeredResult r;
        {
          Span s("StaggeredDslashTest::run");
          r = quda->run(Reconstruct::k18);
        }
        l.host_ms = seconds_since(t0) * 1e3;
        l.label = "QUDA recon-18 /" + std::to_string(r.local_size);
        l.per_iter_us = r.per_iter_us;
        l.gflops = r.gflops;
        l.stats = r.stats;
        // The profiled launch keeps its output in the test's SoA copy; the
        // functional launch of the same kernel lands it in problem->c().
        Span s("StaggeredDslashTest::run_functional");
        quda->run_functional(Reconstruct::k18);
      } else {
        RunResult r;
        {
          Span s("DslashRunner::run");
          r = runner.run(*problem, rung.req);
        }
        l.host_ms = seconds_since(t0) * 1e3;
        l.label = r.label;
        l.per_iter_us = r.per_iter_us;
        l.gflops = r.gflops;
        l.stats = r.stats;
      }
      bool ok = output_ok(l.label);
      if (!first.empty()) {
        const Launch& f = first[i];
        ok &= check(l.per_iter_us == f.per_iter_us &&
                        l.stats.counters.l1_tag_requests_global ==
                            f.stats.counters.l1_tag_requests_global,
                    l.label + ": simulated numbers repeat the first pass");
      }
      l.op_ms = seconds_since(op_start) * 1e3;
      if (probes && !rung.quda) {
        problem->c().zero();
        const Clock::time_point tf = Clock::now();
        {
          Span s("DslashRunner::run_functional");
          runner.run_functional(*problem, rung.req.strategy, rung.req.order, rung.req.local_size,
                                variant_info(rung.req.variant).use_syclcplx);
        }
        l.functional_ms = seconds_since(tf) * 1e3;
        ok &= output_ok(l.label + " (functional)");
      }
      out.op(ok);
      host_ms.push_back(l.host_ms);
      launches.push_back(std::move(l));
    }
    return launches;
  };

  std::vector<Launch> traced;
  double host_s = 0.0;
  if (args.trace == 0) {
    run_passes(args.seconds, [&](int k) {
      const Clock::time_point t0 = Clock::now();
      std::vector<Launch> launches = pass(all, false);
      host_s += seconds_since(t0);
      if (k == 0) first = std::move(launches);
    });
  } else {
    // Tracing overhead, measured on a sample: the first rung of every
    // strategy, untraced, against the same rungs in the traced pass.
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < rungs.size(); ++i)
      if (!rungs[i].quda && (i == 0 || rungs[i].req.strategy != rungs[i - 1].req.strategy))
        sample.push_back(i);
    const std::vector<Launch> untraced = pass(sample, false);
    {
      ScopedTracer on(tracer);
      Span ws("workload ladder");
      traced = pass(all, true);
    }
    first = traced;
    double untraced_s = 0.0, traced_s = 0.0;
    for (const Launch& l : untraced) {
      untraced_s += l.op_ms * 1e-3;
      traced_s += traced[l.rung].op_ms * 1e-3;
    }
    for (const Launch& l : untraced) {
      if (!check(l.per_iter_us == traced[l.rung].per_iter_us,
                 l.label + ": simulated time repeats in the traced pass"))
        out.op(false);
    }
    note_overhead(out, untraced_s, traced_s, tracer);
    out.note("overhead_sample_rungs", static_cast<double>(sample.size()));
    for (const Launch& l : traced) host_s += l.host_ms * 1e-3;
  }

  // Simulated numbers over the Dslash rungs of the first pass.  QUDA's GF/s
  // follows QUDA's nominal-FLOP convention, so it is noted, not ranked.
  std::vector<double> gflops;
  for (const Launch& l : first) {
    if (l.quda) {
      out.note("quda_recon18_gflops", l.gflops);
      continue;
    }
    gflops.push_back(l.gflops);
  }
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["host_ops_per_s"] = static_cast<double>(host_ms.size()) / host_s;
  out.e2e["host_op_ms_p50"] = median(host_ms);
  out.e2e["host_op_ms_tail"] = percentile(host_ms, kLadderTail);
  out.e2e["sim_gflops_best"] = *std::max_element(gflops.begin(), gflops.end());
  out.e2e["sim_gflops_geomean"] = geomean(gflops);
  out.e2e["goodput_frac"] = out.ok_frac();
  out.e2e["ok_frac"] = out.ok_frac();
  out.note("lattice_L", L);
  out.note("rungs", static_cast<double>(rungs.size()));
  out.note("host_op_ms", json_array(host_ms));
  out.note("tail_percentile", kLadderTail);

  // Per-layer numbers: the set-up split, the traced pass's host split and
  // the simulator's counters and timing terms summed over the first pass.
  out.layer["lattice.problem_setup_s"] = median(problem_s);
  if (args.trace == 1) {
    std::vector<double> run_ms, func_ms;
    double gpusim_ms = 0.0;
    double sectors = 0.0;
    for (const Launch& l : traced) {
      if (l.quda) continue;
      run_ms.push_back(l.host_ms);
      func_ms.push_back(l.functional_ms);
      gpusim_ms += l.host_ms - l.functional_ms;
      sectors += static_cast<double>(l.stats.counters.l1_tag_requests_global);
    }
    out.layer["core.run_ms_p50"] = median(run_ms);
    out.layer["core.functional_ms_p50"] = median(func_ms);
    out.layer["gpusim.host_ms_per_launch"] = gpusim_ms / static_cast<double>(run_ms.size());
    out.layer["gpusim.host_ns_per_sector"] = ratio(gpusim_ms * 1e6, sectors);
  }
  gpusim::TraceCounters c;
  gpusim::TimingBreakdown t;
  double occupancy = 0.0;
  int launches = 0;
  for (const Launch& l : first) {
    if (l.quda) continue;
    c.add(l.stats.counters);
    t.dram_s += l.stats.timing.dram_s;
    t.latency_s += l.stats.timing.latency_s;
    t.l1_s += l.stats.timing.l1_s;
    t.shared_s += l.stats.timing.shared_s;
    t.issue_s += l.stats.timing.issue_s;
    t.atomic_s += l.stats.timing.atomic_s;
    t.barrier_s += l.stats.timing.barrier_s;
    occupancy += l.stats.occupancy.achieved;
    out.layer[std::string("gpusim.bound_by.") + l.stats.timing.bound_by] += 1.0;
    double& best = out.layer[std::string("core.sim_gflops.") + to_string(l.strategy)];
    best = std::max(best, l.gflops);
    ++launches;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.layer["gpusim.l1_tag_requests"] = d(c.l1_tag_requests_global);
  out.layer["gpusim.l1_hit_frac"] =
      ratio(d(c.l1_sector_hits), d(c.l1_sector_hits + c.l1_sector_misses));
  out.layer["gpusim.l2_hit_frac"] = ratio(d(c.l2_sector_hits), d(c.l2_sector_requests));
  out.layer["gpusim.dram_sectors"] = d(c.dram_sectors);
  out.layer["gpusim.dram_row_hit_frac"] =
      ratio(d(c.dram_row_hits), d(c.dram_row_hits + c.dram_row_misses));
  out.layer["gpusim.bank_conflict_ratio"] =
      ratio(d(c.shared_wavefronts), d(c.shared_wavefronts_ideal));
  out.layer["gpusim.divergent_branches"] = d(c.divergent_branches);
  out.layer["gpusim.lane_util"] = ratio(d(c.active_lane_ops), d(c.possible_lane_ops));
  out.layer["gpusim.atomic_serial_replays"] = d(c.atomic_serial_replays);
  out.layer["gpusim.occupancy_mean"] = occupancy / launches;
  out.layer["gpusim.dram_us"] = t.dram_s * 1e6;
  out.layer["gpusim.latency_us"] = t.latency_s * 1e6;
  out.layer["gpusim.l1_us"] = t.l1_s * 1e6;
  out.layer["gpusim.shared_us"] = t.shared_s * 1e6;
  out.layer["gpusim.issue_us"] = t.issue_s * 1e6;
  out.layer["gpusim.atomic_us"] = t.atomic_s * 1e6;
  out.layer["gpusim.barrier_us"] = t.barrier_s * 1e6;
  return out;
}

// --- solve -------------------------------------------------------------------
//
// Fault-free sharded CG on a 1x1x2x2 grid over a 2-node x 2-device cluster,
// exact fp64 wire, one right-hand side per pass, as a closed loop.  gpusim
// runs once, in set-up, to price the grid; the timed loop is the functional
// multi-device exchange plus the CG recursion.

struct Solve {
  ShardedCgResult res;
  std::uint64_t fnv = 0;
  double host_s = 0.0;
  double sim_us = 0.0;
};

/// Adds the priced grid's per-device P/I/A/U/B timeline to the trace, on the
/// simulated clock (one iteration, time 0 = iteration start).
void trace_timeline(Tracer& tracer, const multidev::MultiDevResult& priced) {
  for (const multidev::DeviceTimeline& d : priced.per_device) {
    const std::string track = "device r" + std::to_string(d.rank);
    const double ready = std::max(d.pack_us + d.interior_us, d.arrival_us);
    tracer.sim(track, "P pack", 0.0, d.pack_us, 0);
    tracer.sim(track, "I interior", d.pack_us, d.interior_us, 0);
    tracer.sim(track, "U unpack", ready, d.unpack_us, 0);
    tracer.sim(track, "B boundary", ready + d.unpack_us, d.boundary_us, 0);
    tracer.sim(track + " inbound halo", "A arrival", d.pack_us,
               std::max(0.0, d.arrival_us - d.pack_us), 0);
  }
}

Outcome run_solve(const Args& args, Tracer& tracer) {
  Outcome out;
  // The smoke size keeps z and t at 12: a split extent needs local extent
  // >= 6 for the depth-3 halo.
  const Coords dims = args.smoke ? Coords{4, 4, 12, 12} : Coords{12, 12, 12, 12};
  const double mass = 0.5;
  const double rel_tol = 1e-8;
  PartitionGrid grid;
  grid.devices = {1, 1, 2, 2};
  const gpusim::NodeTopology topo = gpusim::cluster(2, 2);

  // The cancel hook is a timestamp probe: it is consulted once per CG
  // iteration and never cancels.  In a traced pass it also closes one
  // iteration span and opens the next.
  std::vector<Clock::time_point> stamps;
  int iter_span = -1;
  ShardedCgConfig cfg;
  cfg.cg.rel_tol = rel_tol;
  cfg.topo = topo;
  cfg.cancel = [&stamps, &iter_span](int, int) {
    stamps.push_back(Clock::now());
    if (Tracer* t = Tracer::current()) {
      t->close(iter_span);
      iter_span = t->open("cg iteration", 0);
    }
    return false;
  };

  // Set-up, kSetupRepeats times: the problem, pricing the grid (the one gpusim run)
  // and the solver's construction.
  const MultiDeviceRunner mrunner;
  multidev::MultiDevRequest mreq;
  mreq.grid = grid;
  mreq.topo = topo;
  std::vector<double> setup_s, problem_s, solver_s;
  std::unique_ptr<DslashProblem> problem;
  std::unique_ptr<ShardedCgSolver> solver;
  multidev::MultiDevResult priced;
  for (int k = 0; k < kSetupRepeats; ++k) {
    solver.reset();
    const Clock::time_point t0 = Clock::now();
    problem = std::make_unique<DslashProblem>(dims, args.seed);
    problem_s.push_back(seconds_since(t0));
    priced = mrunner.run(*problem, mreq);
    const Clock::time_point ts = Clock::now();
    solver = std::make_unique<ShardedCgSolver>(dims, args.seed, mass, grid, cfg);
    solver_s.push_back(seconds_since(ts));
    setup_s.push_back(seconds_since(t0));
  }
  {
    ColorField ref(problem->geom(), problem->target_parity());
    dslash_reference(problem->view(), problem->neighbors(), problem->b(), ref);
    const double err = max_abs_diff(problem->c(), ref);
    if (!check(err <= 1e-10, "priced sharded Dslash vs dslash_reference")) out.op(false);
  }

  std::uint64_t op = 0;
  std::vector<double> iter_ms;
  std::vector<Solve> solves;
  const auto pass = [&](int rhs) {
    Span ps("solve pass");
    Span os("rhs " + std::to_string(rhs), ++op);
    ColorField b(solver->geom(), Parity::Even);
    b.fill_random(derive(args.seed, 100 + static_cast<std::uint64_t>(rhs)));
    ColorField x(solver->geom(), Parity::Even);
    x.zero();
    Solve s;
    stamps.clear();
    const Clock::time_point t0 = Clock::now();
    stamps.push_back(t0);
    {
      Span ss("ShardedCgSolver::solve");
      if (Tracer* t = Tracer::current()) iter_span = t->open("cg iteration", 0);
      s.res = solver->solve(b, x);
      if (Tracer* t = Tracer::current()) t->close(iter_span);
    }
    s.host_s = seconds_since(t0);
    for (std::size_t i = 1; i < stamps.size(); ++i)
      iter_ms.push_back(
          std::chrono::duration<double, std::milli>(stamps[i] - stamps[i - 1]).count());
    s.fnv = serve::fnv1a(x.data(), x.bytes());
    s.sim_us = (s.res.applies - s.res.hidden_applies) * 2.0 * priced.per_iter_us;
    const bool ok = check(s.res.cg.converged && s.res.certified && !s.res.cancelled &&
                              s.res.cg.true_relative_residual <= rel_tol,
                          "rhs " + std::to_string(rhs) + ": exact-wire true residual " +
                              std::to_string(s.res.cg.true_relative_residual) + " <= rel_tol");
    for (int i = 0; i < s.res.cg.iterations; ++i) out.op(ok);
    solves.push_back(s);
  };

  if (args.trace == 0) {
    run_passes(args.seconds, pass);
  } else {
    Clock::time_point t0 = Clock::now();
    pass(0);
    const double untraced_s = seconds_since(t0);
    ScopedTracer on(tracer);
    Span ws("workload solve");
    t0 = Clock::now();
    pass(0);  // the same right-hand side again, traced
    const double traced_s = seconds_since(t0);
    const Solve& a = solves[0];
    const Solve& b = solves[1];
    if (!check(a.fnv == b.fnv && a.res.applies == b.res.applies,
               "traced solve repeats the untraced solve bit for bit"))
      out.op(false);

    // Layer probes: the single-device and the sharded functional Dslash of
    // the same problem, which must agree bit for bit.
    const Clock::time_point tp = Clock::now();
    const DslashRunner runner;
    std::vector<double> single_ms, sharded_ms;
    for (int k = 0; k < 5; ++k) {
      Clock::time_point t1 = Clock::now();
      {
        Span s("DslashRunner::run_functional");
        runner.run_functional(*problem, cfg.strategy, cfg.order, cfg.local_size);
      }
      single_ms.push_back(seconds_since(t1) * 1e3);
      const ColorField single = problem->c();
      problem->c().zero();
      t1 = Clock::now();
      {
        Span s("MultiDeviceRunner::run_functional");
        mrunner.run_functional(*problem, grid, cfg.strategy, cfg.order, cfg.local_size);
      }
      sharded_ms.push_back(seconds_since(t1) * 1e3);
      if (!check(max_abs_diff(problem->c(), single) == 0.0,
                 "sharded functional Dslash equals the single-device one"))
        out.op(false);
    }
    const double probe_s = seconds_since(tp);
    note_overhead(out, untraced_s, traced_s, tracer);
    out.layer["core.functional_ms_p50"] = median(single_ms);
    out.layer["multidev.functional_ms"] = median(sharded_ms);
    out.layer["multidev.exchange_overhead_ratio"] = median(sharded_ms) / median(single_ms);
    out.note("probe_s", probe_s);
    trace_timeline(tracer, priced);
  }

  const Solve& s0 = solves.front();
  double host_s = 0.0;
  int iterations = 0;
  std::ostringstream fnvs;
  for (const Solve& s : solves) {
    host_s += s.host_s;
    iterations += s.res.cg.iterations;
    fnvs << (fnvs.tellp() > 0 ? "," : "") << '"' << std::hex << s.fnv << std::dec << '"';
  }
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["host_ops_per_s"] = iterations / host_s;
  out.e2e["host_op_ms_p50"] = median(iter_ms);
  out.e2e["host_op_ms_tail"] = percentile(iter_ms, kSolveTail);
  out.e2e["sim_gflops_best"] = priced.gflops;
  out.e2e["sim_gflops_geomean"] = priced.gflops;
  out.e2e["goodput_frac"] = out.ok_frac();
  out.e2e["ok_frac"] = out.ok_frac();
  out.note("lattice", '"' + std::to_string(dims[0]) + 'x' + std::to_string(dims[1]) + 'x' +
                          std::to_string(dims[2]) + 'x' + std::to_string(dims[3]) + '"');
  out.note("grid", '"' + grid.label() + '"');
  out.note("rhs_solved", static_cast<double>(solves.size()));
  out.note("host_op_ms", json_array(iter_ms));
  out.note("tail_percentile", kSolveTail);
  out.note("solution_fnv", "[" + fnvs.str() + "]");
  out.note("true_relative_residual", s0.res.cg.true_relative_residual);

  out.layer["lattice.problem_setup_s"] = median(problem_s);
  out.layer["multidev.solver_setup_s"] = median(solver_s);
  const auto slowest = std::max_element(
      priced.per_device.begin(), priced.per_device.end(),
      [](const auto& a, const auto& b) { return a.iter_us < b.iter_us; });
  out.layer["multidev.sim_pack_us"] = slowest->pack_us;
  out.layer["multidev.sim_interior_us"] = slowest->interior_us;
  out.layer["multidev.sim_arrival_us"] = slowest->arrival_us;
  out.layer["multidev.sim_unpack_us"] = slowest->unpack_us;
  out.layer["multidev.sim_boundary_us"] = slowest->boundary_us;
  out.layer["multidev.sim_exposed_us"] = slowest->exposed_us;
  out.layer["multidev.overlap_efficiency"] = priced.overlap_efficiency;
  out.layer["multidev.comm_fraction"] = priced.comm_fraction;
  out.layer["multidev.halo_bytes"] = static_cast<double>(priced.halo_bytes);
  out.layer["multidev.inter_node_bytes"] = static_cast<double>(priced.inter_node_bytes);
  out.layer["multidev.fabric_messages"] = priced.fabric_messages;
  out.layer["multidev.cg_iters"] = s0.res.cg.iterations;
  out.layer["multidev.applies"] = s0.res.applies;
  out.layer["multidev.checkpoint_applies"] = s0.res.checkpoint_applies;
  out.layer["multidev.recomputes"] = s0.res.recomputes;
  out.layer["multidev.useful_apply_frac"] = ratio(s0.res.cg.iterations, s0.res.applies);
  out.layer["multidev.sim_solve_us"] = s0.sim_us;
  return out;
}

// --- serve -------------------------------------------------------------------
//
// An open loop on the simulated clock against SolverService on a 2-node x
// 2-device cluster: Poisson arrivals at one fixed offered rate, three
// tenants with deadlines, the bench_serve catalog, and a light seeded fault
// plan of wire and device faults.  The arrivals are precomputed before the
// run, so the generator is never late.  Every pass replays the same traffic
// under the same plan and must reproduce the first pass's SloReport.

constexpr int kServeRequests = 60;
constexpr double kServeMeanGapUs = 20'000.0;  ///< offered rate: one request per 20 ms
constexpr int kBlock = 6;  ///< placements the catalog prices

using serve::ProblemSpec;
using serve::RequestOutcome;
using serve::SloReport;
using serve::SolveRequest;
using serve::SolverService;

std::vector<ProblemSpec> serve_catalog(std::uint64_t seed) {
  const std::uint64_t gauge = derive(seed, 1);
  return {{"small-4x4x4x8", Coords{4, 4, 4, 8}, gauge, 0.5, 1e-6, 250, 8},
          {"wide-4x4x4x12", Coords{4, 4, 4, 12}, gauge, 0.5, 1e-6, 250, 8},
          {"tall-4x4x4x24", Coords{4, 4, 4, 24}, gauge, 0.5, 1e-6, 250, 8}};
}

std::vector<SolveRequest> serve_traffic(std::uint64_t seed, int n) {
  // Every (spec, device count) placement the catalog prices; the mix is
  // stratified — each block of six requests holds each placement once, in a
  // seeded order — so seeds vary arrival times and order, not the mix.
  static const int kPlacements[kBlock][2] = {{0, 1}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 4}};
  static const char* const kTenants[kBlock] = {"a", "b", "c", "a", "b", "c"};
  std::uint64_t rng = derive(seed, 2);
  const auto pick = [&rng](int k) {
    return std::min(k - 1, static_cast<int>(uniform01(rng) * k));
  };
  std::vector<SolveRequest> traffic;
  int order[kBlock] = {0, 1, 2, 3, 4, 5};
  int tenant[kBlock] = {0, 1, 2, 3, 4, 5};
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (i % kBlock == 0) {
      for (int k = kBlock - 1; k > 0; --k) {
        std::swap(order[k], order[pick(k + 1)]);
        std::swap(tenant[k], tenant[pick(k + 1)]);
      }
    }
    t += -std::log(1.0 - uniform01(rng)) * kServeMeanGapUs;
    SolveRequest r;
    r.id = 1 + static_cast<std::uint64_t>(i);
    r.tenant = kTenants[tenant[i % kBlock]];
    r.priority = 1 + pick(3);
    r.submit_us = t;
    r.spec = kPlacements[order[i % kBlock]][0];
    r.devices = kPlacements[order[i % kBlock]][1];
    // A pool of four sources per spec: requests repeat inputs, as users do.
    r.source_seed = 1000 + 10 * static_cast<std::uint64_t>(r.spec) +
                    static_cast<std::uint64_t>(pick(4));
    r.deadline_us = t + 80'000.0 + 160'000.0 * uniform01(rng);
    r.retry_budget = 2;
    traffic.push_back(r);
  }
  return traffic;
}

faultsim::FaultPlan serve_faults(std::uint64_t seed) {
  faultsim::FaultPlan plan;
  plan.seed = derive(seed, 3);
  plan.p_msg_drop = 0.0002;
  plan.p_msg_corrupt = 0.0002;
  plan.p_msg_delay = 0.0002;
  plan.p_device_loss = 0.00002;
  return plan;
}

Outcome run_serve(const Args& args, Tracer& tracer) {
  Outcome out;
  const int n = args.smoke ? 12 : kServeRequests;
  const std::vector<ProblemSpec> catalog = serve_catalog(args.seed);
  serve::ServiceConfig scfg;
  scfg.cluster = {2, 2};

  // Set-up, kSetupRepeats times: construction prices every (spec, device count)
  // placement through MultiDeviceRunner::run.
  std::vector<double> setup_s;
  std::unique_ptr<SolverService> svc;
  for (int k = 0; k < kSetupRepeats; ++k) {
    svc.reset();
    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<SolverService>(catalog, scfg);
    setup_s.push_back(seconds_since(t0));
  }
  const std::vector<SolveRequest> traffic = serve_traffic(args.seed, n);
  const faultsim::FaultPlan plan = serve_faults(args.seed);

  // Fault-free reference checksums, per (spec, rhs, source, strategy), made
  // outside the timed passes and with no fault plan installed.
  std::map<std::tuple<int, int, std::uint64_t, int>, std::vector<std::uint64_t>> refs;
  const auto reference = [&](const RequestOutcome& o) -> const std::vector<std::uint64_t>& {
    const auto key = std::make_tuple(o.req.spec, o.req.rhs, o.req.source_seed,
                                     static_cast<int>(o.strategy_used));
    auto it = refs.find(key);
    if (it == refs.end()) {
      Span s("SolverService::reference_checksums");
      it = refs.emplace(key, svc->reference_checksums(o.req.spec, o.req.rhs, o.req.source_seed,
                                                      o.strategy_used))
               .first;
    }
    return it->second;
  };

  std::vector<SloReport> reports;
  std::vector<double> run_s, per_request_ms;
  std::uint64_t op = 0;
  const auto pass = [&](int) {
    Span ps("serve pass", ++op);
    SloReport rep;
    const Clock::time_point t0 = Clock::now();
    {
      Span s("SolverService::run");
      faultsim::ScopedFaultInjection fi(plan);
      rep = svc->run("bench-serve", traffic);
    }
    const double host = seconds_since(t0);
    run_s.push_back(host);
    per_request_ms.push_back(host * 1e3 / static_cast<double>(rep.outcomes.size()));

    if (!check(rep.outcomes.size() == traffic.size(), "every submitted request is enumerated once"))
      out.op(false);
    const bool replay_ok =
        reports.empty() || check(rep.canonical() == reports.front().canonical(),
                                 "the replayed pass reproduces the first SloReport");
    for (const RequestOutcome& o : rep.outcomes) {
      const std::string tag = "request #" + std::to_string(o.req.id);
      bool ok = replay_ok;
      if (o.status == RequestOutcome::Status::completed) {
        ok &= check(o.abft_certified && o.rhs_done == o.req.rhs, tag + " certified");
        ok &= check(o.solution_fnv == reference(o),
                    tag + " solution equals the fault-free reference bit for bit");
      } else {
        ok &= check(!o.reason.empty(), tag + " settled without a reason");
      }
      out.op(ok);
    }
    reports.push_back(std::move(rep));
  };

  if (args.trace == 0) {
    run_passes(args.seconds, pass);
  } else {
    // The first pass also computes the reference checksums, so the overhead
    // compares the SolverService::run calls of the two passes.
    pass(0);
    {
      ScopedTracer on(tracer);
      Span ws("workload serve");
      pass(1);
    }
    note_overhead(out, run_s[0], run_s[1], tracer);
    for (const RequestOutcome& o : reports.front().outcomes) {
      const std::string track = "request " + std::to_string(o.req.id) + " (" + o.req.tenant + ")";
      const double end = o.complete_us >= 0.0 ? o.complete_us : o.req.submit_us;
      const double dispatch = o.dispatch_us >= 0.0 ? o.dispatch_us : end;
      tracer.sim(track, "queue", o.req.submit_us, dispatch - o.req.submit_us, o.req.id);
      if (o.dispatch_us >= 0.0)
        tracer.sim(track, std::string("solve (") + o.status_str() + ")", dispatch,
                   end - dispatch, o.req.id);
    }
  }

  // Simulated numbers from the first pass.
  const SloReport& rep = reports.front();
  std::vector<double> latency, service, wait;
  int completed_ok = 0, goodput = 0, failovers = 0;
  double applies = 0.0;
  for (const RequestOutcome& o : rep.outcomes) {
    if (o.dispatch_us >= 0.0) wait.push_back(o.dispatch_us - o.req.submit_us);
    failovers += o.failovers;
    if (o.status != RequestOutcome::Status::completed) continue;
    latency.push_back(o.latency_us);
    service.push_back(o.complete_us - o.dispatch_us);
    applies += o.applies;
    completed_ok += o.solution_fnv == reference(o) ? 1 : 0;
    goodput += o.deadline_met ? 1 : 0;
  }
  std::vector<double> gflops;
  for (int s = 0; s < static_cast<int>(catalog.size()); ++s) {
    const Coords& dims = catalog[static_cast<std::size_t>(s)].dims;
    const double flops = dslash_flops(std::int64_t{dims[0]} * dims[1] * dims[2] * dims[3] / 2);
    for (const SolverService::Placement& p : svc->placements(s))
      gflops.push_back(flops / (p.per_iter_us * 1e-6) / 1e9);
  }
  double settled = 0.0;
  for (const SloReport& r : reports) settled += static_cast<double>(r.outcomes.size());
  const double host_s = args.trace == 0 ? sum(run_s) : run_s.front();
  if (args.trace == 1) settled = static_cast<double>(rep.outcomes.size());
  const double submitted = static_cast<double>(rep.submitted);
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["host_ops_per_s"] = settled / host_s;
  out.e2e["host_op_ms_p50"] = median(per_request_ms);
  out.e2e["host_op_ms_tail"] = percentile(per_request_ms, kServeTail);
  out.e2e["sim_gflops_best"] = *std::max_element(gflops.begin(), gflops.end());
  out.e2e["sim_gflops_geomean"] = geomean(gflops);
  out.e2e["goodput_frac"] = goodput / submitted;
  out.e2e["ok_frac"] = completed_ok / submitted;
  out.note("requests", submitted);
  out.note("host_op_ms", json_array(per_request_ms));
  out.note("passes", static_cast<double>(reports.size()));
  out.note("completed", static_cast<double>(rep.completed));
  out.note("tail_percentile", kServeTail);
  out.note("offered_rate_per_ms", 1e3 / kServeMeanGapUs);
  out.note("slo_canonical_fnv",
           '"' + std::to_string(serve::fnv1a(rep.canonical().data(), rep.canonical().size())) +
               '"');

  const SolverService::PricingStats& ps = svc->pricing_stats();
  double busy = 0.0;
  for (const serve::TenantSlo& t : rep.tenants) busy += t.busy_device_us;
  out.layer["serve.pricing_s"] = median(setup_s);
  out.layer["serve.placements_priced"] = ps.placements_priced;
  out.layer["serve.grids_scored"] = ps.grids_scored;
  out.layer["serve.queue_wait_us_p50"] = median(wait);
  out.layer["serve.queue_wait_us_tail"] = percentile(wait, kServeTail);
  out.layer["serve.service_us_p50"] = median(service);
  out.layer["serve.sim_solve_us"] = sum(service) / static_cast<double>(service.size());
  out.layer["serve.sim_latency_p50_us"] = median(latency);
  out.layer["serve.sim_latency_tail_us"] = percentile(latency, kServeTail);
  out.layer["serve.device_util"] = ratio(busy, scfg.cluster.total() * rep.makespan_us);
  out.layer["serve.completed_of_admitted_frac"] = ratio(rep.completed, rep.admitted);
  out.layer["serve.shed"] = rep.shed;
  out.layer["serve.rejected"] = rep.rejected;
  out.layer["serve.degradations"] = static_cast<double>(rep.degradations.size());
  out.layer["serve.breaker_events"] = static_cast<double>(rep.breaker_events.size());
  out.layer["serve.failovers"] = failovers;
  out.layer["serve.applies_per_request"] = ratio(applies, rep.completed);
  out.layer["serve.run_s"] = median(run_s);
  out.layer["faultsim.faults_injected"] = static_cast<double>(rep.faults_injected);
  return out;
}

// --- output --------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args) {
  Tracer tracer;
  Outcome out = args.workload == "ladder"  ? run_ladder(args, tracer)
                : args.workload == "solve" ? run_solve(args, tracer)
                                           : run_serve(args, tracer);
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  const std::map<std::string, double>& metrics = args.trace == 0 ? out.e2e : out.layer;
  if (args.trace == 1) {
    std::ostringstream self;
    for (const auto& [name, s] : tracer.self_seconds())
      self << (self.tellp() > 0 ? "," : "") << '"' << name << "\":" << number(s);
    out.note("self_s", "{" + self.str() + "}");
    if (!check(tracer.write_chrome(args.trace_out), "trace written to " + args.trace_out))
      out.op(false);
  }

  std::ostringstream info;
  info << "{\"info\":{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
       << ",\"size\":\"" << (args.smoke ? "smoke" : "full") << '"';
  for (const auto& [key, json] : out.info) info << ",\"" << key << "\":" << json;
  info << "}}";
  std::printf("%s\n", info.str().c_str());

  std::ostringstream res;
  res << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed << ",\"metrics\":{";
  for (auto it = metrics.begin(); it != metrics.end(); ++it)
    res << (it == metrics.begin() ? "" : ",") << '"' << it->first << "\":" << number(it->second);
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "milc_bench: error: %s\n", e.what());
    return 1;
  }
}
