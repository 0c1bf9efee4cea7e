// trace.hpp — the benchmark's span recorder.
//
// Install-to-enable, like faultsim's Injector and dsan's Recorder: with no
// Tracer installed a Span guard is one null check, so untraced runs time the
// program, not the recorder.  With a Tracer installed, every guard records a
// host-clock span (name, start, end, parent, op id) in memory; simulated-clock
// spans are added explicitly from results the library returns.  Nothing is
// written until the run ends (write_chrome), and the file is Chrome
// trace-event JSON, which Perfetto and chrome://tracing open.
//
// Spans are recorded only here, around the benchmark's calls into the
// library — workload -> op -> layer call — never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct HostSpan {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  ///< -1 while the span is open
    int parent = -1;       ///< index of the enclosing span, -1 at the root
    std::uint64_t op = 0;  ///< spans of one op share this id (0: none)
  };
  /// A span on the simulated clock: one track per served request or device.
  struct SimSpan {
    std::string track;
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t op = 0;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr when tracing is off.
  [[nodiscard]] static Tracer* current() { return installed_; }

  /// Open a span under the innermost open one.  `op` 0 inherits the
  /// parent's op id.  Returns the span's index for close().
  int open(std::string name, std::uint64_t op);
  void close(int index);

  void sim(std::string track, std::string name, double start_us, double dur_us,
           std::uint64_t op);

  [[nodiscard]] const std::vector<HostSpan>& host_spans() const { return host_; }

  /// Self time per span name, in seconds: each span's duration minus the
  /// time its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write every recorded span as Chrome trace-event JSON.  Returns false
  /// when the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  friend class ScopedTracer;
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  std::vector<HostSpan> host_;
  std::vector<SimSpan> sim_;
  std::vector<int> open_;  ///< stack of open span indices
  static inline Tracer* installed_ = nullptr;
};

/// Installs a Tracer for its lifetime.
class ScopedTracer {
 public:
  explicit ScopedTracer(Tracer& t) { Tracer::installed_ = &t; }
  ~ScopedTracer() { Tracer::installed_ = nullptr; }
  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;
};

/// RAII host span; a no-op when no Tracer is installed.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0)
      : tracer_(Tracer::current()), index_(tracer_ ? tracer_->open(name, op) : -1) {}
  Span(const std::string& name, std::uint64_t op) : Span(name.c_str(), op) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
