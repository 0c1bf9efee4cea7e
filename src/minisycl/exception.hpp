// exception.hpp — SYCL-style error taxonomy for the simulated runtime.
//
// SYCL 2020 replaced the 1.2 error-class zoo with one `sycl::exception`
// carrying an error code; minisycl mirrors that.  Synchronous misuse (bad
// free, range overrun) throws `minisycl::exception` directly; device-side
// faults discovered after submission (launch failures, transient device
// faults, watchdog timeouts injected by faultsim) are *asynchronous*: the
// queue buffers them as std::exception_ptr and delivers them on
// `queue::wait_and_throw()`, through the queue's async_handler when one was
// installed (the SYCL async_handler contract).
#pragma once

#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace minisycl {

/// Error codes, modelled on sycl::errc plus the fault kinds the simulator
/// can inject.
enum class errc : int {
  success = 0,
  invalid,            ///< invalid API usage (freeing a foreign/interior pointer)
  memory_allocation,  ///< device allocation failure
  out_of_bounds,      ///< an access or copy overruns its allocation
  use_after_free,     ///< touching a freed allocation
  kernel_launch,      ///< the kernel could not be launched
  device_fault,       ///< transient device-side error (ECC event, sticky until retried)
  watchdog_timeout,   ///< kernel exceeded the simulated execution watchdog
  nd_range,           ///< the launch's nd_range / phase / local-memory request is malformed
};

[[nodiscard]] inline const char* errc_name(errc c) {
  switch (c) {
    case errc::success: return "success";
    case errc::invalid: return "invalid";
    case errc::memory_allocation: return "memory_allocation";
    case errc::out_of_bounds: return "out_of_bounds";
    case errc::use_after_free: return "use_after_free";
    case errc::kernel_launch: return "kernel_launch";
    case errc::device_fault: return "device_fault";
    case errc::watchdog_timeout: return "watchdog_timeout";
    case errc::nd_range: return "nd_range";
  }
  return "unknown";
}

/// The one exception type the runtime throws, a la sycl::exception.
/// `code()` carries the taxonomy; `what()` keeps the exact diagnostic text
/// (tests and ksan match on the wording).
class exception : public std::runtime_error {
 public:
  exception(errc code, const std::string& what_arg)
      : std::runtime_error(what_arg), code_(code) {}
  [[nodiscard]] errc code() const noexcept { return code_; }

 private:
  errc code_;
};

/// sycl::exception_list: an iterable batch of captured asynchronous errors,
/// delivered to the async_handler in submission order.
class exception_list {
 public:
  using value_type = std::exception_ptr;
  using const_iterator = std::vector<std::exception_ptr>::const_iterator;

  exception_list() = default;
  explicit exception_list(std::vector<std::exception_ptr> errors)
      : errors_(std::move(errors)) {}

  [[nodiscard]] std::size_t size() const { return errors_.size(); }
  [[nodiscard]] bool empty() const { return errors_.empty(); }
  [[nodiscard]] const_iterator begin() const { return errors_.begin(); }
  [[nodiscard]] const_iterator end() const { return errors_.end(); }

 private:
  std::vector<std::exception_ptr> errors_;
};

/// sycl::async_handler: invoked by wait_and_throw() with every error the
/// queue accumulated since the last drain.
using async_handler = std::function<void(exception_list)>;

}  // namespace minisycl
