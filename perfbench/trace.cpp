// trace.cpp — span bookkeeping and the Chrome trace-event writer.
#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

constexpr int kHostPid = 1;
constexpr int kSimPid = 2;

}  // namespace

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int Tracer::open(std::string name, std::uint64_t op) {
  HostSpan s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op != 0 || s.parent < 0 ? op : host_[static_cast<std::size_t>(s.parent)].op;
  s.start_us = now_us();
  host_.push_back(std::move(s));
  const int index = static_cast<int>(host_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  host_[static_cast<std::size_t>(index)].end_us = now_us();
  // Guards close in reverse order of opening; pop through `index`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::sim(std::string track, std::string name, double start_us, double dur_us,
                 std::uint64_t op) {
  sim_.push_back({std::move(track), std::move(name), start_us, dur_us, op});
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_us(host_.size(), 0.0);
  for (const HostSpan& s : host_) {
    if (s.parent >= 0 && s.end_us >= 0.0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < host_.size(); ++i) {
    const HostSpan& s = host_[i];
    if (s.end_us < 0.0) continue;
    self[s.name] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kHostPid
     << ",\"tid\":0,\"args\":{\"name\":\"host clock (milc_bench)\"}},\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
     << ",\"tid\":0,\"args\":{\"name\":\"simulated clock\"}}";
  for (std::size_t i = 0; i < host_.size(); ++i) {
    const HostSpan& s = host_[i];
    if (s.end_us < 0.0) continue;
    os << ",\n{\"name\":" << json_string(s.name) << ",\"cat\":\"host\",\"ph\":\"X\",\"pid\":"
       << kHostPid << ",\"tid\":1,\"ts\":" << s.start_us << ",\"dur\":" << s.end_us - s.start_us
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << "}}";
  }
  std::map<std::string, int> tids;
  for (const SimSpan& s : sim_) {
    auto [it, fresh] = tids.emplace(s.track, static_cast<int>(tids.size()) + 1);
    if (fresh) {
      os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSimPid
         << ",\"tid\":" << it->second << ",\"args\":{\"name\":" << json_string(s.track)
         << "}}";
    }
    os << ",\n{\"name\":" << json_string(s.name) << ",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":"
       << kSimPid << ",\"tid\":" << it->second << ",\"ts\":" << s.start_us
       << ",\"dur\":" << s.dur_us << ",\"args\":{\"op\":" << s.op << "}}";
  }
  os << "\n]}\n";
  std::ofstream f(path, std::ios::binary);
  f << os.str();
  return static_cast<bool>(f.flush());
}

}  // namespace perfbench
