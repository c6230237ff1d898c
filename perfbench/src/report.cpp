#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/json.h"
#include "sim/kernels/simd.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double tail_quantile_level(std::size_t samples) {
  for (double q : {0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::uint64_t SpanRecorder::reserve() {
  std::lock_guard<std::mutex> lk(mutex_);
  return next_id_++;
}

void SpanRecorder::record(std::uint64_t id, std::string name, std::uint64_t request,
                          std::uint64_t parent, Clock::time_point begin,
                          Clock::time_point end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_s = seconds_between(origin_, begin);
  span.end_s = seconds_between(origin_, end);
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.push_back(std::move(span));
}

std::uint64_t SpanRecorder::record(std::string name, std::uint64_t request,
                                   std::uint64_t parent, Clock::time_point begin,
                                   Clock::time_point end) {
  const std::uint64_t id = reserve();
  record(id, std::move(name), request, parent, begin, end);
  return id;
}

std::uint64_t SpanRecorder::next_request() {
  std::lock_guard<std::mutex> lk(mutex_);
  return next_request_++;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.duration_s();
  }
  return total;
}

bool SpanRecorder::write(const std::string& path) const {
  tetris::json::Writer w(0);
  w.begin_object().key("spans").begin_array();
  std::lock_guard<std::mutex> lk(mutex_);
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    w.key("name").value(s.name);
    w.key("start_s").value(s.start_s);
    w.key("end_s").value(s.end_s);
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

void Result::fail(const std::string& why) {
  correct = false;
  ++failures;
  if (errors.size() < 20) errors.push_back(why);
}

std::string Result::json_line() const {
  tetris::json::Writer w(0);
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const auto& [name, metric] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(metric.value);
    w.key("unit").value(metric.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

double measure_stream_gbps() {
  const std::size_t bytes = std::size_t{32} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double s = seconds_between(t0, Clock::now());
    src[static_cast<std::size_t>(rep)] = dst[bytes - 1 - static_cast<std::size_t>(rep)];
    if (s > 0.0) best = std::max(best, 2.0 * static_cast<double>(bytes) / s / 1e9);
  }
  return best;
}

}  // namespace

Host describe_host(const std::string& git_sha) {
  Host host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  namespace k = tetris::sim::kernels;
  host.simd_mode = k::simd_mode_name(k::simd_mode());
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.git_sha = git_sha.empty() ? "unknown" : git_sha;
  host.stream_gbps = measure_stream_gbps();
  return host;
}

std::string host_json(const Host& host) {
  tetris::json::Writer w(0);
  w.begin_object().key("host").begin_object();
  w.key("nproc").value(host.nproc);
  w.key("cpu_model").value(host.cpu_model);
  w.key("simd_mode").value(host.simd_mode);
  w.key("build_type").value(host.build_type);
  w.key("git_sha").value(host.git_sha);
  w.key("stream_gbps").value(host.stream_gbps);
  w.end_object().end_object();
  return w.str();
}

}  // namespace perfbench
