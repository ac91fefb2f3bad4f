#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

namespace perfbench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

void Samples::append(const Samples& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
}

namespace {

std::vector<std::vector<double>> by_window(const Samples& samples,
                                           std::size_t windows) {
  std::vector<std::vector<double>> out(windows);
  for (std::size_t i = 0; i < samples.size(); ++i)
    out[std::min<std::size_t>(samples.windows[i], windows - 1)].push_back(
        samples.values[i]);
  return out;
}

}  // namespace

double windowed_percentile(const Samples& samples, double p,
                           std::size_t windows) {
  std::vector<double> per_window;
  for (std::vector<double>& values : by_window(samples, windows))
    if (!values.empty()) per_window.push_back(percentile(std::move(values), p));
  return median(std::move(per_window));
}

double windowed_count(const Samples& samples, std::size_t windows) {
  std::vector<double> counts;
  for (const std::vector<double>& values : by_window(samples, windows))
    counts.push_back(static_cast<double>(values.size()));
  return median(std::move(counts));
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t op = 0;
  std::int64_t parent = -1;  // global id, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> attrs;
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int64_t> open;  // global ids of open spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // g_registry_mu

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_registry.size() - 1);
  }
  return *buffer;
}

std::int64_t global_id(std::uint32_t thread, std::size_t index) {
  return (static_cast<std::int64_t>(thread) << 32) |
         static_cast<std::int64_t>(index);
}

}  // namespace

void Tracer::enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::write(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      out << global_id(buffer->thread, i) << '\t' << span.parent << '\t'
          << span.op << '\t' << buffer->thread << '\t' << span.name << '\t'
          << span.start_ns << '\t' << span.end_ns << '\t';
      for (std::size_t a = 0; a < span.attrs.size(); ++a) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", span.attrs[a].second);
        out << (a ? "," : "") << span.attrs[a].first << '=' << value;
      }
      out << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("cannot write trace file " + path);
}

Span::Span(const char* name, std::uint64_t op) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = this_thread_buffer();
  index_ = static_cast<std::int64_t>(buffer.spans.size());
  SpanRecord record;
  record.name = name;
  record.op = op;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.spans.push_back(std::move(record));
  buffer.open.push_back(global_id(buffer.thread, buffer.spans.size() - 1));
  buffer.spans.back().start_ns = now_ns();
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = this_thread_buffer();
  buffer.spans[static_cast<std::size_t>(index_)].end_ns = end;
  buffer.open.pop_back();
}

void Span::attr(const char* key, double value) {
  if (index_ < 0) return;
  this_thread_buffer().spans[static_cast<std::size_t>(index_)].attrs.emplace_back(
      key, value);
}

ProcessSample sample_process() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcessSample sample;
  sample.cpu_s = secs(usage.ru_utime) + secs(usage.ru_stime);
  sample.sys_s = secs(usage.ru_stime);
  sample.voluntary_switches = static_cast<double>(usage.ru_nvcsw);
  sample.involuntary_switches = static_cast<double>(usage.ru_nivcsw);
  sample.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return sample;
}

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json& Json::num(const std::string& key, double value) {
  char text[64];
  if (std::isfinite(value))
    std::snprintf(text, sizeof(text), "%.17g", value);
  else
    std::snprintf(text, sizeof(text), "null");
  fields_.emplace_back(key, text);
  return *this;
}

Json& Json::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
  return *this;
}

Json& Json::obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

std::string Json::dump() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < fields_.size(); ++i)
    out << (i ? ", " : "") << quote(fields_[i].first) << ": "
        << fields_[i].second;
  out << '}';
  return out.str();
}

}  // namespace perfbench
