#pragma once

// Shared pieces of the benchmark harness: clocks, the span tracer, the
// nearest-rank percentile, input digests, process counters, and a tiny
// JSON writer for the result line run.py reads.

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// On-CPU time of the whole process, all threads (also those that have
/// exited), in nanoseconds. Time the hypervisor steals from a vCPU and
/// time a thread waits for one are not counted, so a figure taken with it
/// tracks the program's work rather than the host's load.
std::int64_t process_cpu_ns();

/// Thrown by a correctness gate; the run prints no metric when one trips.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Nearest-rank percentile (p in (0, 100]): the smallest sample such that
/// at least p% of the samples are <= it. Empty input returns 0.
double percentile(std::vector<double> samples, double p);

/// Median by the same nearest-rank rule (p = 50).
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Latency samples, each tagged with the window of the run it ended in.
/// Reporting the median over windows of a per-window statistic keeps a
/// burst of host noise inside one window from moving the run's figure.
struct Samples {
  std::vector<double> values;
  std::vector<std::uint32_t> windows;

  void add(double value, std::uint32_t window) {
    values.push_back(value);
    windows.push_back(window);
  }
  void append(const Samples& other);
  std::size_t size() const { return values.size(); }
};

/// Median over `windows` windows of each window's nearest-rank p-th
/// percentile; windows without samples are skipped.
double windowed_percentile(const Samples& samples, double p,
                           std::size_t windows);

/// Median over windows of the number of samples per window.
double windowed_count(const Samples& samples, std::size_t windows);

/// FNV-1a over a byte range, chained through `hash`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t hash) {
  return fnv1a(&value, sizeof(T), hash);
}

/// Span tracer. Spans are recorded only when enabled; a disabled Span is a
/// single branch. Each thread appends to its own buffer, so recording
/// takes no lock after a thread's first span. Spans nest per thread: a
/// span's parent is the innermost span open on the same thread when it
/// started. The whole trace is written to a TSV file at the end of a run:
///
///   id  parent  op  thread  name  start_ns  end_ns  key=value,...
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// Write every recorded span to `path`; throws on I/O failure.
  static void write(const std::string& path);
};

class Span {
 public:
  /// `name` must be a string literal (stored by pointer). `op` ties the
  /// spans of one benchmark operation together.
  explicit Span(const char* name, std::uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a counter to the span (`key` must be a string literal).
  void attr(const char* key, double value);

 private:
  std::int64_t index_ = -1;  // slot in this thread's buffer; -1 = off
};

/// Process-wide resource counters from getrusage(RUSAGE_SELF).
struct ProcessSample {
  double cpu_s = 0.0;  ///< user + system CPU seconds
  double sys_s = 0.0;  ///< system CPU seconds
  double voluntary_switches = 0.0;
  double involuntary_switches = 0.0;
  double max_rss_mib = 0.0;
};
ProcessSample sample_process();

/// Flat JSON object writer: numbers, strings and nested objects built the
/// same way. Keys keep insertion order.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& str(const std::string& key, const std::string& value);
  Json& obj(const std::string& key, const Json& value);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
