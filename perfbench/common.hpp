// Shared pieces of the Clarens benchmark: seeded randomness, latency
// samples, the correctness ledger, process counters, and the span
// recorder of the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: every path, payload byte, operation choice and arrival
/// time of a run derives from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               1) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// `n` seeded bytes drawn from an alphabet that needs no escaping in any
/// of the wire protocols.
std::string seeded_text(Rng& rng, std::size_t n);

class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Samples grouped by the time slice they fall in. Statistics are the
/// median over slices of each slice's own statistic, so a stall of the
/// host (a descheduled vCPU, a neighbour's burst) moves one slice and not
/// the result.
class Sliced {
 public:
  /// `seconds` from `start`, cut into whole slices of about `slice_s`
  /// (at least one).
  Sliced(Clock::time_point start, double seconds, double slice_s)
      : start_(start),
        slices_(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / slice_s + 0.5))) {
    slice_s_ = seconds / static_cast<double>(slices_.size());
  }

  /// Records `v` in the slice holding `at`; outside the slices it is
  /// dropped.
  void add(Clock::time_point at, double v);
  void merge(const Sliced& other);
  std::size_t size() const;
  /// Median over slices of the slice's percentile q.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }
  /// Median over slices of samples per second.
  double rate() const;

 private:
  Clock::time_point start_;
  std::vector<Samples> slices_;
  double slice_s_ = 1;
};

/// Counts every checked reply; a failed, faulted or wrong reply is a
/// failure. The first few messages are kept for the report.
class Ledger {
 public:
  void ok() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& what);
  /// Records the outcome of one check: `good` or a failure described by
  /// `what`.
  void check(bool good, const char* what) {
    if (good) {
      ok();
    } else {
      fail(what);
    }
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> messages() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

/// Process counters read around a measured window.
double process_cpu_seconds();
double peak_rss_mb();
int thread_count();

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own code around calls into
// each layer. Kept in memory, written out when the run ends.

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // operation the span belongs to
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  /// Fresh span/operation identifier (never 0).
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  /// Thread-local collection, merged into the tracer by flush().
  class Buffer {
   public:
    explicit Buffer(Tracer* tracer) : tracer_(tracer) {}
    ~Buffer() { flush(); }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;

    bool on() const { return tracer_ != nullptr; }
    std::uint64_t next_id() { return tracer_ ? tracer_->next_id() : 0; }
    void add(const char* name, std::uint64_t id, std::uint64_t parent,
             std::uint64_t op, Clock::time_point start,
             Clock::time_point end) {
      if (tracer_) spans_.push_back({name, id, parent, op, start, end});
    }
    void flush();

   private:
    Tracer* tracer_;
    std::vector<Span> spans_;
  };

  std::size_t size() const;
  /// Median self time (span duration minus the part its children cover),
  /// in microseconds, per span name.
  std::map<std::string, Metric> self_time_medians() const;
  /// Median whole duration, in microseconds, per span name.
  std::map<std::string, Metric> duration_medians() const;
  /// Writes one JSON object per span, tagged with `source`; appends when
  /// `append`. Returns false on I/O failure.
  bool write(const std::string& path, const std::string& source,
             bool append) const;

 private:
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
