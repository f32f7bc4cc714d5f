#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::string seeded_text(Rng& rng, std::size_t n) {
  static constexpr char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  std::string out(n, ' ');
  for (char& c : out) c = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  return out;
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values_.size()))));
  return values_[std::min(rank, values_.size()) - 1];
}

void Sliced::add(Clock::time_point at, double v) {
  const double offset = seconds_between(start_, at);
  if (offset < 0) return;
  const auto index = static_cast<std::size_t>(offset / slice_s_);
  if (index < slices_.size()) slices_[index].add(v);
}

void Sliced::merge(const Sliced& other) {
  for (std::size_t i = 0; i < slices_.size() && i < other.slices_.size(); ++i) {
    slices_[i].merge(other.slices_[i]);
  }
}

std::size_t Sliced::size() const {
  std::size_t n = 0;
  for (const Samples& slice : slices_) n += slice.size();
  return n;
}

double Sliced::percentile(double q) const {
  Samples per_slice;
  for (const Samples& slice : slices_) {
    if (slice.size() > 0) per_slice.add(slice.percentile(q));
  }
  return per_slice.median();
}

double Sliced::rate() const {
  Samples per_slice;
  for (const Samples& slice : slices_) {
    per_slice.add(static_cast<double>(slice.size()) / slice_s_);
  }
  return per_slice.median();
}

void Ledger::fail(const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  if (messages_.size() < 5) messages_.push_back(what);
}

std::vector<std::string> Ledger::messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

void Tracer::Buffer::flush() {
  if (!tracer_ || spans_.empty()) return;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.insert(tracer_->spans_.end(), spans_.begin(), spans_.end());
  spans_.clear();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, Metric> Tracer::self_time_medians() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, Samples> self;
  for (const Span& span : spans_) {
    double covered = 0;
    if (auto it = children.find(span.id); it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<Clock::time_point, Clock::time_point>> parts;
      for (const Span* child : it->second) {
        parts.emplace_back(std::max(child->start, span.start),
                           std::min(child->end, span.end));
      }
      std::sort(parts.begin(), parts.end());
      Clock::time_point reach = span.start;
      for (const auto& [begin, end] : parts) {
        Clock::time_point from = std::max(begin, reach);
        if (end > from) {
          covered += us_between(from, end);
          reach = end;
        }
      }
    }
    self[span.name].add(us_between(span.start, span.end) - covered);
  }
  std::map<std::string, Metric> out;
  for (const auto& [name, samples] : self) {
    out[name] = {samples.median(), "us", samples.size()};
  }
  return out;
}

std::map<std::string, Metric> Tracer::duration_medians() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Samples> durations;
  for (const Span& span : spans_) {
    durations[span.name].add(us_between(span.start, span.end));
  }
  std::map<std::string, Metric> out;
  for (const auto& [name, samples] : durations) {
    out[name] = {samples.median(), "us", samples.size()};
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& source,
                   bool append) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (!f) return false;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"source\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 source.c_str(), span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op),
                 us_between(epoch_, span.start), us_between(epoch_, span.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
