// In-memory span recorder for the traced run. Spans sit around the driver's
// own calls into the library (generation, auctioneer construction,
// ServiceRuntime::run, the reference check); they are written out once, at
// exit, in the Chrome trace-event format any trace viewer opens.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread, in ns: what the simulator's kMeasured
/// mode charges to node clocks, and what layer busy times are stated in.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t cpu_ns = 0;  ///< thread CPU time spent inside the span
    int id = 0;
    int parent = -1;     ///< id of the enclosing span, -1 at the top
    std::int64_t run = 0;  ///< chunk the span belongs to, -1 for none
  };

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::int64_t run = -1) : t_(t) {
      if (t_) id_ = t_->open(std::move(name), run);
    }
    ~Scope() {
      if (t_) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  /// Total thread CPU time inside the spans called `name`, in ms.
  double cpu_ms(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.cpu_ns;
    }
    return static_cast<double>(ns) / 1e6;
  }

  /// Write every span as a complete ("X") trace event. Returns false if the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                   "\"run\":%lld,\"cpu_us\":%.3f}}",
                   i ? "," : "", s.name.c_str(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, static_cast<long long>(s.run),
                   static_cast<double>(s.cpu_ns) / 1e3);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  int open(std::string name, std::int64_t run) {
    const int id = static_cast<int>(spans_.size());
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, thread_cpu_ns(), id, parent, run});
    open_.push_back(id);
    return id;
  }

  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
