#pragma once
// In-memory span tracer for the benchmark's traced run. Spans are recorded
// around the calls the benchmark makes into each layer (setup steps, epochs,
// the FeatureProvider gather calls, the sequential replay's sample / gather /
// forward / loss / backward / optimizer steps), kept in memory, and written
// out once at the end as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev).
//
// A null Tracer* everywhere means "tracing off": ScopedSpan then does nothing
// and reads no clock.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  int worker = -1;           // -1 = the benchmark's main thread
  long round = -1;           // -1 = not tied to a training round
  Clock::time_point start{};
  Clock::time_point end{};

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Parent for spans opened on threads that have no open span of their own
  /// (the engine's worker threads): the benchmark sets it to the current
  /// epoch span.
  void set_context(std::uint64_t id) { context_.store(id); }
  std::uint64_t context() const { return context_.load(); }

  void record(Span span);

  /// Durations (ms) of every span with this name, in recording order.
  std::vector<double> durations_ms(const std::string& name) const;
  std::vector<Span> spans() const;

  /// Writes {"traceEvents": [...], "metadata": {...}} where `metadata` is a
  /// list of string key/value pairs. Returns false on an IO error.
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> context_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. Nested ScopedSpans on one thread parent to each other; the
/// outermost one on a thread parents to Tracer::context().
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int worker = -1,
             long round = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Escapes a string for a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

}  // namespace perfbench
