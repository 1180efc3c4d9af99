#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {
thread_local std::uint64_t tls_current_span = 0;
}  // namespace

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Complete ("X") events: ts/dur in microseconds. tid 0 is the main
    // thread, tid w+1 is engine worker w.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"worker\": %d, \"round\": %ld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}}%s\n",
                 json_escape(s.name).c_str(), s.worker + 1, us(s.start),
                 us(s.end) - us(s.start),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.worker, s.round,
                 us(s.start), us(s.end), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"metadata\": {");
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i > 0 ? ", " : "",
                 json_escape(metadata[i].first).c_str(),
                 json_escape(metadata[i].second).c_str());
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int worker,
                       long round)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent =
      tls_current_span != 0 ? tls_current_span : tracer_->context();
  span_.worker = worker;
  span_.round = round;
  saved_current_ = tls_current_span;
  tls_current_span = span_.id;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  tls_current_span = saved_current_;
  tracer_->record(std::move(span_));
}

}  // namespace perfbench
