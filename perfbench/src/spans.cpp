// In-memory span log of the traced run, exported through obs::TraceLog.
#include <stdexcept>

#include "bench.hpp"
#include "prophet/obs/obs.hpp"

namespace perfbench {

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

int SpanLog::open(std::string name, std::string subject, std::uint64_t count) {
  Span span;
  span.name = std::move(name);
  span.subject = std::move(subject);
  span.count = count;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = now_us();
  const double duration = span.end_us - span.start_us;
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_us += duration;
  }
  return duration * 1e-6;
}

SpanLog::Totals SpanLog::totals(std::string_view name,
                                std::string_view subject) const {
  Totals totals;
  for (const Span& span : spans_) {
    if (span.end_us < 0 || span.name != name ||
        (!subject.empty() && span.subject != subject)) {
      continue;
    }
    totals.self_seconds += (span.end_us - span.start_us - span.child_us) * 1e-6;
    totals.calls += span.count;
  }
  return totals;
}

std::string SpanLog::to_chrome_json() const {
  prophet::obs::TraceLog log(epoch_);
  log.name_process(0, "perfbench");
  log.name_thread(0, 0, "main");
  for (const Span& span : spans_) {
    if (span.end_us < 0) {
      continue;
    }
    // The category is the module the span entered ("check.check" ->
    // "check"); nesting on the one lane shows each span's parent.
    const std::string layer = span.name.substr(0, span.name.find('.'));
    std::string label = span.name;
    if (!span.subject.empty()) {
      label += " " + span.subject;
    }
    if (span.count > 1) {
      label += " x" + std::to_string(span.count);
    }
    log.complete(span.start_us, span.end_us - span.start_us, 0, 0,
                 std::move(label), layer);
  }
  return log.to_chrome_json();
}

}  // namespace perfbench
