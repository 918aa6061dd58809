#include "prophet/obs/obs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <stdexcept>

namespace prophet::obs {

namespace {

/// Shortest round-trip decimal form of a double; always a valid JSON
/// number ("nan"/"inf" never reach exports — cells start at zero and
/// accumulate finite increments, but guard anyway).
std::string format_double(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Cell& Registry::cell(std::string_view name, Cell::Kind kind) {
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), Cell{kind, 0, 0.0}).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs: metric '" + std::string(name) +
                           "' requested with a different kind");
  }
  return it->second;
}

Counter Registry::counter(std::string_view name) {
  return Counter(&cell(name, Cell::Kind::Counter).count);
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge(&cell(name, Cell::Kind::Gauge).value);
}

Timer Registry::timer(std::string_view name) {
  return Timer(&cell(name, Cell::Kind::Timer).value);
}

// The folds run once per estimation, which on the analytic fast path is
// every couple of microseconds — so they reuse one key buffer (the
// transparent map comparator finds by string_view) instead of
// allocating a fresh name per cell.
namespace {

class FoldKey {
 public:
  explicit FoldKey(std::string_view prefix) : key_(prefix) {}

  std::string_view with(std::string_view name) {
    key_.resize(key_.size() - suffix_);
    key_ += name;
    suffix_ = name.size();
    return key_;
  }

 private:
  std::string key_;
  std::size_t suffix_ = 0;
};

}  // namespace

void Registry::fold(std::string_view prefix, const ExprCounters& counters) {
  FoldKey key(prefix);
  counter(key.with("instructions")).add(counters.instructions);
  counter(key.with("evals")).add(counters.evals);
  counter(key.with("lazy_errors")).add(counters.lazy_errors);
  counter(key.with("batch_evals")).add(counters.batch_evals);
}

void Registry::fold(std::string_view prefix, const SimCounters& counters) {
  FoldKey key(prefix);
  counter(key.with("messages")).add(counters.messages);
  counter(key.with("barriers")).add(counters.barriers);
  counter(key.with("context_switches")).add(counters.context_switches);
}

void Registry::fold(std::string_view prefix,
                    const AnalyticCounters& counters) {
  FoldKey key(prefix);
  counter(key.with("loop_collapses")).add(counters.loop_collapses);
  counter(key.with("trips_reemitted")).add(counters.trips_reemitted);
  counter(key.with("spmd_fast_path")).add(counters.spmd_fast_path);
  counter(key.with("events_replayed")).add(counters.events_replayed);
  counter(key.with("replays_shared")).add(counters.replays_shared);
  counter(key.with("walks_kept")).add(counters.walks_kept);
  counter(key.with("schedule_wins")).add(counters.schedule_wins);
  counter(key.with("capacity_wins")).add(counters.capacity_wins);
  counter(key.with("critical_wins")).add(counters.critical_wins);
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, incoming] : other.cells_) {
    Cell& mine = cell(name, incoming.kind);
    mine.count += incoming.count;
    mine.value += incoming.value;
  }
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const auto it = cells_.find(name);
  return it == cells_.end() ? 0 : it->second.count;
}

double Registry::gauge_value(std::string_view name) const {
  const auto it = cells_.find(name);
  return it == cells_.end() ? 0.0 : it->second.value;
}

double Registry::timer_seconds(std::string_view name) const {
  return gauge_value(name);
}

std::string Registry::to_json() const {
  std::string out = "{\n  \"schema\": \"prophet-metrics-1\"";
  const auto emit_section = [&](const char* title, Cell::Kind kind) {
    out += ",\n  \"";
    out += title;
    out += "\": {";
    bool first = true;
    for (const auto& [name, cell] : cells_) {
      if (cell.kind != kind) {
        continue;
      }
      out += first ? "\n    " : ",\n    ";
      first = false;
      append_json_string(out, name);
      out += ": ";
      out += kind == Cell::Kind::Counter ? std::to_string(cell.count)
                                         : format_double(cell.value);
    }
    out += first ? "}" : "\n  }";
  };
  emit_section("counters", Cell::Kind::Counter);
  emit_section("gauges", Cell::Kind::Gauge);
  emit_section("timers", Cell::Kind::Timer);
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// TraceLog
// ---------------------------------------------------------------------------

double TraceLog::now_us() const {
  const auto elapsed = Clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

void TraceLog::complete(double start_us, double dur_us, int pid, int tid,
                        std::string name, std::string cat) {
  Span span;
  span.start_us = start_us;
  span.dur_us = std::max(dur_us, 0.0);
  span.pid = pid;
  span.tid = tid;
  span.name = std::move(name);
  span.cat = std::move(cat);
  spans_.push_back(std::move(span));
}

void TraceLog::name_process(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void TraceLog::name_thread(int pid, int tid, std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

void TraceLog::append_simulated(const trace::Trace& trace, int base_pid,
                                std::string_view label) {
  for (const auto& event : trace.events()) {
    complete(event.start * 1e6, event.duration() * 1e6,
             base_pid + event.pid, event.tid, event.element,
             std::string("sim.") + std::string(to_string(event.kind)));
    const int pid = base_pid + event.pid;
    if (process_names_.find(pid) == process_names_.end()) {
      name_process(pid, std::string(label) + " p" +
                            std::to_string(event.pid) + " (simulated)");
    }
  }
}

void TraceLog::merge(TraceLog&& other) {
  spans_.insert(spans_.end(),
                std::make_move_iterator(other.spans_.begin()),
                std::make_move_iterator(other.spans_.end()));
  for (auto& [pid, name] : other.process_names_) {
    process_names_.emplace(pid, std::move(name));
  }
  for (auto& [key, name] : other.thread_names_) {
    thread_names_.emplace(key, std::move(name));
  }
  other.spans_.clear();
  other.process_names_.clear();
  other.thread_names_.clear();
}

std::string TraceLog::to_chrome_json() const {
  std::vector<const Span*> ordered;
  ordered.reserve(spans_.size());
  for (const auto& span : spans_) {
    ordered.push_back(&span);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Span* a, const Span* b) {
                     return a->start_us < b->start_us;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    sep();
    out += R"({"ph":"M","name":"process_name","pid":)" +
           std::to_string(pid) + R"(,"tid":0,"args":{"name":)";
    append_json_string(out, name);
    out += "}}";
  }
  for (const auto& [key, name] : thread_names_) {
    sep();
    out += R"({"ph":"M","name":"thread_name","pid":)" +
           std::to_string(key.first) + R"(,"tid":)" +
           std::to_string(key.second) + R"(,"args":{"name":)";
    append_json_string(out, name);
    out += "}}";
  }
  for (const Span* span : ordered) {
    sep();
    out += R"({"ph":"X","ts":)" + format_double(span->start_us) +
           R"(,"dur":)" + format_double(span->dur_us) + R"(,"pid":)" +
           std::to_string(span->pid) + R"(,"tid":)" +
           std::to_string(span->tid) + R"(,"name":)";
    append_json_string(out, span->name);
    out += R"(,"cat":)";
    append_json_string(out, span->cat);
    out += "}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace prophet::obs
