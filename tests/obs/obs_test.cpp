// Unit tests for the observability substrate: registry cells and
// handles, POD folds, merge semantics, the metrics JSON schema, and the
// Chrome trace-event export.
#include "prophet/obs/obs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "../obs/mini_json.hpp"
#include "prophet/trace/trace.hpp"

namespace {

using prophet::obs::AnalyticCounters;
using prophet::obs::Counter;
using prophet::obs::ExprCounters;
using prophet::obs::Gauge;
using prophet::obs::Registry;
using prophet::obs::ScopedTimer;
using prophet::obs::SimCounters;
using prophet::obs::Timer;
using prophet::obs::TraceLog;

TEST(Registry, CounterGaugeTimerRoundTrip) {
  Registry registry;
  registry.counter("a.count").add();
  registry.counter("a.count").add(41);
  registry.gauge("a.level").set(2.5);
  registry.gauge("a.level").add(0.5);
  registry.timer("a.time").add_seconds(1.25);
  EXPECT_EQ(registry.counter_value("a.count"), 42U);
  EXPECT_DOUBLE_EQ(registry.gauge_value("a.level"), 3.0);
  EXPECT_DOUBLE_EQ(registry.timer_seconds("a.time"), 1.25);
  EXPECT_EQ(registry.size(), 3U);
}

TEST(Registry, AbsentNamesReadZero) {
  const Registry registry;
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.counter_value("missing"), 0U);
  EXPECT_DOUBLE_EQ(registry.gauge_value("missing"), 0.0);
  EXPECT_DOUBLE_EQ(registry.timer_seconds("missing"), 0.0);
}

TEST(Registry, HandlesStayValidAcrossInsertions) {
  // The std::map cells give node stability: a handle taken early must
  // survive arbitrarily many later insertions.
  Registry registry;
  Counter counter = registry.counter("stable");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i)).add();
  }
  counter.add(7);
  EXPECT_EQ(registry.counter_value("stable"), 7U);
}

TEST(Registry, DefaultConstructedHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Timer timer;
  counter.add(5);
  gauge.set(1.0);
  timer.add_seconds(1.0);
  // Nothing to observe — the test is that none of these dereference.
  { ScopedTimer scoped{Timer{}}; }
  SUCCEED();
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  registry.counter("cell");
  EXPECT_THROW(registry.gauge("cell"), std::logic_error);
  EXPECT_THROW(registry.timer("cell"), std::logic_error);
}

TEST(Registry, FoldsPodBlocksUnderPrefix) {
  Registry registry;
  ExprCounters expr;
  expr.instructions = 10;
  expr.evals = 2;
  expr.lazy_errors = 1;
  registry.fold("expr.", expr);
  EXPECT_EQ(registry.counter_value("expr.instructions"), 10U);
  EXPECT_EQ(registry.counter_value("expr.evals"), 2U);
  EXPECT_EQ(registry.counter_value("expr.lazy_errors"), 1U);

  SimCounters sim;
  sim.messages = 3;
  sim.barriers = 4;
  sim.context_switches = 5;
  registry.fold("sim.", sim);
  EXPECT_EQ(registry.counter_value("sim.messages"), 3U);
  EXPECT_EQ(registry.counter_value("sim.barriers"), 4U);
  EXPECT_EQ(registry.counter_value("sim.context_switches"), 5U);

  AnalyticCounters analytic;
  analytic.loop_collapses = 6;
  analytic.events_replayed = 7;
  analytic.schedule_wins = 1;
  analytic.trips_reemitted = 8;
  analytic.replays_shared = 9;
  analytic.walks_kept = 10;
  registry.fold("analytic.", analytic);
  EXPECT_EQ(registry.counter_value("analytic.loop_collapses"), 6U);
  EXPECT_EQ(registry.counter_value("analytic.events_replayed"), 7U);
  EXPECT_EQ(registry.counter_value("analytic.schedule_wins"), 1U);
  EXPECT_EQ(registry.counter_value("analytic.trips_reemitted"), 8U);
  EXPECT_EQ(registry.counter_value("analytic.replays_shared"), 9U);
  EXPECT_EQ(registry.counter_value("analytic.walks_kept"), 10U);

  // Folding again accumulates.
  registry.fold("expr.", expr);
  EXPECT_EQ(registry.counter_value("expr.instructions"), 20U);
}

TEST(Registry, MergeSumsEveryKind) {
  Registry a;
  a.counter("shared.count").add(1);
  a.gauge("shared.gauge").set(1.5);
  Registry b;
  b.counter("shared.count").add(2);
  b.gauge("shared.gauge").set(2.5);
  b.timer("only_b.time").add_seconds(0.5);
  a.merge(b);
  EXPECT_EQ(a.counter_value("shared.count"), 3U);
  EXPECT_DOUBLE_EQ(a.gauge_value("shared.gauge"), 4.0);
  EXPECT_DOUBLE_EQ(a.timer_seconds("only_b.time"), 0.5);
}

TEST(Registry, JsonExportHasSchemaAndSections) {
  Registry registry;
  registry.counter("z.count").add(7);
  registry.gauge("a.gauge").set(0.25);
  registry.timer("m.time").add_seconds(2.0);
  const auto doc = mini_json::parse(registry.to_json());
  EXPECT_EQ(doc.at("schema").str(), "prophet-metrics-1");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("z.count").number(), 7.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("a.gauge").number(), 0.25);
  EXPECT_DOUBLE_EQ(doc.at("timers").at("m.time").number(), 2.0);
  // Counters export as integers, not floats.
  EXPECT_EQ(registry.to_json().find("7.0"), std::string::npos);
}

TEST(Registry, EmptyRegistryExportsEmptySections) {
  const Registry registry;
  const auto doc = mini_json::parse(registry.to_json());
  EXPECT_TRUE(doc.at("counters").object().empty());
  EXPECT_TRUE(doc.at("gauges").object().empty());
  EXPECT_TRUE(doc.at("timers").object().empty());
}

TEST(Registry, JsonEscapesMetricNames) {
  Registry registry;
  registry.counter("weird\"name\\with\ttabs").add(1);
  const auto doc = mini_json::parse(registry.to_json());
  EXPECT_DOUBLE_EQ(
      doc.at("counters").at("weird\"name\\with\ttabs").number(), 1.0);
}

TEST(TraceLog, NullLogSpansAreNoOps) {
  { const TraceLog::HostSpan span(nullptr, 0, 0, "noop", "test"); }
  SUCCEED();
}

TEST(TraceLog, HostSpanRecordsOnItsLane) {
  TraceLog log;
  { const TraceLog::HostSpan span(&log, 3, 7, "work", "test"); }
  ASSERT_EQ(log.span_count(), 1U);
  const auto doc = mini_json::parse(log.to_chrome_json());
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].at("ph").str(), "X");
  EXPECT_EQ(events[0].at("name").str(), "work");
  EXPECT_EQ(events[0].at("cat").str(), "test");
  EXPECT_DOUBLE_EQ(events[0].at("pid").number(), 3.0);
  EXPECT_DOUBLE_EQ(events[0].at("tid").number(), 7.0);
  EXPECT_GE(events[0].at("dur").number(), 0.0);
}

TEST(TraceLog, AppendSimulatedMapsRanksToPidLanes) {
  prophet::trace::Trace trace;
  prophet::trace::TraceEvent event;
  event.start = 0.001;
  event.end = 0.002;
  event.pid = 2;
  event.tid = 1;
  event.element = "Work";
  event.kind = prophet::trace::EventKind::Compute;
  trace.add(event);

  TraceLog log;
  log.append_simulated(trace, 1000, "model");
  const auto doc = mini_json::parse(log.to_chrome_json());
  bool found_span = false;
  bool found_label = false;
  for (const auto& entry : doc.at("traceEvents").array()) {
    if (entry.at("ph").str() == "X") {
      found_span = true;
      EXPECT_DOUBLE_EQ(entry.at("pid").number(), 1002.0);
      EXPECT_DOUBLE_EQ(entry.at("tid").number(), 1.0);
      // Model seconds scale to microseconds.
      EXPECT_DOUBLE_EQ(entry.at("ts").number(), 1000.0);
      EXPECT_DOUBLE_EQ(entry.at("dur").number(), 1000.0);
    }
    if (entry.at("ph").str() == "M" &&
        entry.at("name").str() == "process_name") {
      found_label = true;
    }
  }
  EXPECT_TRUE(found_span);
  EXPECT_TRUE(found_label);
}

TEST(TraceLog, MergeMovesSpansAndSharesEpoch) {
  TraceLog parent;
  TraceLog child(parent.epoch());
  { const TraceLog::HostSpan span(&child, 0, 1, "child work", "test"); }
  { const TraceLog::HostSpan span(&parent, 0, 0, "parent work", "test"); }
  parent.merge(std::move(child));
  EXPECT_EQ(parent.span_count(), 2U);
}

TEST(TraceLog, ChromeJsonSpansSortedByTimestamp) {
  TraceLog log;
  log.complete(200.0, 10.0, 0, 0, "later", "test");
  log.complete(100.0, 10.0, 0, 0, "earlier", "test");
  const auto doc = mini_json::parse(log.to_chrome_json());
  double last = -1.0;
  for (const auto& entry : doc.at("traceEvents").array()) {
    if (entry.at("ph").str() != "X") {
      continue;
    }
    EXPECT_GE(entry.at("ts").number(), last);
    last = entry.at("ts").number();
  }
  EXPECT_DOUBLE_EQ(last, 200.0);
}

TEST(TraceLog, JsonEscapesSpanNames) {
  TraceLog log;
  log.complete(0.0, 1.0, 0, 0, "name \"with\"\nnewline", "cat\\slash");
  const auto doc = mini_json::parse(log.to_chrome_json());
  const auto& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].at("name").str(), "name \"with\"\nnewline");
  EXPECT_EQ(events[0].at("cat").str(), "cat\\slash");
}

}  // namespace
