// Out-of-process contracts of the observability exports: --metrics JSON
// schema, --trace-json Chrome trace shape, printed-number == exported-
// number, instrumentation bit-identity and the --progress heartbeat —
// all asserted against the real prophetc binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../obs/mini_json.hpp"

namespace {

struct CommandResult {
  int status = -1;
  std::string output;  // stdout + stderr interleaved
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  char buffer[512];
  while (fgets(buffer, sizeof buffer, pipe) != nullptr) {
    result.output += buffer;
  }
  result.status = pclose(pipe);
  return result;
}

std::string prophetc() { return std::string(PROPHET_BINARY_DIR) + "/prophetc"; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::uint64_t counter(const mini_json::Value& doc, const std::string& name) {
  return static_cast<std::uint64_t>(doc.at("counters").at(name).number());
}

TEST(ObservabilityCli, SweepMetricsJsonHasSchemaAndLiveCounters) {
  const std::string path = temp_path("sweep_metrics.json");
  const auto result =
      run_command(prophetc() + " sweep @kernel6 --backend both --metrics " +
                  path);
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("metrics written to"), std::string::npos);

  const auto doc = mini_json::parse(slurp(path));
  EXPECT_EQ(doc.at("schema").str(), "prophet-metrics-1");
  ASSERT_TRUE(doc.at("counters").is_object());
  ASSERT_TRUE(doc.at("gauges").is_object());
  ASSERT_TRUE(doc.at("timers").is_object());
  // The pipeline ran: job accounting, the compiled-model cache, both
  // engines and the shared lowering all counted.
  EXPECT_GT(counter(doc, "batch.jobs"), 0U);
  EXPECT_GT(counter(doc, "batch.cache_hits"), 0U);
  EXPECT_GT(counter(doc, "expr.instructions"), 0U);
  EXPECT_GT(counter(doc, "sim.runs"), 0U);
  EXPECT_GT(counter(doc, "analytic.runs"), 0U);
  EXPECT_GT(counter(doc, "lower.nodes"), 0U);
  EXPECT_GT(doc.at("timers").at("batch.wall_seconds").number(), 0.0);
}

TEST(ObservabilityCli, EstimateTraceJsonLanesMatchProcessCount) {
  const std::string path = temp_path("estimate_trace.json");
  const auto result = run_command(prophetc() +
                                  " estimate @kernel6 --np 4 --backend both "
                                  "--trace-json " +
                                  path);
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("trace json written to"), std::string::npos);

  const auto doc = mini_json::parse(slurp(path));
  EXPECT_EQ(doc.at("displayTimeUnit").str(), "ms");
  const auto& events = doc.at("traceEvents").array();
  ASSERT_FALSE(events.empty());
  double last_ts = -1.0;
  std::set<int> host_tids;
  std::set<int> sim_pids;
  for (const auto& entry : events) {
    if (entry.at("ph").str() == "M") {
      continue;
    }
    ASSERT_EQ(entry.at("ph").str(), "X");
    // Spans are emitted sorted by timestamp so Perfetto streams them.
    EXPECT_GE(entry.at("ts").number(), last_ts);
    last_ts = entry.at("ts").number();
    EXPECT_GE(entry.at("dur").number(), 0.0);
    const int pid = static_cast<int>(entry.at("pid").number());
    if (pid == 0) {
      host_tids.insert(static_cast<int>(entry.at("tid").number()));
    } else {
      sim_pids.insert(pid);
    }
  }
  // Host spans live on pid 0 (parse/prepare/estimate stages).
  EXPECT_FALSE(host_tids.empty());
  // Simulated lanes: exactly one chrome process per modeled rank.
  EXPECT_EQ(sim_pids, (std::set<int>{1000, 1001, 1002, 1003}));
}

TEST(ObservabilityCli, TimingsNumbersEqualMetricsJson) {
  const std::string path = temp_path("timings_metrics.json");
  const auto result = run_command(prophetc() +
                                  " estimate @kernel6 --backend both "
                                  "--timings --metrics " +
                                  path);
  ASSERT_EQ(result.status, 0) << result.output;
  const auto doc = mini_json::parse(slurp(path));
  // The printed lowering line is formatted from the same registry cells
  // the JSON exports; reconstruct it from the JSON and demand a match.
  const std::string lowering =
      "lowering " + std::to_string(counter(doc, "lower.nodes")) + " nodes, " +
      std::to_string(counter(doc, "lower.slots")) + " slots, " +
      std::to_string(counter(doc, "lower.bytecode_bytes")) +
      " bytecode bytes";
  EXPECT_NE(result.output.find("sim: " + lowering), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("analytic: " + lowering), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(
                std::to_string(counter(doc, "lower.expr_programs")) +
                " programs)"),
            std::string::npos)
      << result.output;
  // Host stage timers exported for both backends.
  EXPECT_GE(doc.at("timers").at("host.sim.estimate_seconds").number(), 0.0);
  EXPECT_GE(doc.at("timers").at("host.analytic.estimate_seconds").number(),
            0.0);
}

TEST(ObservabilityCli, SweepSummaryCountsEqualMetricsJson) {
  const std::string path = temp_path("summary_metrics.json");
  const auto result = run_command(
      prophetc() + " sweep @pingpong --backend both --metrics " + path);
  ASSERT_EQ(result.status, 0) << result.output;
  const auto doc = mini_json::parse(slurp(path));
  const std::string jobs = std::to_string(counter(doc, "batch.jobs"));
  EXPECT_NE(result.output.find("scenario sweep: " + jobs + " job(s)"),
            std::string::npos)
      << result.output;
  const std::string tally =
      "ok " + std::to_string(counter(doc, "batch.jobs_ok")) + " / failed " +
      std::to_string(counter(doc, "batch.jobs_failed"));
  EXPECT_NE(result.output.find(tally), std::string::npos) << result.output;
  const std::string cache =
      "prepared " + std::to_string(counter(doc, "batch.models_prepared")) +
      " model(s)";
  EXPECT_NE(result.output.find(cache), std::string::npos) << result.output;
}

TEST(ObservabilityCli, InstrumentationDoesNotChangePredictions) {
  // The deterministic CSV columns (1-15: ids, parameters, predictions,
  // event counts) must be byte-identical with and without --metrics /
  // --trace-json; only the host-time columns may move.
  const std::string csv_plain = temp_path("sweep_plain.csv");
  const std::string csv_instrumented = temp_path("sweep_instr.csv");
  const std::string base = prophetc() +
                           " sweep @kernel6 --backend both --grid np=1..4 "
                           "--csv ";
  const auto plain = run_command(base + csv_plain);
  ASSERT_EQ(plain.status, 0) << plain.output;
  const auto instrumented = run_command(
      base + csv_instrumented + " --metrics " + temp_path("instr_m.json") +
      " --trace-json " + temp_path("instr_t.json"));
  ASSERT_EQ(instrumented.status, 0) << instrumented.output;

  const auto deterministic_prefix = [](const std::string& text) {
    std::vector<std::string> rows;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::size_t pos = 0;
      for (int field = 0; field < 15 && pos != std::string::npos; ++field) {
        pos = line.find(',', pos + 1);
      }
      rows.push_back(line.substr(0, pos));
    }
    return rows;
  };
  const auto a = deterministic_prefix(slurp(csv_plain));
  const auto b = deterministic_prefix(slurp(csv_instrumented));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 1U);  // header + jobs
  EXPECT_EQ(a, b);
}

TEST(ObservabilityCli, ProgressHeartbeatOnStderr) {
  const auto result =
      run_command(prophetc() + " sweep @pingpong --backend both --progress");
  ASSERT_EQ(result.status, 0) << result.output;
  // The guaranteed final heartbeat: every job accounted for, with the
  // cross-validation worst-error field.
  EXPECT_NE(result.output.find("sweep: "), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("worst rel err"), std::string::npos)
      << result.output;
}

}  // namespace
