// prophetc <-> registry parity: the CLI's help text, `models` listing and
// "@" resolution must all come from models::Registry::builtin() — one
// source of truth, asserted out-of-process against the real binary.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "prophet/models/registry.hpp"

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

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(ProphetcCli, ModelsNamesMatchesRegistry) {
  const auto result = run_command(prophetc() + " models --names");
  ASSERT_EQ(result.status, 0) << result.output;
  EXPECT_EQ(lines_of(result.output),
            prophet::models::Registry::builtin().names());
}

TEST(ProphetcCli, ModelsListingCoversEveryEntry) {
  const auto result = run_command(prophetc() + " models");
  ASSERT_EQ(result.status, 0) << result.output;
  for (const auto& entry : prophet::models::Registry::builtin().entries()) {
    if (entry.hidden) {
      // Hidden diagnostics (e.g. the runaway @spin) resolve by exact
      // reference but stay out of the catalogue.
      EXPECT_EQ(result.output.find("@" + entry.name), std::string::npos)
          << "listing leaks hidden @" << entry.name;
      continue;
    }
    EXPECT_NE(result.output.find("@" + entry.name), std::string::npos)
        << "listing misses @" << entry.name;
    EXPECT_NE(result.output.find(entry.default_grid), std::string::npos)
        << "listing misses the grid of @" << entry.name;
  }
}

TEST(ProphetcCli, UsageEnumeratesRegistryModels) {
  // No arguments -> usage on stderr, which must carry the registry's own
  // available() list (never a hardcoded copy).
  const auto result = run_command(prophetc());
  EXPECT_NE(result.status, 0);
  EXPECT_NE(
      result.output.find(prophet::models::Registry::builtin().available()),
      std::string::npos)
      << result.output;
}

TEST(ProphetcCli, UnknownModelErrorEnumeratesRegistryModels) {
  const auto result = run_command(prophetc() + " sweep @doesnotexist");
  EXPECT_NE(result.status, 0);
  EXPECT_NE(
      result.output.find(prophet::models::Registry::builtin().available()),
      std::string::npos)
      << result.output;
}

TEST(ProphetcCli, ModelsGridPrintsTheDefaultGrid) {
  for (const auto& entry : prophet::models::Registry::builtin().entries()) {
    const auto result =
        run_command(prophetc() + " models --grid '@" + entry.name + "'");
    ASSERT_EQ(result.status, 0) << result.output;
    EXPECT_EQ(result.output, entry.default_grid + "\n") << entry.name;
  }
}

TEST(ProphetcCli, KnobReferenceSweeps) {
  const auto result = run_command(
      prophetc() +
      " sweep '@kernel6(n=8, m=1)' --grid np=1,2 --backend analytic");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("ok 2 / failed 0"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, SweepExpandsGridsOverRegistryDefaults) {
  // Without --sp, a reference's grid uses the entry's default params:
  // @pingpong needs np = 2, and "nodes=1,2" does not set it.
  const auto result = run_command(
      prophetc() + " sweep @pingpong --grid nodes=1,2 --backend analytic");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("ok 2 / failed 0"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("np=2"), std::string::npos) << result.output;
}

TEST(ProphetcCli, EstimateResolvesRegistryDefaults) {
  // @pingpong needs np = 2; the registry's default params supply it.
  const auto result = run_command(prophetc() + " estimate @pingpong");
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("processes:      2"), std::string::npos)
      << result.output;
}

TEST(ProphetcCli, EstimateTimingsReportsExpressionCompileSplit) {
  // Every backend reports the prepare/evaluate split with the
  // expression-compile share of prepare, plus a lowering-counts line
  // derived from the shared lower::ModelProgram.  Because the counts
  // come from one lowering layer, every backend mode must report the
  // same "lowering ..." suffix for the same model.
  std::set<std::string> lowering_counts;
  for (const char* backend : {"sim", "analytic", "both"}) {
    const auto result = run_command(prophetc() + " estimate @kernel6 " +
                                    "--backend " + backend + " --timings");
    ASSERT_EQ(result.status, 0) << result.output;
    EXPECT_NE(result.output.find("-- timings --"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("expr compile"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("programs)"), std::string::npos)
        << result.output;
    if (std::string(backend) != "sim") {
      EXPECT_NE(result.output.find("analytic: prepare"), std::string::npos)
          << result.output;
      EXPECT_NE(result.output.find("analytic: lowering"), std::string::npos)
          << result.output;
    }
    if (std::string(backend) != "analytic") {
      EXPECT_NE(result.output.find("sim: prepare"), std::string::npos)
          << result.output;
      EXPECT_NE(result.output.find("sim: lowering"), std::string::npos)
          << result.output;
    }
    for (const auto& line : lines_of(result.output)) {
      const auto at = line.find(": lowering ");
      if (at != std::string::npos) {
        lowering_counts.insert(line.substr(at));
      }
    }
  }
  // sim, analytic and both produced four lowering lines between them;
  // all must carry identical counts (nodes, slots, bytecode bytes).
  EXPECT_EQ(lowering_counts.size(), 1u)
      << "backends disagree on lowering counts";
  // The timed sim path must stay bit-identical to the default path.
  const auto timed = run_command(prophetc() + " estimate @kernel6 --timings");
  const auto plain = run_command(prophetc() + " estimate @kernel6");
  ASSERT_EQ(timed.status, 0) << timed.output;
  const auto timed_lines = lines_of(timed.output);
  ASSERT_FALSE(timed_lines.empty());
  EXPECT_NE(timed.output.find(lines_of(plain.output)[0]), std::string::npos)
      << "predicted time differs between --timings and default paths:\n"
      << timed.output << "\nvs\n"
      << plain.output;
}

TEST(ProphetcCli, TraceFollowsTheSimulatorReference) {
  // The simulator is the reference of every selection that includes it,
  // so --trace and --gantt work there and record its own timeline.
  const std::string sim_tf = ::testing::TempDir() + "/trace_sim.tf";
  const std::string both_tf = ::testing::TempDir() + "/trace_both.tf";
  const auto sim = run_command(prophetc() +
                               " estimate @kernel6 --backend sim --trace " +
                               sim_tf);
  ASSERT_EQ(sim.status, 0) << sim.output;
  const auto both = run_command(
      prophetc() + " estimate @kernel6 --backend both --trace " + both_tf +
      " --gantt");
  ASSERT_EQ(both.status, 0) << both.output;
  const std::string expected = slurp(sim_tf);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(slurp(both_tf), expected);
  // Without the simulator there is no timeline to write.
  const auto no_sim = run_command(
      prophetc() + " estimate @kernel6 --backend analytic+codegen --gantt");
  ASSERT_TRUE(WIFEXITED(no_sim.status)) << no_sim.output;
  EXPECT_EQ(WEXITSTATUS(no_sim.status), 2) << no_sim.output;
}

}  // namespace
