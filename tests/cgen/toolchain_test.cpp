// The host-toolchain driver: command construction (the one builder the
// cgen backend and the out-of-process integration tests share), the
// $CXX / $PROPHET_EXTRA_CXX_FLAGS environment contract, the FNV-1a
// cache key function, the content-addressed compile cache (keyed on the
// runtime too), and the structured failure paths (compile errors,
// injected faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prophet/cgen/toolchain.hpp"
#include "prophet/guard/guard.hpp"

namespace cgen = prophet::cgen;

namespace {

/// Scoped environment override: sets (or, with nullptr, unsets) a
/// variable for the test body and restores the previous state after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
      had_value_ = true;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

/// A guaranteed-cold cache directory: gtest's TempDir() persists across
/// runs, so a fixed name would stay warm from the previous invocation.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Toolchain, CompilerCommandHonorsCxx) {
  {
    const ScopedEnv cxx("CXX", "my-custom-c++");
    EXPECT_EQ(cgen::compiler_command(), "my-custom-c++");
  }
  {
    const ScopedEnv cxx("CXX", nullptr);
    EXPECT_EQ(cgen::compiler_command(), "g++");
  }
  {
    // Set-but-empty must not produce an empty command.
    const ScopedEnv cxx("CXX", "");
    EXPECT_EQ(cgen::compiler_command(), "g++");
  }
}

TEST(Toolchain, ExtraFlagsPreferTheEnvironment) {
  {
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", "-g -Wall");
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"), "-g -Wall");
  }
  {
    // Set-but-empty deliberately clears the configure-time fallback —
    // how an unsanitized toolchain builds against a sanitized tree.
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", "");
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"), "");
  }
  {
    const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", nullptr);
    EXPECT_EQ(cgen::extra_cxx_flags("-fsanitize=address"),
              "-fsanitize=address");
  }
}

TEST(Toolchain, RuntimeArchivesAreInLinkOrder) {
  const auto archives = cgen::runtime_archives("/build");
  ASSERT_EQ(archives.size(), 8u);
  // Dependents precede dependencies: the estimator umbrella first, the
  // leaf modules (guard, xml) last.
  EXPECT_EQ(archives.front(), "/build/src/estimator/libprophet_estimator.a");
  EXPECT_EQ(archives.back(), "/build/src/xml/libprophet_xml.a");
  for (const auto& archive : archives) {
    EXPECT_EQ(archive.rfind("/build/src/", 0), 0u) << archive;
  }
}

TEST(Toolchain, CompileCommandShapes) {
  const ScopedEnv cxx("CXX", nullptr);
  const ScopedEnv flags("PROPHET_EXTRA_CXX_FLAGS", nullptr);
  cgen::CompileSpec spec;
  spec.source_path = "/tmp/in.cpp";
  spec.output_path = "/tmp/out";
  spec.include_dir = "/repo/include";
  spec.archives = {"/build/a.a", "/build/b.a"};
  spec.extra_flags_fallback = "-fno-omit-frame-pointer";

  const std::string executable = cgen::compile_command(spec);
  EXPECT_NE(executable.find("g++ -std=c++20 -O2"), std::string::npos)
      << executable;
  EXPECT_NE(executable.find("-fno-omit-frame-pointer"), std::string::npos);
  EXPECT_NE(executable.find("-I/repo/include"), std::string::npos);
  EXPECT_NE(executable.find("/build/a.a /build/b.a"), std::string::npos);
  EXPECT_EQ(executable.find("-shared"), std::string::npos);
  // stderr folds into stdout so failures carry the compiler's message.
  EXPECT_EQ(executable.rfind("2>&1"), executable.size() - 4);

  spec.shared_object = true;
  spec.optimization = "-O1";
  const std::string shared = cgen::compile_command(spec);
  // The bit-identity contract: position-independent, no FMA contraction,
  // and only the explicit entry points in the dynamic symbol table.
  EXPECT_NE(shared.find("-O1"), std::string::npos);
  EXPECT_NE(shared.find("-fPIC -shared -ffp-contract=off -fvisibility=hidden"),
            std::string::npos)
      << shared;
}

TEST(Toolchain, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors: the offset basis for "", and "a".
  EXPECT_EQ(cgen::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(cgen::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  // Content-addressing needs distinct keys for distinct sources.
  EXPECT_NE(cgen::fnv1a64("int x;"), cgen::fnv1a64("int y;"));
}

TEST(Toolchain, CompileCacheHitsOnTheSecondBuild) {
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-hit-test");
  const std::string source =
      "extern \"C\" int prophet_cgen_cache_probe() { return 7; }\n";

  const auto first = cgen::compile_shared_object(source, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.compile_seconds, 0.0);
  EXPECT_TRUE(std::ifstream(first.object_path).good()) << first.object_path;

  const auto second = cgen::compile_shared_object(source, options);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.object_path, first.object_path);
  EXPECT_EQ(second.compile_seconds, 0.0);

  // A different source must land on a different cached object.
  const auto other = cgen::compile_shared_object(source + "// v2\n", options);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_NE(other.object_path, first.object_path);
}

TEST(Toolchain, RebuiltRuntimeMissesTheCache) {
  // A build tree of copied archives the probe links against: rewriting
  // one (as a rebuild of the runtime does) must miss, or a warm cache
  // would serve an evaluator linked against the old runtime.
  namespace fs = std::filesystem;
  const std::string tree = fresh_cache_dir("cgen-runtime-tree");
  const auto originals = cgen::runtime_archives(PROPHET_BINARY_DIR);
  const auto copies = cgen::runtime_archives(tree);
  for (std::size_t i = 0; i < copies.size(); ++i) {
    fs::create_directories(fs::path(copies[i]).parent_path());
    fs::copy_file(originals[i], copies[i]);
  }
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-runtime-test");
  options.binary_dir = tree;
  const std::string source =
      "extern \"C\" int prophet_cgen_runtime_probe() { return 3; }\n";

  const auto first = cgen::compile_shared_object(source, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(cgen::compile_shared_object(source, options).cache_hit);

  fs::copy_file(originals.front(), copies.back(),
                fs::copy_options::overwrite_existing);
  const auto rebuilt = cgen::compile_shared_object(source, options);
  EXPECT_FALSE(rebuilt.cache_hit);
  EXPECT_NE(rebuilt.object_path, first.object_path);
}

TEST(Toolchain, PreludeHeadersAreThePreludesClosure) {
  // The cache key stats prelude_headers(); it must name every project
  // header the prelude includes, as the compiler resolves them.
  const std::string include = std::string(PROPHET_SOURCE_DIR) + "/include";
  std::string output;
  ASSERT_EQ(cgen::run_command(cgen::compiler_command() +
                                  " -std=c++20 -MM -I" + include + " " +
                                  include + "/prophet/cgen/prelude.hpp",
                              &output),
            0)
      << output;
  std::vector<std::string> listed;
  std::istringstream words(output);
  for (std::string word; words >> word;) {
    if (word.rfind(include, 0) == 0) {
      listed.push_back(word);
    }
  }
  auto expected = cgen::prelude_headers(include);
  std::sort(listed.begin(), listed.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(listed, expected) << output;
}

TEST(Toolchain, CompileFailureThrowsWithToolchainOutput) {
  cgen::ToolchainOptions options;
  options.cache_dir = ::testing::TempDir() + "/cgen-cache-fail-test";
  try {
    (void)cgen::compile_shared_object("int broken(\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    // The compiler's diagnostics ride along for the job-error column.
    EXPECT_NE(std::string(error.what()).find("error"), std::string::npos)
        << error.what();
  }
}

TEST(Toolchain, MissingCompilerDegradesToStructuredError) {
  const ScopedEnv cxx("CXX", "prophet-no-such-compiler-xyzzy");
  cgen::ToolchainOptions options;
  options.cache_dir = ::testing::TempDir() + "/cgen-cache-nocc-test";
  try {
    (void)cgen::compile_shared_object("int ok = 1;\n", options);
    FAIL() << "expected CgenError";
  } catch (const cgen::CgenError& error) {
    EXPECT_NE(std::string(error.what()).find("no usable C++ toolchain"),
              std::string::npos)
        << error.what();
  }
}

TEST(Toolchain, FaultSiteFiresBeforeTheCompile) {
  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("cgen-compile");
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-fault-test");
  options.fault_plan = &plan;
  try {
    (void)cgen::compile_shared_object("int faulted = 1;\n", options);
    FAIL() << "expected FaultInjected";
  } catch (const prophet::guard::FaultInjected& fault) {
    EXPECT_EQ(fault.site(), "cgen-compile");
  }
}

TEST(Toolchain, CacheHitSkipsTheFaultSite) {
  // Warm the cache without a plan, then inject: a hit never invokes the
  // toolchain, so the fault site must not be visited.
  cgen::ToolchainOptions options;
  options.cache_dir = fresh_cache_dir("cgen-cache-fault-skip-test");
  const std::string source = "extern \"C\" int prophet_cgen_warm() "
                             "{ return 1; }\n";
  const auto warm = cgen::compile_shared_object(source, options);
  ASSERT_FALSE(warm.cache_hit);

  prophet::guard::FaultPlan plan =
      prophet::guard::FaultPlan::parse("cgen-compile");
  options.fault_plan = &plan;
  const auto hit = cgen::compile_shared_object(source, options);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.object_path, warm.object_path);
}

}  // namespace
