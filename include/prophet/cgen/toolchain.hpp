// The host toolchain: compile printed evaluators into shared objects.
//
// One command builder serves every consumer that invokes the C++
// toolchain on generated code — the cgen backend (shared objects) and
// the out-of-process integration tests (executables) — so the compiler
// choice (`$CXX`, default g++) and the sanitizer pass-through
// (`$PROPHET_EXTRA_CXX_FLAGS`, falling back to the flags baked in at
// configure time) cannot drift between them.
//
// compile_shared_object() adds a content-addressed cache: the key is an
// FNV-1a hash over (printed source, full command shape) and the runtime
// the object is built from — the size and modification time
// of every archive it links and of every prelude header.  A model that
// lowers to the same evaluator against the same runtime — across jobs,
// sweeps and processes sharing the cache directory — compiles once and
// every later prepare() is a dlopen of the cached object; a rebuilt
// runtime misses.  The runtime is stat'ed, never read, so a hit reads no
// file contents.  Compiles go to a temporary name and rename into place,
// which is atomic within the cache directory, so concurrent producers of
// the same key are benign.
//
// Failures (no usable compiler, compile errors) throw CgenError with the
// toolchain's output attached; the pipeline surfaces them as stage-
// prefixed job errors ("cgen: ...") without poisoning other jobs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace prophet::guard {
class FaultPlan;
}  // namespace prophet::guard

namespace prophet::cgen {

/// Structured error of the codegen backend: toolchain or loading
/// failures.  The message carries the toolchain output when a
/// compile failed.
class CgenError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The C++ compiler command: `$CXX` when set and non-empty, else "g++".
[[nodiscard]] std::string compiler_command();

/// Extra compile flags: `$PROPHET_EXTRA_CXX_FLAGS` when set (possibly
/// empty), else `fallback` (callers pass their configure-time flags, so
/// sanitized builds compile generated code sanitized too).
[[nodiscard]] std::string extra_cxx_flags(std::string_view fallback);

/// The module archives generated code links against, in link order,
/// under `binary_dir` (the build tree root).  Shared by the cgen driver
/// and the out-of-process integration tests.
[[nodiscard]] std::vector<std::string> runtime_archives(
    std::string_view binary_dir);

/// The project headers every printed evaluator includes — cgen/
/// prelude.hpp and its closure — as paths under `include_dir` (the
/// repository's include/).
[[nodiscard]] std::vector<std::string> prelude_headers(
    std::string_view include_dir);

/// One toolchain invocation, fully specified.
struct CompileSpec {
  std::string source_path;            ///< input .cpp
  std::string output_path;            ///< output .so / executable
  std::string include_dir;            ///< -I directory (repo include/)
  std::vector<std::string> archives;  ///< static archives, link order
  /// True: position-independent shared object with deterministic FP
  /// (-shared -fPIC -ffp-contract=off, the bit-identity contract).
  /// False: plain executable (the integration tests' mode).
  bool shared_object = false;
  std::string optimization = "-O2";   ///< optimization flag
  /// Fallback for extra_cxx_flags() when the env var is unset.
  std::string extra_flags_fallback;
};

/// The full shell command for `spec` (stderr folded into stdout).
[[nodiscard]] std::string compile_command(const CompileSpec& spec);

/// Runs a shell command, collecting its combined output.  Returns the
/// raw wait status (as pclose reports it); 0 means success.
[[nodiscard]] int run_command(const std::string& command,
                              std::string* output);

/// FNV-1a 64-bit content hash (the compile-cache key function; exposed
/// for tests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Where compile_shared_object works and how it is observed.  Defaults
/// resolve from the environment and the configure-time constants.
struct ToolchainOptions {
  /// Cache directory; empty resolves `$PROPHET_CGEN_CACHE`, then
  /// <system temp>/prophet-cgen-cache.
  std::string cache_dir;
  /// Header include root; empty resolves the configure-time source dir.
  std::string include_dir;
  /// Build tree holding the module archives; empty resolves the
  /// configure-time binary dir.
  std::string binary_dir;
  /// Extra-flags fallback; empty resolves the configure-time flags.
  std::string extra_flags_fallback;
  /// When set, every toolchain invocation visits the "cgen-compile"
  /// fault site first (robustness tests inject compile failures here).
  guard::FaultPlan* fault_plan = nullptr;
};

/// What compile_shared_object() produced.
struct CompileOutcome {
  std::string object_path;     ///< the cached shared object
  bool cache_hit = false;      ///< true: no toolchain invocation needed
  double compile_seconds = 0;  ///< toolchain wall time (0 on cache hit)
};

/// Compiles `source` (a printed evaluator TU) into a content-addressed
/// shared object, reusing the cache when possible.  Throws CgenError
/// when no toolchain is usable or the compile fails.
[[nodiscard]] CompileOutcome compile_shared_object(
    const std::string& source, const ToolchainOptions& options = {});

}  // namespace prophet::cgen
