#include "prophet/cgen/toolchain.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "prophet/guard/guard.hpp"

// Configure-time defaults (CMake defines these for prophet_cgen); the
// empty fallbacks keep the TU compilable standalone.
#ifndef PROPHET_SOURCE_DIR
#define PROPHET_SOURCE_DIR ""
#endif
#ifndef PROPHET_BINARY_DIR
#define PROPHET_BINARY_DIR ""
#endif
#ifndef PROPHET_EXTRA_CXX_FLAGS
#define PROPHET_EXTRA_CXX_FLAGS ""
#endif

namespace prophet::cgen {

namespace fs = std::filesystem;

std::string compiler_command() {
  const char* cxx = std::getenv("CXX");
  if (cxx != nullptr && cxx[0] != '\0') {
    return cxx;
  }
  return "g++";
}

std::string extra_cxx_flags(std::string_view fallback) {
  const char* flags = std::getenv("PROPHET_EXTRA_CXX_FLAGS");
  if (flags != nullptr) {
    return flags;
  }
  return std::string(fallback);
}

std::vector<std::string> runtime_archives(std::string_view binary_dir) {
  // Link order matters for single-pass archive resolution: dependents
  // before dependencies.
  static constexpr std::string_view kModules[] = {
      "estimator", "workload", "machine", "obs",
      "trace",     "sim",      "guard",   "xml",
  };
  std::vector<std::string> archives;
  archives.reserve(std::size(kModules));
  for (const auto module : kModules) {
    archives.push_back(std::string(binary_dir) + "/src/" +
                       std::string(module) + "/libprophet_" +
                       std::string(module) + ".a");
  }
  return archives;
}

std::vector<std::string> prelude_headers(std::string_view include_dir) {
  static constexpr std::string_view kHeaders[] = {
      "prophet/cgen/prelude.hpp",
      "prophet/sim/process.hpp",
      "prophet/workload/elements.hpp",
  };
  std::vector<std::string> headers;
  headers.reserve(std::size(kHeaders));
  for (const auto header : kHeaders) {
    headers.push_back(std::string(include_dir) + "/" + std::string(header));
  }
  return headers;
}

std::string compile_command(const CompileSpec& spec) {
  std::ostringstream command;
  command << compiler_command() << " -std=c++20 " << spec.optimization;
  if (spec.shared_object) {
    // -ffp-contract=off: no FMA contraction in the generated evaluator,
    // whose arithmetic must be bit-identical to the VM's (compiled the
    // same way).  -fvisibility=hidden and --exclude-libs keep everything
    // but the explicit extern "C" entry point out of the dynamic symbol
    // table, the unit's own definitions and the runtime archives' alike:
    // calls into the runtime bind inside the object, and dlopen resolves
    // no symbols for them.
    command << " -fPIC -shared -ffp-contract=off -fvisibility=hidden"
            << " -Wl,--exclude-libs,ALL";
  }
  const std::string extra = extra_cxx_flags(spec.extra_flags_fallback);
  if (!extra.empty()) {
    command << " " << extra;
  }
  command << " -I" << spec.include_dir << " " << spec.source_path;
  for (const auto& archive : spec.archives) {
    command << " " << archive;
  }
  command << " -o " << spec.output_path;
  if (spec.shared_object) {
    command << " -ldl";
  }
  command << " 2>&1";
  return command.str();
}

int run_command(const std::string& command, std::string* output) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    if (output != nullptr) {
      *output = "popen failed";
    }
    return -1;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    if (output != nullptr) {
      *output += buffer;
    }
  }
  return pclose(pipe);
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::string default_cache_dir() {
  const char* env = std::getenv("PROPHET_CGEN_CACHE");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  std::error_code ec;
  const fs::path temp = fs::temp_directory_path(ec);
  if (ec) {
    return "prophet-cgen-cache";
  }
  return (temp / "prophet-cgen-cache").string();
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// `path`'s size and modification time, or "missing": what the cache key
/// knows of a runtime file without reading it.
std::string file_stamp(const std::string& path) {
  // One stat(2) per file: a cache-hit prepare stats a dozen of them.
  struct stat info {};
  if (::stat(path.c_str(), &info) != 0) {
    return path + " missing";
  }
  return path + " " + std::to_string(info.st_size) + " " +
         std::to_string(info.st_mtim.tv_sec) + "." +
         std::to_string(info.st_mtim.tv_nsec);
}

/// Trims toolchain output for error messages: enough to diagnose, not
/// the compiler's whole template backtrace.
std::string head_of(const std::string& text, std::size_t max_bytes = 4096) {
  if (text.size() <= max_bytes) {
    return text;
  }
  return text.substr(0, max_bytes) + "\n... (toolchain output truncated)";
}

}  // namespace

CompileOutcome compile_shared_object(const std::string& source,
                                     const ToolchainOptions& options) {
  const std::string include_dir =
      options.include_dir.empty() ? std::string(PROPHET_SOURCE_DIR) + "/include"
                                  : options.include_dir;
  const std::string binary_dir =
      options.binary_dir.empty() ? std::string(PROPHET_BINARY_DIR)
                                 : options.binary_dir;
  const std::string fallback = options.extra_flags_fallback.empty()
                                   ? std::string(PROPHET_EXTRA_CXX_FLAGS)
                                   : options.extra_flags_fallback;
  const std::string cache_dir =
      options.cache_dir.empty() ? default_cache_dir() : options.cache_dir;

  CompileSpec spec;
  spec.include_dir = include_dir;
  spec.archives = runtime_archives(binary_dir);
  spec.shared_object = true;
  spec.extra_flags_fallback = fallback;

  // Cache key: the source, the command that would build it (with the
  // real paths substituted out so the key depends on the command shape,
  // not the yet-unknown hashed file names), and the runtime the object
  // is built from: the archives it links and the headers its source
  // includes, by size and modification time.  The object's code acts on
  // the host's engine, machine model and budget, so it must be built
  // from the very runtime the host runs.
  spec.source_path = "<source>";
  spec.output_path = "<object>";
  const std::string shape = compile_command(spec);
  std::ostringstream key;
  key << shape << "\n";
  for (const auto& archive : spec.archives) {
    key << file_stamp(archive) << "\n";
  }
  for (const auto& header : prelude_headers(include_dir)) {
    key << file_stamp(header) << "\n";
  }
  key << source;
  const std::string hash = hex64(fnv1a64(key.str()));

  std::error_code ec;
  fs::create_directories(cache_dir, ec);
  const fs::path base = fs::path(cache_dir) / ("prophet_cgen_" + hash);
  const fs::path source_path = base.string() + ".cpp";
  const fs::path object_path = base.string() + ".so";

  CompileOutcome outcome;
  outcome.object_path = object_path.string();
  if (fs::exists(object_path, ec)) {
    outcome.cache_hit = true;
    return outcome;
  }

  if (options.fault_plan != nullptr) {
    options.fault_plan->visit("cgen-compile");
  }

  {
    std::ofstream out(source_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw CgenError("cannot write generated source " +
                      source_path.string());
    }
    out << source;
  }

  // Compile to a process-unique temporary, then rename into place:
  // rename within one directory is atomic, so a concurrent producer of
  // the same key leaves a valid object either way.
  const fs::path temp_object =
      base.string() + ".tmp" +
      std::to_string(static_cast<unsigned long>(::getpid())) + ".so";
  spec.source_path = source_path.string();
  spec.output_path = temp_object.string();
  const std::string command = compile_command(spec);

  const auto started = std::chrono::steady_clock::now();
  std::string output;
  const int status = run_command(command, &output);
  outcome.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (status != 0) {
    fs::remove(temp_object, ec);
    if (output.find("not found") != std::string::npos ||
        output.find("No such file") != std::string::npos) {
      throw CgenError("no usable C++ toolchain ('" + compiler_command() +
                      "'): " + head_of(output));
    }
    throw CgenError("generated evaluator failed to compile (status " +
                    std::to_string(status) + "):\n" + head_of(output));
  }
  fs::rename(temp_object, object_path, ec);
  if (ec) {
    fs::remove(temp_object, ec);
    // A concurrent producer may have won the rename; the object is
    // valid either way as long as it exists now.
    if (!fs::exists(object_path, ec)) {
      throw CgenError("cannot install compiled evaluator " +
                      object_path.string());
    }
  }
  return outcome;
}

}  // namespace prophet::cgen
