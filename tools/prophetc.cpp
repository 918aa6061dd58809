// prophetc — command-line front end to the Performance Prophet pipeline.
//
//   prophetc check <model> [--mcf <mcf.xml>]
//   prophetc generate <model> [-o out.cpp] [--main]
//   prophetc estimate <model> [--sp <sp.xml>] [--np N] [--nodes N]
//                     [--ppn N] [--nt N] [--backend ENGINES]
//                     [--trace out.tf] [--gantt] [--timings]
//                     [--metrics out.json] [--trace-json out.json]
//   prophetc outline <model>
//   prophetc models [--names] [--grid @name]
//   prophetc sweep <model>... [--grid SPEC] [--sp <sp.xml>]
//                  [--backend ENGINES] [--max-rel-error X]
//                  [--threads N] [--batch-lanes N] [--csv out.csv]
//                  [--no-check] [--metrics out.json] [--trace-json out.json]
//                  [--progress]
//                  [--job-timeout S] [--deadline S] [--limit-sim-events N]
//                  [--limit-vm-instructions N] [--limit-replay-events N]
//                  [--limit-loop-trips N] [--inject-faults SPEC]
//                  [--fault-seed S]
//   prophetc --version
//
// <model> is an XMI file (see prophet/xmi) or a registry reference
// "@name" / "@name(knob=value, ...)" resolved against the built-in
// workload library — `prophetc models` lists it; --sp loads the SP
// element of Fig. 2 from XML, the individual flags override it.  sweep
// expands --grid cross-products like "np=1..8:*2 nodes=1,2" over every
// input model; without --sp, a registry reference's grid expands over
// the entry's default system parameters (estimate does the same).
// --backend selects the estimation engines as a +-joined set, in any
// order, of sim (the discrete-event simulator, the default), analytic
// (the closed-form estimator) and codegen (prepare emits specialized C++
// from the shared lowering, builds it with the host toolchain and
// dlopen's it); both (sim+analytic) and all name the common sets.  A set
// of several engines cross-validates: the reference is sim when
// selected, else codegen, else analytic, and every other engine reports
// its relative error against it (--max-rel-error fails a sweep whose
// worst error exceeds the bound).  Sweeps compile each model once
// (check, lower, prepare; XMI files are parsed once, when registered)
// and evaluate all its scenarios against the cached result.
// --batch-lanes sets the sweep's lane width: same-model scenario runs
// are grouped into chunks of N and evaluated through the backends'
// batched path (0, the default, picks the width automatically; 1
// disables batching).  Batched and scalar sweeps are bit-identical on
// every deterministic CSV column.  estimate --timings
// reports the prepare/evaluate split, including the time prepare spent
// compiling cost expressions to bytecode.
//
// Observability: --metrics exports the run's metric registry (engine
// counters, lowering stats, host timers) as prophet-metrics-1 JSON;
// --trace-json exports a Chrome trace-event file (load in Perfetto or
// chrome://tracing) with host spans on worker lanes plus the simulated
// timeline mapped to one pid per rank; sweep --progress prints a
// heartbeat to stderr.  None of it changes predictions: instrumented
// and uninstrumented runs are bit-identical.
//
// Guardrails: --job-timeout bounds each job's wall clock, --deadline the
// whole sweep, and the --limit-* flags the cooperative evaluation loops
// (DES events, expression-VM instructions, analytic replay events, loop
// trips).  A job that trips a bound is marked failed — the CSV's
// tripped_limit column names it — while the rest of the sweep completes;
// Ctrl-C cancels cooperatively, draining workers and still writing the
// partial CSV, metrics and the final progress line.  Unlimited runs pay
// nothing and stay bit-identical.  --inject-faults "site[@N|%P], ..."
// deterministically fails pipeline stages (parse for XMI inputs, at
// registration; check, lower, prepare, estimate; "cancel@E" arms a
// mid-simulation cancellation at event E) to exercise error paths;
// --fault-seed selects the probabilistic-rule stream.
//
// Every parse error prints usage and exits non-zero; flags are accepted
// as `--flag value` or `--flag=value`.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "prophet/cgen/backend.hpp"
#include "prophet/estimator/backend.hpp"
#include "prophet/guard/guard.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/pipeline/batch.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/prophet.hpp"
#include "prophet/traverse/traverse.hpp"
#include "prophet/xml/parser.hpp"
#include "prophet/xmi/xmi.hpp"

#ifndef PROPHET_VERSION
#define PROPHET_VERSION "unknown"
#endif

namespace {

namespace estimator = prophet::estimator;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  prophetc check <model> [--mcf <mcf.xml>]\n"
      "  prophetc generate <model> [-o out.cpp] [--main]\n"
      "  prophetc estimate <model> [--sp <sp.xml>] [--np N] "
      "[--nodes N] [--ppn N] [--nt N] [--backend ENGINES] "
      "[--trace out.tf] [--gantt] [--timings] [--metrics out.json] "
      "[--trace-json out.json]\n"
      "  prophetc outline <model>\n"
      "  prophetc models [--names] [--grid @name]\n"
      "  prophetc sweep <model>... [--grid SPEC] [--sp <sp.xml>] "
      "[--backend ENGINES] [--max-rel-error X] [--threads N] "
      "[--batch-lanes N] [--csv out.csv] [--no-check] "
      "[--metrics out.json] [--trace-json out.json] [--progress] "
      "[--job-timeout S] [--deadline S] [--limit-sim-events N] "
      "[--limit-vm-instructions N] [--limit-replay-events N] "
      "[--limit-loop-trips N] [--inject-faults SPEC] [--fault-seed S]\n"
      "  prophetc --version\n"
      "\n"
      "<model> is an XMI file or a built-in reference "
      "\"@name(knob=value, ...)\".\n"
      "ENGINES is a +-joined set of sim, analytic and codegen (or both, "
      "all); the reference is sim if selected, else codegen, else "
      "analytic.\n"
      "built-in models: %s\n",
      prophet::models::Registry::builtin().available().c_str());
  return 2;
}

[[nodiscard]] int parse_error(const std::string& message) {
  std::fprintf(stderr, "prophetc: %s\n", message.c_str());
  return usage();
}

/// Splits "--flag=value" tokens so every command loop only sees the
/// `--flag value` shape.
std::vector<std::string> normalize(const std::vector<std::string>& args) {
  std::vector<std::string> out;
  out.reserve(args.size());
  for (const auto& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        out.push_back(arg.substr(0, eq));
        out.push_back(arg.substr(eq + 1));
        continue;
      }
    }
    out.push_back(arg);
  }
  return out;
}

/// The value of flag `args[i]`, or nullopt (caller reports the error).
/// An empty value (e.g. a bare `--csv=`) counts as missing.
std::optional<std::string> flag_value(const std::vector<std::string>& args,
                                      std::size_t& i) {
  if (i + 1 >= args.size() || args[i + 1].empty()) {
    return std::nullopt;
  }
  return args[++i];
}

std::optional<int> parse_int(const std::string& text) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < -2147483647L ||
      value > 2147483647L) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return value;
}

/// Common handler for `--flag <int>` updating `target`; returns false on
/// a reported parse error.
bool take_int(const std::vector<std::string>& args, std::size_t& i,
              int& target, std::string* error) {
  const std::string flag = args[i];
  const auto value = flag_value(args, i);
  if (!value) {
    *error = flag + " requires a value";
    return false;
  }
  const auto parsed = parse_int(*value);
  if (!parsed) {
    *error = flag + ": '" + *value + "' is not an integer";
    return false;
  }
  target = *parsed;
  return true;
}

/// Common handler for `--flag <count>` updating a 64-bit unsigned
/// `target`; returns false on a reported parse error.
bool take_uint64(const std::vector<std::string>& args, std::size_t& i,
                 std::uint64_t& target, std::string* error) {
  const std::string flag = args[i];
  const auto value = flag_value(args, i);
  if (!value) {
    *error = flag + " requires a value";
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value->c_str(), &end, 10);
  // strtoull wraps negative input instead of failing; reject it.
  if (end == value->c_str() || *end != '\0' || errno == ERANGE ||
      value->find('-') != std::string::npos) {
    *error = flag + ": '" + *value + "' is not a 64-bit unsigned integer";
    return false;
  }
  target = parsed;
  return true;
}

/// Common handler for `--flag <seconds>` updating `target`; requires a
/// strictly positive value, returns false on a reported parse error.
bool take_seconds(const std::vector<std::string>& args, std::size_t& i,
                  double& target, std::string* error) {
  const std::string flag = args[i];
  const auto value = flag_value(args, i);
  if (!value) {
    *error = flag + " requires a value";
    return false;
  }
  const auto parsed = parse_double(*value);
  if (!parsed || !(*parsed > 0)) {
    *error = flag + ": '" + *value + "' is not a positive number of seconds";
    return false;
  }
  target = *parsed;
  return true;
}

/// Common handler for `--backend <engines>` updating `target`; returns
/// false on a reported parse error.
bool take_backend(const std::vector<std::string>& args, std::size_t& i,
                  estimator::BackendKind& target, std::string* error) {
  const auto value = flag_value(args, i);
  if (!value) {
    *error = "--backend requires a value";
    return false;
  }
  const auto kind = estimator::backend_from_string(*value);
  if (!kind) {
    *error = "--backend: unknown backend '" + *value +
             "' (expected a +-joined set of sim, analytic and codegen, or "
             "both or all)";
    return false;
  }
  target = *kind;
  return true;
}

/// Sweep-scoped cancellation target of the SIGINT handler.  The handler
/// only flips the budget's atomic cancel flag (async-signal-safe); the
/// workers observe it at their next check site and the sweep drains,
/// still flushing the partial CSV, metrics and final progress callback.
std::atomic<prophet::guard::Budget*> g_interrupt_budget{nullptr};

void handle_interrupt(int /*signum*/) {
  if (auto* budget = g_interrupt_budget.load(std::memory_order_relaxed)) {
    budget->cancel();
  }
}

int cmd_check(const prophet::Prophet& prophet,
              const std::vector<std::string>& args) {
  prophet::check::ModelChecker checker;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--mcf") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--mcf requires a value");
      }
      checker.configure(prophet::xml::parse_file(*value));
    } else {
      return parse_error("check: unexpected argument '" + args[i] + "'");
    }
  }
  const auto diagnostics = checker.check(prophet.model());
  std::printf("%s", diagnostics.to_string().c_str());
  std::printf("%zu error(s), %zu warning(s)\n", diagnostics.error_count(),
              diagnostics.warning_count());
  return diagnostics.ok() ? 0 : 1;
}

int cmd_generate(const prophet::Prophet& prophet,
                 const std::vector<std::string>& args) {
  prophet::codegen::TransformOptions options;
  std::string output;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("-o requires a value");
      }
      output = *value;
    } else if (args[i] == "--main") {
      options.emit_main = true;
    } else {
      return parse_error("generate: unexpected argument '" + args[i] + "'");
    }
  }
  const std::string cpp = prophet.transform(options);
  if (output.empty()) {
    std::printf("%s", cpp.c_str());
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", output.c_str());
      return 1;
    }
    out << cpp;
    std::printf("wrote %s (%zu bytes)\n", output.c_str(), cpp.size());
  }
  return 0;
}

/// Seconds since `start` (used by `estimate --timings`).
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Two `--timings` lines per backend, formatted from the metric
/// registry — the same cells `--metrics` exports, so the printed numbers
/// and the JSON document cannot disagree.  The lowering counts are the
/// shared lower::ModelProgram's; every backend consuming one lowering
/// reports identical counts on its second line.
std::string timings_line(const prophet::obs::Registry& registry,
                         std::string_view backend) {
  const std::string prefix = "host." + std::string(backend);
  char line[288];
  std::snprintf(line, sizeof(line),
                "%s: prepare %.6f s (expr compile %.6f s, %zu programs), "
                "estimate %.6f s\n"
                "%s: lowering %zu nodes, %zu slots, %zu bytecode bytes\n",
                std::string(backend).c_str(),
                registry.timer_seconds(prefix + ".prepare_seconds"),
                registry.timer_seconds("lower.expr_compile_seconds"),
                static_cast<std::size_t>(
                    registry.counter_value("lower.expr_programs")),
                registry.timer_seconds(prefix + ".estimate_seconds"),
                std::string(backend).c_str(),
                static_cast<std::size_t>(
                    registry.counter_value("lower.nodes")),
                static_cast<std::size_t>(
                    registry.counter_value("lower.slots")),
                static_cast<std::size_t>(
                    registry.counter_value("lower.bytecode_bytes")));
  return line;
}

/// Writes `text` to `path`; reports and returns false on I/O failure.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

int cmd_estimate(const prophet::Prophet& prophet,
                 const std::vector<std::string>& args,
                 prophet::machine::SystemParameters params,
                 const std::string& model_name,
                 std::chrono::steady_clock::time_point epoch,
                 double load_seconds) {
  std::string trace_path;
  std::string metrics_path;
  std::string trace_json_path;
  bool gantt = false;
  bool timings = false;
  auto backend = estimator::BackendKind::Simulation;
  std::string error;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--sp") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--sp requires a value");
      }
      params = prophet::machine::SystemParameters::load(*value);
    } else if (args[i] == "--np") {
      if (!take_int(args, i, params.processes, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--nodes") {
      if (!take_int(args, i, params.nodes, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--ppn") {
      if (!take_int(args, i, params.processors_per_node, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--nt") {
      if (!take_int(args, i, params.threads_per_process, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--backend") {
      if (!take_backend(args, i, backend, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--trace") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--trace requires a value");
      }
      trace_path = *value;
    } else if (args[i] == "--gantt") {
      gantt = true;
    } else if (args[i] == "--timings") {
      timings = true;
    } else if (args[i] == "--metrics") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--metrics requires a value");
      }
      metrics_path = *value;
    } else if (args[i] == "--trace-json") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--trace-json requires a value");
      }
      trace_json_path = *value;
    } else {
      return parse_error("estimate: unexpected argument '" + args[i] + "'");
    }
  }

  // The selected engines, reference first.  The simulator, when
  // selected, is the reference and owns the event trace.
  const auto engines = estimator::engines(backend);
  const bool simulates =
      engines.front() == estimator::BackendKind::Simulation;
  if (!simulates && (!trace_path.empty() || gantt)) {
    return parse_error(
        "--trace/--gantt need a simulation (add sim to --backend)");
  }

  // One registry backs --metrics and --timings (the printed numbers are
  // the exported ones); one trace log backs --trace-json.  Neither feeds
  // back into the engines: predictions are bit-identical either way.
  prophet::obs::Registry registry;
  prophet::obs::TraceLog trace_log(epoch);
  prophet::obs::Registry* metrics =
      (!metrics_path.empty() || timings) ? &registry : nullptr;
  prophet::obs::TraceLog* log =
      trace_json_path.empty() ? nullptr : &trace_log;
  const bool want_sim_timeline = log != nullptr && simulates;
  if (log != nullptr) {
    trace_log.name_process(0, "prophetc estimate (host)");
    trace_log.name_thread(0, 0, "main");
    trace_log.complete(0.0, load_seconds * 1e6, 0, 0, "parse " + model_name,
                       "host.parse");
  }

  const auto write_outputs = [&]() -> bool {
    bool ok = true;
    if (!metrics_path.empty()) {
      ok = write_file(metrics_path, registry.to_json()) && ok;
      if (ok) {
        std::printf("metrics written to %s (%zu cells)\n",
                    metrics_path.c_str(), registry.size());
      }
    }
    if (!trace_json_path.empty()) {
      ok = write_file(trace_json_path, trace_log.to_chrome_json()) && ok;
      if (ok) {
        std::printf("trace json written to %s (%zu spans)\n",
                    trace_json_path.c_str(), trace_log.span_count());
      }
    }
    return ok;
  };

  std::string timing_report;

  // The engines evaluate reference-first: the reference prints the full
  // summary, every other engine its relative error against it.  All
  // consume one shared lowering — engines only differ in how they
  // evaluate the lower::ModelProgram — so `--timings` reports one
  // expression-compile cost and identical lowering counts per engine.
  prophet::lower::ModelProgramPtr program;
  {
    const prophet::obs::TraceLog::HostSpan span(log, 0, 0,
                                                "lower " + model_name,
                                                "host.lower");
    program = prophet::lower::lower(prophet.model());
  }
  prophet::lower::fold(registry, program->stats());

  estimator::PredictionReport report;  // the reference engine's
  std::string candidate_lines;
  for (const estimator::BackendKind engine : engines) {
    const bool is_reference = engine == engines.front();
    const std::string name(estimator::to_string(engine));
    const auto factory = prophet::cgen::make_backend(engine);
    // Route through the Backend prepare()/estimate() split
    // (bit-identical to the one-shot path per the PreparedModel
    // contract) so the prepare cost — expression compilation, and for
    // codegen the toolchain run — is measurable.
    const auto prepare_started = std::chrono::steady_clock::now();
    std::unique_ptr<estimator::PreparedModel> prepared;
    {
      const prophet::obs::TraceLog::HostSpan span(
          log, 0, 0, "prepare " + name, "host.prepare");
      prepared = factory->prepare(program);
    }
    registry.timer("host." + name + ".prepare_seconds")
        .add_seconds(seconds_since(prepare_started));
    if (const auto* codegen =
            dynamic_cast<const prophet::cgen::CodegenPrepared*>(
                prepared.get())) {
      registry.timer("codegen.prepare_seconds")
          .add_seconds(codegen->prepare_seconds());
      registry.counter("codegen.cache_hits")
          .add(codegen->cache_hit() ? 1 : 0);
    }
    estimator::EstimationOptions options;
    options.metrics = metrics;
    options.collect_trace =
        engine == estimator::BackendKind::Simulation &&
        (!trace_path.empty() || gantt || want_sim_timeline);
    options.collect_machine_report = is_reference;
    const auto estimate_started = std::chrono::steady_clock::now();
    estimator::PredictionReport engine_report;
    {
      const prophet::obs::TraceLog::HostSpan span(
          log, 0, 0, "estimate " + name, "host.estimate");
      engine_report = prepared->estimate(params, options);
    }
    registry.timer("host." + name + ".estimate_seconds")
        .add_seconds(seconds_since(estimate_started));
    if (timings) {
      timing_report += timings_line(registry, name);
    }
    if (is_reference) {
      report = std::move(engine_report);
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s time:  %.12f s (relative error %.6f)\n", name.c_str(),
                  engine_report.predicted_time,
                  estimator::relative_error(engine_report.predicted_time,
                                            report.predicted_time));
    candidate_lines += line;
  }
  std::printf("%s", report.summary().c_str());
  std::printf("%s", candidate_lines.c_str());
  if (!timing_report.empty()) {
    std::printf("-- timings --\n%s", timing_report.c_str());
  }
  if (!trace_path.empty()) {
    report.trace.save(trace_path);
    std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                report.trace.size());
  }
  if (gantt) {
    std::printf("%s", report.trace.gantt().c_str());
  }
  if (want_sim_timeline) {
    trace_log.append_simulated(report.trace, 1000, model_name);
  }
  return write_outputs() ? 0 : 1;
}

// Registers one sweep input — an XMI file path or a registry reference
// ("@name", "@name(knob=value, ...)") — and returns its model index.
// The registry reports unknown models/knobs with the valid alternatives.
int add_sweep_model(prophet::pipeline::BatchRunner& runner,
                    const std::string& input) {
  if (prophet::models::is_reference(input)) {
    return runner.add_model_reference(input);
  }
  return runner.add_model_file(input);
}

// Loads an XMI file or resolves a registry reference.  For references,
// `base_params` (when non-null) receives the registry entry's default
// system parameters (e.g. @pingpong wants np = 2).
prophet::Prophet load_model(const std::string& input,
                            prophet::machine::SystemParameters* base_params) {
  if (prophet::models::is_reference(input)) {
    const auto reference = prophet::models::parse_reference(input);
    const auto& entry =
        prophet::models::Registry::builtin().at(reference.name);
    if (base_params != nullptr) {
      *base_params = entry.default_params;
    }
    return prophet::Prophet(entry.make(reference.knobs));
  }
  return prophet::Prophet::load(input);
}

int cmd_models(const std::vector<std::string>& args) {
  const auto& registry = prophet::models::Registry::builtin();
  bool names_only = false;
  std::string grid_of;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--names") {
      names_only = true;
    } else if (args[i] == "--grid") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--grid requires a value (a @name reference)");
      }
      grid_of = *value;
    } else {
      return parse_error("models: unexpected argument '" + args[i] + "'");
    }
  }
  if (!grid_of.empty()) {
    const auto reference = prophet::models::parse_reference(grid_of);
    std::printf("%s\n", registry.at(reference.name).default_grid.c_str());
    return 0;
  }
  if (names_only) {
    for (const auto& name : registry.names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  std::printf("%s", registry.describe().c_str());
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  prophet::pipeline::BatchOptions options;
  prophet::machine::SystemParameters base;
  bool have_sp = false;
  bool progress = false;
  std::string grid_spec;
  std::string csv_path;
  std::string metrics_path;
  std::string trace_json_path;
  std::optional<double> max_rel_error;
  std::vector<std::string> inputs;
  std::string fault_spec;
  std::uint64_t fault_seed = 0;
  std::string error;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--grid") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--grid requires a value");
      }
      grid_spec = *value;
    } else if (args[i] == "--sp") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--sp requires a value");
      }
      base = prophet::machine::SystemParameters::load(*value);
      have_sp = true;
    } else if (args[i] == "--threads") {
      if (!take_int(args, i, options.threads, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--batch-lanes") {
      if (!take_int(args, i, options.batch_lanes, &error)) {
        return parse_error(error);
      }
      if (options.batch_lanes < 0 || options.batch_lanes > 64) {
        return parse_error("--batch-lanes: expected 0 (auto) or 1..64, got " +
                           std::to_string(options.batch_lanes));
      }
    } else if (args[i] == "--csv") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--csv requires a value");
      }
      csv_path = *value;
    } else if (args[i] == "--backend") {
      if (!take_backend(args, i, options.backend, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--max-rel-error") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--max-rel-error requires a value");
      }
      max_rel_error = parse_double(*value);
      // NaN must not slip through: comparisons against it are false, which
      // would silently disable the gate.
      if (!max_rel_error || !(*max_rel_error >= 0)) {
        return parse_error("--max-rel-error: '" + *value +
                           "' is not a non-negative number");
      }
    } else if (args[i] == "--no-check") {
      options.run_checker = false;
    } else if (args[i] == "--metrics") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--metrics requires a value");
      }
      metrics_path = *value;
    } else if (args[i] == "--trace-json") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--trace-json requires a value");
      }
      trace_json_path = *value;
    } else if (args[i] == "--progress") {
      progress = true;
    } else if (args[i] == "--job-timeout") {
      if (!take_seconds(args, i, options.limits.wall_seconds, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--deadline") {
      if (!take_seconds(args, i, options.deadline_seconds, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--limit-sim-events") {
      if (!take_uint64(args, i, options.limits.max_sim_events, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--limit-vm-instructions") {
      if (!take_uint64(args, i, options.limits.max_vm_instructions, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--limit-replay-events") {
      if (!take_uint64(args, i, options.limits.max_replay_events, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--limit-loop-trips") {
      if (!take_uint64(args, i, options.limits.max_loop_trips, &error)) {
        return parse_error(error);
      }
    } else if (args[i] == "--inject-faults") {
      const auto value = flag_value(args, i);
      if (!value) {
        return parse_error("--inject-faults requires a value");
      }
      fault_spec = *value;
    } else if (args[i] == "--fault-seed") {
      if (!take_uint64(args, i, fault_seed, &error)) {
        return parse_error(error);
      }
    } else if (!args[i].empty() && args[i][0] == '-') {
      return parse_error("sweep: unknown flag '" + args[i] + "'");
    } else {
      inputs.push_back(args[i]);
    }
  }
  if (inputs.empty()) {
    return parse_error("sweep: no input models");
  }
  if (max_rel_error.has_value() &&
      estimator::engines(options.backend).size() < 2) {
    return parse_error(
        "--max-rel-error requires a cross-validating --backend "
        "(both, sim+codegen, analytic+codegen or all)");
  }
  options.collect_metrics = !metrics_path.empty();
  options.collect_trace = !trace_json_path.empty();
  // Both outlive runner.run(): options holds raw pointers to them.
  prophet::guard::FaultPlan fault_plan;
  prophet::guard::Budget interrupt_budget;
  if (!fault_spec.empty()) {
    try {
      fault_plan = prophet::guard::FaultPlan::parse(fault_spec, fault_seed);
    } catch (const std::invalid_argument& bad_spec) {
      return parse_error(std::string("--inject-faults: ") + bad_spec.what());
    }
    options.fault_plan = &fault_plan;
  }
  // Ctrl-C cancels cooperatively: the handler flips this budget's atomic
  // flag, every job inherits it through the sweep chain, and the run
  // drains instead of dying mid-write.
  options.sweep_budget = &interrupt_budget;
  if (progress) {
    // Heartbeat on stderr (stdout stays machine-readable): jobs done,
    // throughput, ETA and — in cross-validation sweeps — the worst
    // relative error seen so far.
    options.on_progress =
        [](const prophet::pipeline::BatchProgress& progress) {
          std::fprintf(stderr,
                       "\rsweep: %zu/%zu job(s), %.1f jobs/s, eta %.1f s, "
                       "worst rel err %.6f%s",
                       progress.done, progress.total,
                       progress.jobs_per_second, progress.eta_seconds,
                       progress.worst_rel_error, progress.final ? "\n" : "");
          std::fflush(stderr);
        };
  }

  prophet::pipeline::BatchRunner runner(options);
  for (const auto& input : inputs) {
    const int index = add_sweep_model(runner, input);
    // Without an explicit --sp, a registry reference sweeps over its
    // entry's default system parameters (e.g. @pingpong's np = 2) —
    // the same base the cross-validation tests expand default grids
    // over.  Grid axes still override any field they name.
    prophet::machine::SystemParameters model_base = base;
    if (!have_sp && prophet::models::is_reference(input)) {
      const auto reference = prophet::models::parse_reference(input);
      model_base = prophet::models::Registry::builtin()
                       .at(reference.name)
                       .default_params;
    }
    runner.add_sweep(
        index, prophet::pipeline::ScenarioGrid::parse(grid_spec, model_base));
  }

  g_interrupt_budget.store(&interrupt_budget, std::memory_order_relaxed);
  std::signal(SIGINT, handle_interrupt);
  const auto report = runner.run();
  std::signal(SIGINT, SIG_DFL);
  g_interrupt_budget.store(nullptr, std::memory_order_relaxed);
  if (interrupt_budget.cancel_requested()) {
    std::fprintf(stderr, "sweep: interrupted; partial results follow\n");
  }
  std::printf("%s", report.summary().c_str());
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    out << report.to_csv();
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, report.metrics.to_json())) {
      return 1;
    }
    std::printf("metrics written to %s (%zu cells)\n", metrics_path.c_str(),
                report.metrics.size());
  }
  if (!trace_json_path.empty()) {
    if (!write_file(trace_json_path, report.trace.to_chrome_json())) {
      return 1;
    }
    std::printf("trace json written to %s (%zu spans)\n",
                trace_json_path.c_str(), report.trace.span_count());
  }
  const auto stats = report.stats();
  if (max_rel_error.has_value() && stats.max_rel_error > *max_rel_error) {
    std::fprintf(stderr,
                 "prophetc sweep: cross-validation relative error %.6f "
                 "exceeds --max-rel-error %.6f\n",
                 stats.max_rel_error, *max_rel_error);
    return 1;
  }
  return stats.failed == 0 ? 0 : 1;
}

int cmd_outline(const prophet::Prophet& prophet,
                const std::vector<std::string>& args) {
  if (!args.empty()) {
    return parse_error("outline: unexpected argument '" + args[0] + "'");
  }
  prophet::traverse::DepthFirstNavigator navigator;
  prophet::traverse::OutlineHandler outline;
  prophet::traverse::Traverser traverser;
  traverser.traverse(prophet.model(), navigator, outline);
  std::printf("%s", outline.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw;
  for (int i = 1; i < argc; ++i) {
    raw.emplace_back(argv[i]);
  }
  if (!raw.empty() && (raw[0] == "--version" || raw[0] == "-V")) {
    std::printf("prophetc (Performance Prophet) %s\n", PROPHET_VERSION);
    return 0;
  }
  if (raw.empty()) {
    return parse_error("missing command");
  }
  const std::string command = raw[0];
  const bool known = command == "check" || command == "generate" ||
                     command == "estimate" || command == "outline" ||
                     command == "models" || command == "sweep";
  if (!known) {
    return parse_error("unknown command '" + command + "'");
  }
  try {
    if (command == "models") {
      return cmd_models(normalize({raw.begin() + 1, raw.end()}));
    }
    if (raw.size() < 2) {
      return parse_error(command + ": missing <model>");
    }
    if (command == "sweep") {
      // sweep takes N models mixed with flags in any order, so every
      // token after the command is normalized and parsed by cmd_sweep.
      return cmd_sweep(normalize({raw.begin() + 1, raw.end()}));
    }
    const std::string model_path = raw[1];
    if (!model_path.empty() && model_path[0] == '-') {
      return parse_error(command + ": expected <model>, got flag '" +
                         model_path + "'");
    }
    const std::vector<std::string> args =
        normalize({raw.begin() + 2, raw.end()});
    prophet::machine::SystemParameters base_params;
    // The epoch anchors estimate's --trace-json time base before the
    // model loads, so the load/parse stage appears as the first span.
    const auto epoch = std::chrono::steady_clock::now();
    const prophet::Prophet prophet = load_model(model_path, &base_params);
    const double load_seconds = seconds_since(epoch);
    if (command == "check") {
      return cmd_check(prophet, args);
    }
    if (command == "generate") {
      return cmd_generate(prophet, args);
    }
    if (command == "estimate") {
      return cmd_estimate(prophet, args, base_params, model_path, epoch,
                          load_seconds);
    }
    return cmd_outline(prophet, args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "prophetc: %s\n", error.what());
    return 1;
  }
}
