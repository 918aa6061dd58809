// The traced run: per-layer numbers measured from outside the library.
//
// Every span is recorded here, around a call into one module's public
// API, in the order BatchRunner calls them: Registry::make, xmi::to_xml,
// xml::parse / xmi::from_xml, ModelChecker::check, Transformer::transform,
// lower::lower, Backend::prepare, PreparedModel::estimate /
// estimate_batch, cgen::emit_evaluator, cgen::compile_shared_object.
// Counts come from the library's own exports (BatchOptions::
// collect_metrics, LoweringStats, AnalyticCounters, the evaluate_batch
// fallback out-param), so they repeat exactly from run to run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>

#include "bench.hpp"
#include "prophet/analytic/analytic.hpp"
#include "prophet/analytic/backend.hpp"
#include "prophet/cgen/backend.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/cgen/toolchain.hpp"
#include "prophet/check/checker.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/expr/compile.hpp"
#include "prophet/expr/parser.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/pipeline/scenario.hpp"
#include "prophet/xmi/xmi.hpp"
#include "prophet/xml/parser.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace estimator = prophet::estimator;
namespace expr = prophet::expr;
namespace lower = prophet::lower;
namespace pipeline = prophet::pipeline;
using prophet::machine::SystemParameters;

/// The runner's default lane width.
constexpr std::size_t kLanes = 8;
/// Repetitions of each per-model engine probe; spans sum over them.
constexpr int kProbeReps = 3;

/// Receives VM results so the timed evaluations stay observable.
volatile double g_sink = 0;

/// What the pipeline passes for sweep jobs: no trace, no report text.
estimator::EstimationOptions lean_options() {
  estimator::EstimationOptions options;
  options.collect_trace = false;
  options.collect_machine_report = false;
  return options;
}

std::vector<SystemParameters> expand(const std::string& grid) {
  return pipeline::ScenarioGrid::parse(grid).expand();
}

/// The runner chunks consecutive same-model jobs into kLanes-wide lanes.
template <typename Fn>
void for_each_chunk(const std::vector<SystemParameters>& params, Fn&& fn) {
  for (std::size_t begin = 0; begin < params.size(); begin += kLanes) {
    const std::size_t count = std::min(kLanes, params.size() - begin);
    fn(std::span<const SystemParameters>(params.data() + begin, count));
  }
}

double per_call(const SpanLog::Totals& totals, double scale) {
  return totals.calls > 0
             ? totals.self_seconds * scale / static_cast<double>(totals.calls)
             : 0;
}

prophet::cgen::CodegenBackend codegen_backend(const std::string& cache) {
  prophet::cgen::CodegenOptions options;
  options.toolchain.cache_dir = cache;
  return prophet::cgen::CodegenBackend(options);
}

// --- the runner's chain, module by module --------------------------------

/// The backends a direct sweep prepares with.
struct Backends {
  prophet::analytic::AnalyticBackend analytic;
  prophet::analytic::SimulationBackend sim;
  prophet::cgen::CodegenBackend codegen;
};

/// Byte and program counts of the workload's models (first round only).
struct ChainCounts {
  double xmi_bytes = 0;
  double generated_bytes = 0;
  double bytecode_bytes = 0;
  double expr_programs = 0;
  std::vector<lower::ModelProgramPtr> programs;  // for the VM probe
};

/// Seconds a direct sweep spent in the per-model chain (make ->
/// prepare) and in the engine calls.
struct DirectSweep {
  double chain = 0;
  double engines = 0;
};

/// What BatchRunner does for one sweep, as direct calls into each
/// module in its order, every call inside a span.  `counts` (nullable)
/// receives the models' sizes.
DirectSweep run_direct(const Sweep& sweep, bool crossval,
                       const Backends& backends, SpanLog& spans,
                       ChainCounts* counts) {
  const auto options = lean_options();
  const std::string& ref = sweep.reference;
  DirectSweep result;
  SpanLog::Scope chain(spans, "pipeline.chain", ref);
  std::optional<prophet::uml::Model> made;
  {
    SpanLog::Scope span(spans, "models.make", ref);
    made.emplace(prophet::models::Registry::builtin().make(ref));
  }
  std::string text;
  {
    SpanLog::Scope span(spans, "xmi.to_xml", ref);
    text = prophet::xmi::to_xml(*made);
  }
  std::optional<prophet::uml::Model> parsed;
  {
    SpanLog::Scope span(spans, "xmi.from_xml", ref);
    parsed.emplace(prophet::xmi::from_xml(text));
  }
  {
    SpanLog::Scope span(spans, "check.check", ref);
    const prophet::check::ModelChecker checker;
    const auto diagnostics = checker.check(*parsed);
  }
  std::string generated;
  {
    SpanLog::Scope span(spans, "codegen.transform", ref);
    generated = prophet::codegen::Transformer().transform(*parsed);
  }
  lower::ModelProgramPtr program;
  {
    SpanLog::Scope span(spans, "lower.lower", ref);
    program = lower::lower(std::move(*parsed));
  }
  std::unique_ptr<estimator::PreparedModel> analytic;
  std::unique_ptr<estimator::PreparedModel> sim;
  std::unique_ptr<estimator::PreparedModel> native;
  if (crossval) {
    {
      SpanLog::Scope span(spans, "sim.prepare", ref);
      sim = backends.sim.prepare(program);
    }
    SpanLog::Scope span(spans, "cgen.prepare", ref);
    native = backends.codegen.prepare(program);
  }
  {
    SpanLog::Scope span(spans, "analytic.prepare", ref);
    analytic = backends.analytic.prepare(program);
  }
  result.chain = chain.close();

  const auto params = expand(sweep.grid);
  SpanLog::Scope engines(spans, "pipeline.engines", ref, params.size());
  if (crossval) {
    {
      SpanLog::Scope span(spans, "sim.estimate", ref, params.size());
      for (const auto& p : params) {
        (void)sim->estimate(p, options);
      }
    }
    SpanLog::Scope span(spans, "cgen.estimate", ref, params.size());
    for (const auto& p : params) {
      (void)native->estimate(p, options);
    }
  }
  {
    SpanLog::Scope span(spans, "analytic.estimate_batch", ref, params.size());
    for_each_chunk(params, [&](auto chunk) {
      (void)analytic->estimate_batch(chunk, options);
    });
  }
  result.engines = engines.close();

  // xmi::from_xml parses internally; the parser alone is timed apart
  // from the chain, so the direct sweep does what the runner does.
  {
    SpanLog::Scope span(spans, "xml.parse", ref, text.size());
    const auto document = prophet::xml::parse(text);
  }
  if (counts != nullptr) {
    counts->xmi_bytes += static_cast<double>(text.size());
    counts->generated_bytes += static_cast<double>(generated.size());
    counts->bytecode_bytes +=
        static_cast<double>(program->stats().bytecode_bytes);
    counts->expr_programs +=
        static_cast<double>(program->stats().expr_programs);
    counts->programs.push_back(program);
  }
  return result;
}

// --- timed rounds ----------------------------------------------------------

struct RoundResults {
  // Per sweep, one entry per round: the untraced runner, the runner
  // collecting its own metrics and trace, and the direct calls (chain
  // alone, and chain plus engines).
  std::vector<std::vector<double>> plain;
  std::vector<std::vector<double>> traced;
  std::vector<std::vector<double>> chain;
  std::vector<std::vector<double>> direct;
  prophet::obs::Registry counters;  // the traced runners' exports
  std::uint64_t traced_jobs = 0;
  ChainCounts counts;
};

/// Closed-loop rounds; per sweep, back to back after the round driver's
/// calibration loop: the untraced runner, the traced runner, and the
/// direct calls.
RoundResults traced_rounds(SweepBench& bench, SpanLog& spans,
                           double seconds) {
  const Workload& workload = bench.workload();
  const bool crossval = workload.backend == estimator::BackendKind::All;
  const Backends backends{{}, {}, codegen_backend(bench.cgen_cache())};
  const pipeline::BatchOptions plain = bench.sweep_options();
  pipeline::BatchOptions traced = plain;
  traced.collect_metrics = true;
  traced.collect_trace = true;
  const std::size_t sweeps = workload.sweeps.size();
  RoundResults results;
  results.plain.resize(sweeps);
  results.traced.resize(sweeps);
  results.chain.resize(sweeps);
  results.direct.resize(sweeps);
  bench.run_rounds(seconds, [&](std::size_t s) {
    const Sweep& sweep = workload.sweeps[s];
    results.plain[s].push_back(bench.run_sweep(s, plain));
    {
      SpanLog::Scope span(spans, "pipeline.sweep", sweep.label,
                          bench.jobs_in(s));
      pipeline::BatchReport report;
      results.traced[s].push_back(bench.run_sweep(s, traced, &report));
      results.counters.merge(report.metrics);
      results.traced_jobs += report.results.size();
    }
    SpanLog::Scope span(spans, "pipeline.direct", sweep.label,
                        bench.jobs_in(s));
    const bool first_round = results.direct[s].empty();
    const DirectSweep direct =
        run_direct(sweep, crossval, backends, spans,
                   first_round ? &results.counts : nullptr);
    results.chain[s].push_back(direct.chain);
    results.direct[s].push_back(direct.chain + direct.engines);
  });
  return results;
}

// --- the expression VM on the workload's compiled programs ---------------

struct VmResults {
  double scalar_ns_per_eval = 0;
  double batch_ns_per_lane = 0;
};

/// Programs the VM runs without a user-function table: non-constant,
/// no calls, and not raising for an all-bound frame.
struct VmProgram {
  const expr::Compiled* code;
  const expr::SymbolTable* symbols;
};

VmResults probe_vm(const std::vector<lower::ModelProgramPtr>& programs,
                   SpanLog& spans) {
  std::vector<VmProgram> selected;
  const auto consider = [&selected](const expr::Compiled& code,
                                    const lower::ModelProgram& program) {
    if (code.constant().has_value() || code.calls_user_functions()) {
      return;
    }
    expr::SlotFrame frame(program.symbols());
    try {
      (void)code.eval({.frame = frame.frame(), .pid = 1});
    } catch (const std::exception&) {
      return;
    }
    selected.push_back({&code, &program.symbols()});
  };
  for (const auto& program : programs) {
    for (const auto& diagram : program->model().diagrams()) {
      for (const auto& node : diagram->nodes()) {
        for (const auto& tag : program->at(*node).tags) {
          if (tag.has_value()) {
            consider(*tag, *program);
          }
        }
      }
    }
    for (const auto& function : program->functions()) {
      consider(function, *program);
    }
  }
  // A model set whose every program folds or calls functions still gets
  // a VM number, from one fixed expression.
  expr::SymbolTable fallback_symbols;
  std::optional<expr::Compiled> fallback;
  if (selected.empty()) {
    for (const char* name : {"a", "b", "c", "d"}) {
      fallback_symbols.add_variable(name);
    }
    fallback.emplace(expr::compile(*expr::parse("a * b + c / d - a * c"),
                                   fallback_symbols));
    selected.push_back({&*fallback, &fallback_symbols});
  }

  // Enough passes for tens of milliseconds per measurement.
  const std::size_t passes =
      std::max<std::size_t>(1, 200000 / selected.size());
  double sink = 0;
  VmResults results;
  {
    std::vector<expr::SlotFrame> frames;
    for (const VmProgram& program : selected) {
      frames.emplace_back(*program.symbols);
      for (std::size_t slot = 0; slot < program.symbols->slot_count(); ++slot) {
        frames.back().set(static_cast<expr::Slot>(slot), 4.0);
      }
    }
    SpanLog::Scope span(spans, "expr.eval", {}, passes * selected.size());
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < selected.size(); ++i) {
        sink += selected[i].code->eval({.frame = frames[i].frame(), .pid = 1});
      }
    }
    results.scalar_ns_per_eval =
        span.close() * 1e9 / static_cast<double>(passes * selected.size());
  }
  {
    std::vector<expr::SlotBlock> blocks;
    for (const VmProgram& program : selected) {
      blocks.emplace_back(*program.symbols, kLanes);
      for (std::size_t slot = 0; slot < program.symbols->slot_count(); ++slot) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          blocks.back().set(static_cast<expr::Slot>(slot), lane,
                            4.0 + static_cast<double>(lane));
        }
      }
    }
    double out[kLanes];
    SpanLog::Scope span(spans, "expr.eval_batch", {},
                        passes * selected.size() * kLanes);
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < selected.size(); ++i) {
        selected[i].code->eval_batch(
            {.frame = blocks[i].frame(), .width = kLanes, .pid = 1}, out);
        sink += out[0];
      }
    }
    results.batch_ns_per_lane =
        span.close() * 1e9 /
        static_cast<double>(passes * selected.size() * kLanes);
  }
  g_sink = sink;
  return results;
}

// --- engines per registry model on the wide grid ---------------------------

struct ModelLayerResults {
  std::string label;
  double analytic_estimate_ns = 0;
  double analytic_batch_ns = 0;
  double lanes_fallback_ratio = 0;
  double events_replayed_per_job = 0;
  double sim_estimate_us = 0;
  double sim_events_per_job = 0;
  double cgen_estimate_us = 0;
};

struct EngineResults {
  std::vector<ModelLayerResults> models;
  double sim_ns_per_event = 0;
  double cgen_emit_ms = 0;
  double cgen_load_ms = 0;
  double cgen_source_bytes = 0;
  double cgen_compile_s = 0;
};

EngineResults probe_engines(const SweepBench& bench, SpanLog& spans) {
  const prophet::analytic::AnalyticBackend analytic_backend;
  const prophet::analytic::SimulationBackend sim_backend;
  const auto cgen_backend = codegen_backend(bench.cgen_cache());
  const auto options = lean_options();

  EngineResults results;
  double sim_seconds = 0;
  double sim_events = 0;
  std::string compile_probe_source;
  for (const Sweep& sweep : registry_sweeps()) {
    const auto params = expand(sweep.grid);
    const double jobs = static_cast<double>(params.size());
    const auto program = lower::lower(
        prophet::models::Registry::builtin().make(sweep.reference));
    const auto analytic = analytic_backend.prepare(program);
    const auto sim = sim_backend.prepare(program);
    const prophet::analytic::AnalyticEstimator estimator(program);

    // Emission, then a cache-hit prepare (the first prepare fills the
    // warm cache if this checkout has never compiled the model).
    std::string source;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      SpanLog::Scope span(spans, "cgen.emit", sweep.label);
      source = prophet::cgen::emit_evaluator(*program);
    }
    results.cgen_source_bytes += static_cast<double>(source.size());
    if (sweep.label == "kernel6") {
      compile_probe_source = source;
    }
    (void)cgen_backend.prepare(program);
    std::unique_ptr<estimator::PreparedModel> native;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      SpanLog::Scope span(spans, "cgen.load", sweep.label);
      native = cgen_backend.prepare(program);
    }

    ModelLayerResults model;
    model.label = sweep.label;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      {
        SpanLog::Scope span(spans, "analytic.estimate", sweep.label,
                            params.size());
        for (const auto& p : params) {
          (void)analytic->estimate(p, options);
        }
      }
      {
        SpanLog::Scope span(spans, "analytic.estimate_batch", sweep.label,
                            params.size());
        for_each_chunk(params, [&](auto chunk) {
          (void)analytic->estimate_batch(chunk, options);
        });
      }
      {
        SpanLog::Scope span(spans, "sim.estimate", sweep.label, params.size());
        double events = 0;
        for (const auto& p : params) {
          events += static_cast<double>(sim->estimate(p, options).events);
        }
        sim_seconds += span.close();
        sim_events += events;
        model.sim_events_per_job = events / jobs;
      }
      {
        SpanLog::Scope span(spans, "cgen.estimate", sweep.label,
                            params.size());
        for (const auto& p : params) {
          (void)native->estimate(p, options);
        }
      }
    }
    model.analytic_estimate_ns =
        per_call(spans.totals("analytic.estimate", sweep.label), 1e9);
    model.analytic_batch_ns =
        per_call(spans.totals("analytic.estimate_batch", sweep.label), 1e9);
    model.sim_estimate_us =
        per_call(spans.totals("sim.estimate", sweep.label), 1e6);
    model.cgen_estimate_us =
        per_call(spans.totals("cgen.estimate", sweep.label), 1e6);

    // Counts: abandoned batch lanes and replayed events, exactly.
    std::size_t fallback = 0;
    for_each_chunk(params, [&](auto chunk) {
      (void)estimator.evaluate_batch(chunk, nullptr, nullptr, &fallback);
    });
    model.lanes_fallback_ratio = static_cast<double>(fallback) / jobs;
    prophet::obs::AnalyticCounters counters;
    for (const auto& p : params) {
      (void)estimator.evaluate(p, &counters);
    }
    model.events_replayed_per_job =
        static_cast<double>(counters.events_replayed) / jobs;
    results.models.push_back(model);
  }
  results.sim_ns_per_event = sim_events > 0 ? sim_seconds * 1e9 / sim_events
                                            : 0;
  results.cgen_emit_ms = per_call(spans.totals("cgen.emit"), 1e3);
  results.cgen_load_ms = per_call(spans.totals("cgen.load"), 1e3);

  // One cold native compile, into a cache directory of its own.
  const std::string cold = bench.config().work_dir + "/cgen-probe-cold";
  fs::remove_all(cold);
  prophet::cgen::ToolchainOptions toolchain;
  toolchain.cache_dir = cold;
  {
    SpanLog::Scope span(spans, "cgen.compile", "kernel6");
    const auto outcome =
        prophet::cgen::compile_shared_object(compile_probe_source, toolchain);
    results.cgen_compile_s = outcome.compile_seconds;
  }
  fs::remove_all(cold);
  return results;
}

}  // namespace

MetricSet run_traced(SweepBench& bench, SpanLog& spans) {
  const RoundResults rounds =
      traced_rounds(bench, spans, bench.config().seconds);
  const ChainCounts& chain = rounds.counts;
  const VmResults vm = probe_vm(chain.programs, spans);
  const EngineResults engines = probe_engines(bench, spans);

  MetricSet metrics;
  // models / xmi / xml
  metrics.push_back({"models.make_us", per_call(spans.totals("models.make"), 1e6),
              "us"});
  metrics.push_back({"xmi.to_xml_us", per_call(spans.totals("xmi.to_xml"), 1e6),
              "us"});
  metrics.push_back({"xmi.from_xml_us", per_call(spans.totals("xmi.from_xml"), 1e6),
              "us"});
  // xml.parse spans count the bytes they parsed.
  const SpanLog::Totals parse = spans.totals("xml.parse");
  metrics.push_back({"xml.parse_mb_per_s",
              static_cast<double>(parse.calls) / parse.self_seconds / 1e6,
              "MB/s"});
  metrics.push_back({"xmi.bytes", chain.xmi_bytes, "bytes"});
  // check / codegen / lower
  metrics.push_back({"check.us_per_model", per_call(spans.totals("check.check"), 1e6),
              "us"});
  metrics.push_back({"codegen.transform_us",
              per_call(spans.totals("codegen.transform"), 1e6), "us"});
  metrics.push_back({"codegen.generated_bytes", chain.generated_bytes, "bytes"});
  metrics.push_back({"lower.us_per_model", per_call(spans.totals("lower.lower"), 1e6),
              "us"});
  metrics.push_back({"lower.bytecode_bytes", chain.bytecode_bytes, "bytes"});
  metrics.push_back({"lower.expr_programs", chain.expr_programs, "count"});
  // analytic
  metrics.push_back({"analytic.prepare_us",
              per_call(spans.totals("analytic.prepare"), 1e6), "us"});
  for (const auto& m : engines.models) {
    metrics.push_back({"analytic.estimate_ns_per_job." + m.label,
                m.analytic_estimate_ns, "ns"});
  }
  for (const auto& m : engines.models) {
    metrics.push_back({"analytic.batch_ns_per_job." + m.label, m.analytic_batch_ns,
                "ns"});
  }
  for (const auto& m : engines.models) {
    metrics.push_back({"analytic.lanes_fallback_ratio." + m.label,
                m.lanes_fallback_ratio, "ratio"});
  }
  for (const auto& m : engines.models) {
    metrics.push_back({"analytic.events_replayed_per_job." + m.label,
                m.events_replayed_per_job, "count"});
  }
  // expr
  metrics.push_back({"expr.instructions_per_job",
              rounds.traced_jobs > 0
                  ? static_cast<double>(
                        rounds.counters.counter_value("expr.instructions")) /
                        static_cast<double>(rounds.traced_jobs)
                  : 0,
              "count"});
  metrics.push_back({"expr.scalar_ns_per_eval", vm.scalar_ns_per_eval, "ns"});
  metrics.push_back({"expr.batch_ns_per_lane", vm.batch_ns_per_lane, "ns"});
  // sim
  for (const auto& m : engines.models) {
    metrics.push_back({"sim.estimate_us_per_job." + m.label, m.sim_estimate_us, "us"});
  }
  for (const auto& m : engines.models) {
    metrics.push_back({"sim.events_per_job." + m.label, m.sim_events_per_job,
                "count"});
  }
  metrics.push_back({"sim.ns_per_event", engines.sim_ns_per_event, "ns"});
  // cgen
  metrics.push_back({"cgen.emit_ms", engines.cgen_emit_ms, "ms"});
  metrics.push_back({"cgen.compile_s", engines.cgen_compile_s, "s"});
  metrics.push_back({"cgen.load_ms", engines.cgen_load_ms, "ms"});
  metrics.push_back({"cgen.source_bytes", engines.cgen_source_bytes, "bytes"});
  for (const auto& m : engines.models) {
    metrics.push_back({"cgen.estimate_us_per_job." + m.label, m.cgen_estimate_us,
                "us"});
  }
  // pipeline: what the runner adds beyond calling the modules itself,
  // and the share of the direct calls the per-model chain takes.
  double runner_seconds = 0;
  double direct_seconds = 0;
  double chain_seconds = 0;
  double jobs = 0;
  for (std::size_t s = 0; s < rounds.plain.size(); ++s) {
    runner_seconds += fastest(rounds.plain[s]);
    direct_seconds += fastest(rounds.direct[s]);
    chain_seconds += fastest(rounds.chain[s]);
    jobs += static_cast<double>(bench.jobs_in(s));
  }
  metrics.push_back({"pipeline.overhead_ns_per_job",
              (runner_seconds - direct_seconds) * 1e9 / jobs, "ns"});
  metrics.push_back({"pipeline.prepare_share", chain_seconds / direct_seconds,
              "ratio"});
  // tracing overhead and the host calibration diagnostic
  metrics.push_back({"trace.overhead_ratio",
              bench.jobs_per_second(rounds.traced) /
                  bench.jobs_per_second(rounds.plain),
              "ratio"});
  metrics.push_back({"host.calibration_ns", median(bench.calibrations()) * 1e9,
              "ns"});
  return metrics;
}

}  // namespace perfbench
