#include "prophet/interp/interpreter.hpp"

#include <cmath>
#include <utility>

#include "prophet/expr/compile.hpp"
#include "prophet/expr/eval.hpp"

namespace prophet::interp {
namespace {

using lower::DiagramProgram;
using lower::NodePrograms;
using lower::Operation;
using workload::ModelContext;

/// Lexical scope of a model walker: the slot frame (copied by value so
/// fork branches and loop bodies snapshot their bindings) plus the base
/// of the per-process local storage for code-fragment writes, which
/// bypass loop shadowing exactly like the tree walker's locals map did.
struct Scope {
  std::vector<double*> frame;
  double* locals = nullptr;  // slot-indexed per-process storage, may be null
};

/// Lowers `model`, rewrapping lowering errors as InterpretError.
template <typename M>
std::shared_ptr<const Interpreter::Program> lower_model(M&& model) {
  try {
    return lower::lower(std::forward<M>(model));
  } catch (const lower::LowerError& error) {
    throw InterpretError(error.what());
  }
}

}  // namespace

/// Per-run state + the walking machinery over a shared immutable
/// lower::ModelProgram.  All lowering (slot space, bytecode, resolved
/// fragments, operations and successors) lives in the shared program;
/// only run-level bindings and the coroutine walkers live here.
struct Interpreter::Impl {
  using CompiledAssignment = lower::CompiledAssignment;

  std::shared_ptr<const Program> program;

  // Per-run state.  Globals live in a slot-indexed array shared by all
  // modeled processes of the run; the run frame binds global and
  // structural slots for cost-function bodies and as the template every
  // process frame starts from.
  std::vector<double> global_values;
  std::vector<double*> run_frame;
  expr::FunctionTable functions;  // the bodies, over the run frame
  double np = 1, nt = 1, nn = 1, ppn = 1;
  obs::ExprCounters* expr_counters = nullptr;  // null: counting disabled
  guard::Budget* budget = nullptr;             // null: unguarded

  explicit Impl(std::shared_ptr<const Program> p) : program(std::move(p)) {
    // Pre-run frame: structural parameters at their defaults, globals
    // unbound (cost functions called before a run see exactly what the
    // tree walker's empty globals map gave them).
    reset_run_frame();
  }

  /// Zeroes the globals and unbinds every slot of the run frame but the
  /// structural parameters.
  void reset_run_frame() {
    global_values.assign(program->slot_count(), 0.0);
    run_frame.assign(program->slot_count(), nullptr);
    run_frame[program->np_slot()] = &np;
    run_frame[program->nt_slot()] = &nt;
    run_frame[program->nn_slot()] = &nn;
    run_frame[program->ppn_slot()] = &ppn;
    functions = {program->functions(), run_frame};
  }

  // ---------------------------------------------------------------------
  // Expression evaluation
  // ---------------------------------------------------------------------

  [[nodiscard]] expr::EvalContext make_context(
      std::span<double* const> frame, int pid, int tid, int uid) const {
    expr::EvalContext ctx;
    ctx.frame = frame;
    ctx.functions = &functions;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = expr_counters;
    ctx.budget = budget;
    return ctx;
  }

  /// Evaluates the node's `kind` tag program; absent tags are 0.0.
  [[nodiscard]] double eval_tag(const NodePrograms& node, lower::TagKind kind,
                                const Scope& scope,
                                const ModelContext& ctx) const {
    const auto& tag = node.tag(kind);
    if (!tag.has_value()) {
      return 0.0;
    }
    return tag->eval(make_context(scope.frame, ctx.pid, ctx.tid, node.uid));
  }

  void run_fragment(const NodePrograms& node, Scope& scope,
                    const ModelContext& ctx) {
    for (const auto& assignment : node.fragment) {
      double value = assignment.value.eval(
          make_context(scope.frame, ctx.pid, ctx.tid, node.uid));
      if (assignment.coerce_int) {
        value = std::trunc(value);
      }
      using Target = CompiledAssignment::Target;
      switch (assignment.target) {
        case Target::Local:
          if (scope.locals != nullptr) {
            scope.locals[assignment.slot] = value;
            continue;
          }
          break;  // no locals in scope: undeclared here
        case Target::Global:
          global_values[assignment.slot] = value;
          continue;
        case Target::Undeclared:
          break;
      }
      throw InterpretError("code fragment at node " + node.node->id() +
                           " assigns undeclared variable '" +
                           assignment.name + "'");
    }
  }

  // ---------------------------------------------------------------------
  // Run-time walking
  // ---------------------------------------------------------------------

  /// Initializes the `kind` variables into `storage` in declaration
  /// order, binding each into `frame` as it goes — a forward reference
  /// falls through to the system parameters or errors, exactly like the
  /// tree walker's growing maps.
  void bind_variables(uml::VariableScope kind, std::vector<double*>& frame,
                      double* storage, int pid, int tid) const {
    for (const auto& variable : program->variables()) {
      if (variable.scope != kind) {
        continue;
      }
      double value = 0;
      if (variable.initializer.has_value()) {
        value = variable.initializer->eval(make_context(frame, pid, tid, 0));
      }
      storage[variable.slot] = variable.coerce_int ? std::trunc(value) : value;
      frame[variable.slot] = &storage[variable.slot];
    }
  }

  void start_run(const machine::SystemParameters& params) {
    np = params.processes;
    nt = params.threads_per_process;
    nn = params.nodes;
    ppn = params.processors_per_node;
    reset_run_frame();
    bind_variables(uml::VariableScope::Global, run_frame,
                   global_values.data(), 0, 0);
  }

  sim::Process run_process(ModelContext ctx) {
    // Per-process locals; the storage lives in this coroutine frame for
    // the process's whole lifetime.
    std::vector<double> local_values(program->slot_count(), 0.0);
    Scope scope;
    scope.frame = run_frame;
    scope.locals = local_values.data();
    bind_variables(uml::VariableScope::Local, scope.frame,
                   local_values.data(), ctx.pid, ctx.tid);
    co_await run_diagram(ctx, program->entry(), scope);
  }

  /// Walks diagram `index` from its initial node to a final node (or a
  /// dead end).  `scope` is taken by value: the slot frame is snapshot,
  /// locals stay shared through the storage pointers.
  sim::Process run_diagram(ModelContext ctx, int index, Scope scope) {
    const DiagramProgram& diagram =
        program->diagrams()[static_cast<std::size_t>(index)];
    if (diagram.initial < 0) {
      throw InterpretError(diagram.defect);
    }
    co_await walk(ctx, diagram, diagram.initial, scope, nullptr);
  }

  /// Walks from node `start` until a Final node (stop == nullptr) or
  /// until a Join node is reached (its index is written to *stop, and the
  /// join node is not executed).  Used both for whole diagrams and fork
  /// branches; each walk counts its own steps.
  sim::Process walk(ModelContext ctx, const DiagramProgram& diagram,
                    int start, Scope scope, int* stop) {
    int index = start;
    // Guard against unstructured cycles (the checker warns; the
    // interpreter must not hang).
    std::uint64_t steps = 0;
    while (index >= 0) {
      if (++steps > diagram.step_limit) {
        throw InterpretError("diagram " + diagram.diagram->id() +
                             ": walk exceeded step limit (unstructured "
                             "cycle without <<loop+>>?)");
      }
      const NodePrograms& node =
          diagram.nodes[static_cast<std::size_t>(index)];
      if (stop != nullptr && node.op == Operation::Join) {
        *stop = index;
        co_return;
      }
      if (node.op == Operation::Fork) {
        // Run the branches to their common join, then continue from the
        // join's successor.
        int join = -1;
        co_await execute_fork(ctx, diagram, node, scope, &join);
        const NodePrograms& after =
            diagram.nodes[static_cast<std::size_t>(join)];
        if (!after.join_defect.empty()) {
          throw InterpretError(after.join_defect);
        }
        index = after.next;
        continue;
      }
      co_await execute_node(ctx, node, scope);
      if (node.op == Operation::Final) {
        co_return;
      }
      index = next_node(ctx, node, scope);
    }
  }

  int next_node(const ModelContext& ctx, const NodePrograms& node,
                const Scope& scope) {
    if (node.op != Operation::Decision) {
      if (!node.defect.empty()) {
        throw InterpretError(node.defect);
      }
      return node.next;
    }
    for (const auto& branch : node.branches) {
      // Unguarded and `else` edges carry no guard: never taken here.
      if (branch.guard != nullptr &&
          expr::truthy(branch.guard->eval(
              make_context(scope.frame, ctx.pid, ctx.tid, node.uid)))) {
        return branch.target;
      }
    }
    if (node.fallback < 0) {
      throw InterpretError(node.defect);
    }
    return node.branches[static_cast<std::size_t>(node.fallback)].target;
  }

  sim::Process execute_fork(ModelContext ctx, const DiagramProgram& diagram,
                            const NodePrograms& node, Scope& scope,
                            int* join_out) {
    std::vector<int> joins(node.branches.size(), -1);
    std::vector<sim::ProcessRef> branches;
    branches.reserve(node.branches.size());
    for (std::size_t i = 0; i < node.branches.size(); ++i) {
      if (node.branches[i].target < 0) {
        throw InterpretError(node.defect);
      }
      // Branches share locals (generated code captures them by
      // reference) and snapshot the slot frame.
      branches.push_back(ctx.engine->spawn(
          walk(ctx, diagram, node.branches[i].target, scope, &joins[i])));
    }
    for (const auto& branch : branches) {
      co_await branch;
    }
    if (std::string error = lower::fork_join_error(diagram, node, joins);
        !error.empty()) {
      throw InterpretError(error);
    }
    *join_out = joins[0];
  }

  sim::Process execute_node(ModelContext ctx, const NodePrograms& node,
                            Scope& scope) {
    using lower::TagKind;
    switch (node.op) {
      case Operation::Initial:
      case Operation::Final:
      case Operation::Merge:
      case Operation::Decision:
      case Operation::Fork:  // handled inline by walk()
      case Operation::Join:
        co_return;
      default:
        break;
    }
    run_fragment(node, scope, ctx);
    const int uid = node.uid;
    const std::string& name = node.node->name();
    switch (node.op) {
      case Operation::Compute: {
        const double cost = node.cost().has_value()
                                ? eval_tag(node, TagKind::Cost, scope, ctx)
                                : node.time.value_or(0.0);
        workload::ActionPlus element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid, cost);
        co_return;
      }
      case Operation::Send: {
        const int dest =
            static_cast<int>(eval_tag(node, TagKind::Dest, scope, ctx));
        const double bytes = eval_tag(node, TagKind::Size, scope, ctx);
        workload::SendElement element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid, dest, bytes,
                                 node.msgtag);
        co_return;
      }
      case Operation::Recv: {
        const int source =
            static_cast<int>(eval_tag(node, TagKind::Source, scope, ctx));
        const double bytes = eval_tag(node, TagKind::Size, scope, ctx);
        workload::RecvElement element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid, source, bytes,
                                 node.msgtag);
        co_return;
      }
      case Operation::Barrier: {
        workload::BarrierElement element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid);
        co_return;
      }
      case Operation::Collective: {
        const double bytes = eval_tag(node, TagKind::Size, scope, ctx);
        const int root =
            static_cast<int>(eval_tag(node, TagKind::Root, scope, ctx));
        workload::CollectiveElement element(ctx, name, node.collective);
        co_await element.execute(uid, ctx.pid, ctx.tid, bytes, root);
        co_return;
      }
      case Operation::OmpFor: {
        const double iterations =
            eval_tag(node, TagKind::Iterations, scope, ctx);
        const double itercost = eval_tag(node, TagKind::IterCost, scope, ctx);
        workload::WorkshareElement element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid, iterations, itercost,
                                 node.schedule, node.chunk);
        co_return;
      }
      case Operation::OmpBarrier: {
        workload::OmpBarrierElement element(ctx, name);
        co_await element.execute(uid, ctx.pid, ctx.tid);
        co_return;
      }
      case Operation::Region: {
        const int threads =
            node.num_threads().has_value()
                ? static_cast<int>(
                      eval_tag(node, TagKind::NumThreads, scope, ctx))
                : static_cast<int>(nt);
        Scope body_scope = scope;  // frame snapshot; shared locals storage
        const int body = node.body;
        // The callable is a named local, not a temporary inside the
        // co_await operand: g++ 12 destroys such a temporary twice when
        // it holds a non-trivially destructible capture (the Scope).
        const auto run_thread =
            [this, body, body_scope](ModelContext tctx) -> sim::Process {
          return run_diagram(tctx, body, body_scope);
        };
        co_await workload::parallel_region(ctx, threads, uid, name,
                                           run_thread);
        co_return;
      }
      case Operation::Critical: {
        workload::CriticalElement element(ctx, name, node.lock);
        Scope body_scope = scope;
        ModelContext body_ctx = ctx;
        const int body = node.body;
        // Named for the same reason as the region's callable above.
        const auto run_body =
            [this, body, body_scope, body_ctx]() -> sim::Process {
          return run_diagram(body_ctx, body, body_scope);
        };
        co_await element.execute(uid, ctx.pid, ctx.tid, run_body);
        co_return;
      }
      case Operation::Inline: {
        // <<activity+>> (or unstereotyped composite): run content inline,
        // recording a region span (ActivityPlus).
        workload::ActivityPlus element(ctx, name);
        const double started = element.begin(uid);
        co_await run_diagram(ctx, node.body, scope);
        element.end(uid, started);
        co_return;
      }
      case Operation::Loop:
        co_await execute_loop(ctx, node, scope);
        co_return;
      default:  // Operation::Unsupported
        throw InterpretError(node.defect);
    }
  }

  sim::Process execute_loop(ModelContext ctx, const NodePrograms& node,
                            Scope& scope) {
    const workload::LoopTrips trips = workload::loop_trips(
        eval_tag(node, lower::TagKind::Iterations, scope, ctx),
        node.node->id());
    // The loop variable's storage lives in this coroutine frame; the
    // body scope's slot rebinding shadows any outer binding of the same
    // name and is dropped with the snapshot when the loop exits.
    double loop_value = 0;
    Scope iteration_scope = scope;
    iteration_scope.frame[node.loop_var_slot] = &loop_value;
    for (const double trip : trips) {
      // Charge every trip: a zero-cost body never yields to the engine
      // (hold(0) is ready immediately), so without this charge a spin
      // loop would be invisible to the event budget and the deadline.
      if (budget != nullptr) {
        budget->charge_loop_trips(1, "interp-loop");
      }
      loop_value = trip;
      co_await run_diagram(ctx, node.body, iteration_scope);
    }
  }
};

Interpreter::Interpreter(const uml::Model& model)
    : impl_(std::make_unique<Impl>(lower_model(model))) {}

Interpreter::Interpreter(uml::Model&& model)
    : impl_(std::make_unique<Impl>(lower_model(std::move(model)))) {}

Interpreter::Interpreter(std::shared_ptr<const Program> program) {
  if (program == nullptr) {
    throw InterpretError("null program");
  }
  impl_ = std::make_unique<Impl>(std::move(program));
}

Interpreter::~Interpreter() = default;

void Interpreter::on_run_start(const machine::SystemParameters& params) {
  impl_->start_run(params);
}

sim::Process Interpreter::process_main(workload::ModelContext ctx) {
  return impl_->run_process(std::move(ctx));
}

void Interpreter::set_expr_counters(obs::ExprCounters* counters) {
  impl_->expr_counters = counters;
}

void Interpreter::set_budget(guard::Budget* budget) {
  impl_->budget = budget;
}

double Interpreter::global(const std::string& name) const {
  for (const auto& variable : impl_->program->variables()) {
    if (variable.scope == uml::VariableScope::Global &&
        variable.name == name &&
        impl_->run_frame[variable.slot] ==
            &impl_->global_values[variable.slot]) {
      // Bound == initialized by a run, matching the tree walker's
      // populate-on-start_run globals map.
      return impl_->global_values[variable.slot];
    }
  }
  throw InterpretError("unknown global '" + name + "'");
}

double Interpreter::call_cost_function(
    const std::string& name, const std::vector<double>& args) const {
  const auto id = impl_->program->function_id(name);
  if (!id.has_value()) {
    throw InterpretError("unknown cost function '" + name + "'");
  }
  return expr::call(impl_->make_context(impl_->run_frame, 0, 0, 0), *id,
                    args);
}

int Interpreter::uid_of(const std::string& node_id) const {
  try {
    return impl_->program->uid_of(node_id);
  } catch (const lower::LowerError& error) {
    throw InterpretError(error.what());
  }
}

}  // namespace prophet::interp
