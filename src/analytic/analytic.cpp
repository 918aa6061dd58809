#include "prophet/analytic/analytic.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "prophet/estimator/backend.hpp"
#include "prophet/expr/compile.hpp"
#include "prophet/expr/eval.hpp"
#include "prophet/workload/runtime.hpp"

namespace prophet::analytic {
namespace {

using lower::DiagramProgram;
using lower::NodePrograms;
using lower::Operation;

/// What one step of the abstract process timeline does.  Compute demands
/// a node processor; Busy advances the clock without contending (send
/// overhead, synchronization latency); Send/Recv/Barrier synchronize
/// across processes during replay.
enum class EvKind { Compute, Busy, Send, Recv, Barrier };

struct Event {
  EvKind kind = EvKind::Compute;
  double elapsed = 0;  // wall seconds on this process's critical path
  double demand = 0;   // contended CPU seconds charged to the node
  double bytes = 0;    // Send: payload size handed to the receiver
  int peer = 0;        // Send: destination pid / Recv: source pid
  int tag = 0;         // message tag
};

/// The abstract timeline of one process plus its side demands.  Results
/// live in the thread's Workspace and are cleared, not freed, between
/// walks, so their event vectors keep their capacity.
struct WalkResult {
  std::vector<Event> events;
  // Serialized seconds per named critical section (lock-held time).
  std::map<std::string, double> critical_demand;

  void clear() {
    events.clear();
    critical_demand.clear();
  }
};

double sum_elapsed(const std::vector<Event>& events) {
  double total = 0;
  for (const auto& event : events) {
    total += event.elapsed;
  }
  return total;
}

double sum_demand(const std::vector<Event>& events) {
  double total = 0;
  for (const auto& event : events) {
    total += event.demand;
  }
  return total;
}

bool compute_only(const std::vector<Event>& events) {
  return std::all_of(events.begin(), events.end(), [](const Event& event) {
    return event.kind == EvKind::Compute || event.kind == EvKind::Busy;
  });
}

/// Adds `weight` times each critical section's lock-held demand in
/// `from` to `into`.
void add_criticals(WalkResult& into, const WalkResult& from, double weight) {
  for (const auto& [name, demand] : from.critical_demand) {
    into.critical_demand[name] += weight * demand;
  }
}

/// A loop variable binding on the walker's lexical stack.  `read` records
/// whether an evaluated program statically references the binding's slot
/// — the loop-collapsing fast path is valid only for bodies that never
/// look at their trip variable.  (The bytecode analogue of the tree
/// walker's resolution-time marking: a reference in a short-circuited
/// subexpression now counts as a read, which can only disable a collapse
/// — the fallback per-iteration walk is always exact.)
struct LoopBinding {
  expr::Slot slot = 0;
  bool read = false;
};

/// Internal control-flow signal of the batched walk: the lanes stopped
/// sharing one walk (a guard's truthiness, a message peer or a region's
/// thread count differs across lanes, or a lane-varying trip count mixes
/// zero with non-zero or has a body that does not collapse).
/// evaluate_batch catches it, like any lane error, and re-runs the
/// group's lanes through the scalar walk, which is always exact — errors
/// included.  Never escapes the analytic layer.
struct BatchDivergence {};

/// Lane policy of the scalar walk: one scenario, Compiled::eval.  Lane
/// arrays hold their single value inline, so the walk allocates nothing
/// per node.
struct ScalarLanes {
  template <typename T>
  struct Array {
    explicit Array(std::size_t /*width*/) {}
    T value{};
    T& operator[](std::size_t /*lane*/) { return value; }
    const T& operator[](std::size_t /*lane*/) const { return value; }
    T* data() { return &value; }
    const T* data() const { return &value; }
  };
  using Context = expr::EvalContext;
  static constexpr std::size_t width(std::size_t /*lanes*/) { return 1; }
  static Context context(std::size_t /*width*/) { return {}; }
  static void eval(const expr::Compiled& program, const Context& ctx,
                   double* out) {
    *out = program.eval(ctx);
  }
};

/// Lane policy of the batched walk: a group of scenario lanes at once
/// over a slot-major lane frame, Compiled::eval_batch.  Lane arrays hold
/// up to the default sweep width inline, so a walk at that width or
/// below allocates nothing per node for them; wider groups (a sweep's
/// explicit `--batch-lanes` above it) spill to the heap.
struct SoaLanes {
  template <typename T>
  class Array {
   public:
    explicit Array(std::size_t width) {
      if (width > kInline) {
        heap_.resize(width);
      }
    }
    T& operator[](std::size_t lane) { return data()[lane]; }
    const T& operator[](std::size_t lane) const { return data()[lane]; }
    T* data() { return heap_.empty() ? inline_.data() : heap_.data(); }
    const T* data() const {
      return heap_.empty() ? inline_.data() : heap_.data();
    }

   private:
    static constexpr std::size_t kInline =
        estimator::PreparedModel::kDefaultBatchLanes;
    std::array<T, kInline> inline_{};
    std::vector<T> heap_;
  };
  using Context = expr::BatchEvalContext;
  static std::size_t width(std::size_t lanes) { return lanes; }
  static Context context(std::size_t width) {
    Context ctx;
    ctx.width = width;
    return ctx;
  }
  static void eval(const expr::Compiled& program, const Context& ctx,
                   double* out) {
    program.eval_batch(ctx, out);
  }
};

/// True when one walk can serve every process of every scenario lane,
/// whatever its np: no node-tag program, decision guard or local
/// initializer may read pid or tid, and no node carries a code fragment.
/// This is the static form of the condition under which the walk of
/// process 0 serves every process (the SPMD check of run_lanes), so such
/// a model is sure to walk only pid 0 and lanes of any np can share it.
bool shares_one_walk(const lower::ModelProgram& program) {
  for (const auto& variable : program.variables()) {
    if (variable.scope == uml::VariableScope::Local &&
        variable.initializer.has_value() &&
        variable.initializer->may_read_pid_tid()) {
      return false;
    }
  }
  for (const auto& diagram : program.diagrams()) {
    for (const auto& node : diagram.nodes) {
      if (!node.fragment.empty()) {
        return false;
      }
      for (const auto& tag : node.tags) {
        if (tag.has_value() && tag->may_read_pid_tid()) {
          return false;
        }
      }
      if (node.op != Operation::Decision) {
        continue;
      }
      for (const auto& branch : node.branches) {
        if (branch.guard != nullptr && branch.guard->may_read_pid_tid()) {
          return false;
        }
      }
    }
  }
  return true;
}

/// One process's cursor into its timeline during replay.
struct ReplayProc {
  std::size_t cursor = 0;
  double clock = 0;
  bool at_barrier = false;
  bool finished = false;
};

/// A replayed message: when it left its sender, its payload, its sender
/// and its tag.
struct Message {
  double sent_at = 0;
  double bytes = 0;
  int src = 0;
  int tag = 0;
  bool taken = false;
};

/// The messages sent to one process, in the order the replay delivers
/// their sends (so each sender's in its program order).  A receive takes
/// the oldest untaken message from its source with its tag: FIFO per
/// (src, tag), the simulator's matching rule
/// (Communicator::mailbox(dst, src, tag)).  A receive scans from the
/// oldest untaken message, so it is O(1) while receives take messages in
/// their send order; a message never received, or receives out of that
/// order, pin the scan's start, and each later receive then scans every
/// pending message to its process.
struct Mailbox {
  std::vector<Message> messages;
  std::size_t head = 0;  // every message before it is taken

  /// The oldest untaken message from `src` tagged `tag`, now taken; null
  /// when none was sent yet.  Valid until the next send to this mailbox.
  const Message* take(int src, int tag) {
    for (std::size_t i = head; i < messages.size(); ++i) {
      Message& message = messages[i];
      if (!message.taken && message.src == src && message.tag == tag) {
        message.taken = true;
        while (head < messages.size() && messages[head].taken) {
          ++head;
        }
        return &message;
      }
    }
    return nullptr;
  }

  void clear() {
    messages.clear();
    head = 0;
  }
};

/// The buffers of one nesting depth's sub-walks (fork branches, region
/// threads, critical bodies, prob branches, a loop's first trip).
struct SubWalkBuffers {
  std::vector<WalkResult> results;  // one per lane
  std::vector<int> joins;           // a fork's join, per branch
};

/// Every buffer an evaluation reads or writes.  There is one per thread
/// (workspace()), so the buffers keep their capacity across lanes,
/// groups, chunks and sweeps, and a warm evaluation allocates only its
/// report (and, for a model with critical sections, each walk's map of
/// lock-held demand).
///
/// Thread contract: only one evaluation runs on a thread at a time —
/// nothing an evaluation calls (the expression VM, the workload rules,
/// the budget) calls back into an estimator — so the workspace needs no
/// lock and no reentrancy guard.  It holds buffers only: nothing
/// borrowed from a call (lanes, counters, budget) outlives the call.
/// Every run re-initializes what it reads, because a divergence, a lane
/// error or a guard::GuardError can leave it mid-walk, and evaluate_batch
/// then re-runs the group through evaluate() at once.
struct Workspace {
  // A run's globals and np/nt/nn/ppn in their own slots, [slot * width +
  // lane], and its frame: slot -> lane array.
  std::vector<double> global_values;
  std::vector<double*> run_frame;
  // Each process's walk, [pid * width + lane].
  std::vector<WalkResult> walks;
  // One pid walk: its locals ([slot * width + lane]), its copy of the
  // run frame and its loop bindings.
  std::vector<double> locals;
  std::vector<double*> frame;
  std::vector<LoopBinding> bindings;
  // Sub-walk buffers, one row per nesting depth.  A deque, so a row never
  // moves once made: the results a deeper walk writes to stay put while
  // rows are added under it.
  std::deque<SubWalkBuffers> sub_walks;
  // Replay: each process's timeline and cursor, its node, each node's
  // demand, and the ledger, one mailbox per destination pid.  (A queue
  // per (dst, src) pair would take np^2 entries: 16.7 million at
  // np=4096.)
  std::vector<const WalkResult*> per_pid;
  std::vector<ReplayProc> procs;
  std::vector<int> node;
  std::vector<double> node_demand;
  std::vector<Mailbox> ledger;
};

/// The calling thread's workspace, freed at thread exit.  Generated
/// evaluators do not link this library (cgen::runtime_archives), so its
/// TLS destructor pins no evaluator object the way one in the simulator
/// runtime would.
Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl: shared lowering handle + per-evaluation state
// ---------------------------------------------------------------------------

struct AnalyticEstimator::Impl {
  using CompiledAssignment = lower::CompiledAssignment;

  /// The shared lowering (slot space, bytecode, resolved fragments,
  /// operations and successors).  Immutable, so any number of estimators
  /// — and the simulation backend — can consume the same program
  /// concurrently.
  lower::ModelProgramPtr program;
  /// Whether lanes of different np may share one walk (shares_one_walk),
  /// decided once, here: evaluate_batch then walks a chunk as one group
  /// instead of one group per run of equal np.
  bool one_walk = false;

  /// State of one evaluation over `lanes` scenarios: one lane for
  /// evaluate(), a group of them for the batched walk.  Its buffers are
  /// the thread's Workspace; the rest lives on the call's stack.  Storage
  /// is slot-major — `width` lane values per slot — so the run frame is
  /// exactly what expr::BatchEvalContext expects, and lane l's scalar
  /// view is every bound pointer offset by l.  Every process's walk of a
  /// run shares the globals, so code fragments update each lane's
  /// globals in pid order.
  struct EvalState {
    Workspace& ws;
    std::span<const machine::SystemParameters> lanes;
    std::size_t width = 1;
    expr::FunctionTable functions{};  // the bodies, over the run frame
    std::uint64_t elements = 0;      // model elements walked
    std::uint64_t fragments_executed = 0;
    bool pid_queried = false;  // pid/tid reachable by an evaluated program
    obs::AnalyticCounters* counters = nullptr;  // null: counting disabled
    guard::Budget* budget = nullptr;            // null: unguarded
  };

  explicit Impl(lower::ModelProgramPtr p);

  /// Sizes `st`'s storage for its lanes and binds the run frame: the
  /// structural parameters, then the global variables.
  template <typename Lanes>
  void start_run(EvalState& st) const;

  /// Walks process `pid` into `out` (one WalkResult per lane).
  template <typename Lanes>
  void walk(EvalState& st, int pid, WalkResult* out) const;

  /// The one driver, for evaluate() (ScalarLanes, one lane) and each
  /// batched group (SoaLanes): validates and starts `st`'s run, walks
  /// pid 0 and, unless that walk serves every process, pids 1..np-1 in
  /// order, then hands each lane's report to `sink(lane, report)`.
  template <typename Lanes, typename Sink>
  void run_lanes(EvalState& st, Sink&& sink) const;

  AnalyticReport evaluate(const machine::SystemParameters& params,
                          obs::AnalyticCounters* counters,
                          guard::Budget* budget) const;

  std::vector<AnalyticReport> evaluate_batch(
      std::span<const machine::SystemParameters> lanes,
      obs::AnalyticCounters* counters, guard::Budget* budget,
      std::size_t* lanes_fallback) const;
};

AnalyticEstimator::Impl::Impl(lower::ModelProgramPtr p)
    : program(std::move(p)), one_walk(shares_one_walk(*program)) {}

namespace {

// ---------------------------------------------------------------------------
// Symbolic walk
// ---------------------------------------------------------------------------

/// Walks one process's control flow, emitting Events — for one scenario
/// (ScalarLanes) or for a group of scenario lanes at once (SoaLanes).
/// Lanes walk in lockstep: each step emits one structurally identical
/// Event per lane, so one coalescing decision covers all of them, and
/// whatever would make the lanes' walks differ raises BatchDivergence.
///
/// Sub-walkers (fork branches, parallel-region threads, critical bodies,
/// expectation branches, a loop's first trip) share the lexical state —
/// slot frame, locals storage, loop bindings — but write to their own
/// results so the parent can aggregate elapsed/demand.  The walk is
/// strictly sequential, so the shared frame needs no snapshotting
/// (unlike the coroutine interpreter's per-scope copies).
template <typename Lanes>
struct Walker {
  using Impl = AnalyticEstimator::Impl;
  using EvalState = Impl::EvalState;
  template <typename T>
  using Array = typename Lanes::template Array<T>;

  Walker(const Impl& impl_in, EvalState& st_in, WalkResult* out_in)
      : impl(impl_in), st(st_in), out(out_in) {}

  const Impl& impl;
  EvalState& st;
  WalkResult* out;  // one per lane
  std::size_t depth = 0;  // sub-walk nesting: this walker's buffer row
  int pid = 0;
  int tid = 0;
  std::vector<double*>* frame = nullptr;  // shared per-process slot frame
  double* locals = nullptr;               // [slot * width + lane]
  std::vector<LoopBinding>* bindings = nullptr;
  int region_threads = 0;  // > 0 inside an <<ompparallel>> region
  bool allow_comm = true;
  bool allow_fragments = true;
  // Steps of the whole process's walk, sub-walks included: paces the
  // deadline checkpoint (the step limit counts per diagram walk).
  std::uint64_t* process_steps = nullptr;

  [[nodiscard]] std::size_t width() const { return Lanes::width(st.width); }

  [[nodiscard]] const machine::SystemParameters& params(
      std::size_t lane) const {
    return st.lanes[lane];
  }

  /// A sub-walker for nested concurrent constructs: shares the lexical
  /// state, writes to its own results, and may not communicate.
  [[nodiscard]] Walker sub(WalkResult* sub_out) const {
    Walker walker(impl, st, sub_out);
    walker.depth = depth + 1;
    walker.pid = pid;
    walker.tid = tid;
    walker.frame = frame;
    walker.locals = locals;
    walker.bindings = bindings;
    walker.region_threads = region_threads;
    walker.allow_comm = false;
    walker.allow_fragments = allow_fragments;
    walker.process_steps = process_steps;
    return walker;
  }

  /// This walker's sub-walk buffers: its depth's row of the workspace
  /// (its sub-walkers' own sub-walks use the next row).
  [[nodiscard]] SubWalkBuffers& sub_buffers() const {
    auto& rows = st.ws.sub_walks;
    while (rows.size() <= depth) {
      rows.emplace_back();
    }
    return rows[depth];
  }

  /// Cleared results, one per lane, for this walker's next sub-walk.
  /// Every construct consumes them before it walks on or starts another
  /// sub-walk, which reuses them.
  [[nodiscard]] WalkResult* sub_results(SubWalkBuffers& row) const {
    if (row.results.size() < width()) {
      row.results.resize(width());
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      row.results[lane].clear();
    }
    return row.results.data();
  }

  // --- Expression evaluation ---------------------------------------------

  /// Marks the innermost active loop binding of every slot the program
  /// references — the static analogue of the tree walker's
  /// mark-on-resolution (shadowed outer bindings stay unmarked).
  void mark_loop_reads(const expr::Compiled& program) const {
    for (auto it = bindings->rbegin(); it != bindings->rend(); ++it) {
      bool shadowed = false;
      for (auto inner = bindings->rbegin(); inner != it; ++inner) {
        if (inner->slot == it->slot) {
          shadowed = true;
          break;
        }
      }
      if (!shadowed && program.references_slot(it->slot)) {
        it->read = true;
      }
    }
  }

  /// Evaluates `program` for every lane into `lanes` (width() doubles).
  void eval_program(const expr::Compiled& program, int uid,
                    double* lanes) const {
    if (program.may_read_pid_tid()) {
      st.pid_queried = true;
    }
    mark_loop_reads(program);
    typename Lanes::Context ctx = Lanes::context(width());
    ctx.frame = *frame;
    ctx.functions = &st.functions;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = st.counters != nullptr ? &st.counters->expr : nullptr;
    ctx.budget = st.budget;
    Lanes::eval(program, ctx, lanes);
  }

  /// Evaluates the node's `kind` tag program across lanes; absent tags
  /// are 0.0.
  [[nodiscard]] Array<double> eval_tag(const NodePrograms& node,
                                       lower::TagKind kind) const {
    Array<double> lanes(width());
    if (const auto& tag = node.tag(kind); tag.has_value()) {
      eval_program(*tag, node.uid, lanes.data());
    }
    return lanes;
  }

  /// The lanes' common integer value: message peers and region thread
  /// counts shape the event structure, so they must agree across lanes.
  [[nodiscard]] int uniform_int(const Array<double>& lanes) const {
    const int value = static_cast<int>(lanes[0]);
    for (std::size_t lane = 1; lane < width(); ++lane) {
      if (static_cast<int>(lanes[lane]) != value) {
        throw BatchDivergence{};
      }
    }
    return value;
  }

  /// Applies the peer rule to each lane's rank of `node`'s `role` peer.
  void check_peers(const NodePrograms& node, workload::PeerRole role,
                   const Array<double>& ranks) const {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      (void)workload::peer_rank(node.node->name(), role,
                                static_cast<int>(ranks[lane]),
                                params(lane).processes);
    }
  }

  void run_fragment(const NodePrograms& node) {
    if (node.fragment.empty()) {
      return;
    }
    if (!allow_fragments) {
      throw AnalyticError("node " + node.node->id() +
                          ": code fragments are not supported inside "
                          "probability-weighted branches");
    }
    ++st.fragments_executed;
    Array<double> value(width());
    for (const auto& assignment : node.fragment) {
      eval_program(assignment.value, node.uid, value.data());
      double* target = nullptr;
      using Target = Impl::CompiledAssignment::Target;
      switch (assignment.target) {
        case Target::Local:
          target = locals;
          break;
        case Target::Global:
          target = st.ws.global_values.data();
          break;
        case Target::Undeclared:
          break;
      }
      if (target == nullptr) {
        throw AnalyticError("code fragment at node " + node.node->id() +
                            " assigns undeclared variable '" +
                            assignment.name + "'");
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        target[assignment.slot * width() + lane] =
            assignment.coerce_int ? std::trunc(value[lane]) : value[lane];
      }
    }
  }

  // --- Event emission: lockstep across lanes ------------------------------

  void emit_compute(const double* elapsed, const double* demand) {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      if (std::isnan(elapsed[lane]) || elapsed[lane] < 0) {
        throw AnalyticError("negative or NaN compute cost");
      }
    }
    if (!out[0].events.empty() &&
        out[0].events.back().kind == EvKind::Compute) {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        out[lane].events.back().elapsed += elapsed[lane];
        out[lane].events.back().demand += demand[lane];
      }
      return;
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      out[lane].events.push_back(
          {EvKind::Compute, elapsed[lane], demand[lane], 0, 0, 0});
    }
  }

  void emit_busy(const double* elapsed) {
    if (!out[0].events.empty() && out[0].events.back().kind == EvKind::Busy) {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        out[lane].events.back().elapsed += elapsed[lane];
      }
      return;
    }
    for (std::size_t lane = 0; lane < width(); ++lane) {
      out[lane].events.push_back({EvKind::Busy, elapsed[lane], 0, 0, 0, 0});
    }
  }

  /// Splices sub-results, re-coalescing adjacent Compute/Busy runs (event
  /// i has the same kind in every lane).
  void append_events(const WalkResult* from) {
    Array<double> elapsed(width());
    Array<double> demand(width());
    for (std::size_t i = 0; i < from[0].events.size(); ++i) {
      const EvKind kind = from[0].events[i].kind;
      for (std::size_t lane = 0; lane < width(); ++lane) {
        elapsed[lane] = from[lane].events[i].elapsed;
        demand[lane] = from[lane].events[i].demand;
      }
      if (kind == EvKind::Compute) {
        emit_compute(elapsed.data(), demand.data());
      } else if (kind == EvKind::Busy) {
        emit_busy(elapsed.data());
      } else {
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back(from[lane].events[i]);
        }
      }
    }
  }

  void merge_criticals(const WalkResult* from, double weight) {
    for (std::size_t lane = 0; lane < width(); ++lane) {
      add_criticals(out[lane], from[lane], weight);
    }
  }

  void require_comm(const NodePrograms& node) const {
    if (!allow_comm) {
      throw AnalyticError(
          "node " + node.node->id() + " (<<" +
          std::string(lower::stereotype_name(node.op, node.collective)) +
          ">>): cross-process communication inside fork branches, parallel "
          "regions, critical sections or probability-weighted branches is "
          "not supported by the analytic backend");
    }
  }

  // --- Control flow -------------------------------------------------------

  void run_diagram(int index) {
    const DiagramProgram& diagram =
        impl.program->diagrams()[static_cast<std::size_t>(index)];
    if (diagram.initial < 0) {
      throw AnalyticError(diagram.defect);
    }
    walk(diagram, diagram.initial, /*stop_op=*/std::nullopt, nullptr);
  }

  /// Walks from node `start` until a Final node (stop == nullptr) or
  /// until a node of `stop_op` is reached (its index is written to
  /// *stop, and the node is not executed).  When stopping at a Merge,
  /// merges that close a guard-resolved decision *inside* the walked
  /// stretch are passed through (`merge_debt`), so only the branch's own
  /// reconvergence point terminates it.  Each walk counts its own steps
  /// against the diagram's step limit, like the interpreter's.
  void walk(const DiagramProgram& diagram, int start,
            std::optional<Operation> stop_op, int* stop) {
    int index = start;
    int merge_debt = 0;
    std::uint64_t steps = 0;
    while (index >= 0) {
      if (++steps > diagram.step_limit) {
        throw AnalyticError("diagram " + diagram.diagram->id() +
                            ": walk exceeded step limit (unstructured "
                            "cycle without <<loop+>>?)");
      }
      // Piggyback the cooperative deadline/cancel check on the process's
      // step count so a long symbolic walk stays interruptible.
      if (st.budget != nullptr && (++*process_steps & 1023U) == 0) {
        st.budget->checkpoint("analytic-walk");
      }
      const NodePrograms& node =
          diagram.nodes[static_cast<std::size_t>(index)];
      if (stop != nullptr && node.op == stop_op) {
        if (node.op == Operation::Merge && merge_debt > 0) {
          --merge_debt;  // closes a nested decision, keep walking
        } else {
          *stop = index;
          return;
        }
      }
      if (node.op == Operation::Fork) {
        const NodePrograms& join = diagram.nodes[static_cast<std::size_t>(
            execute_fork(diagram, node))];
        if (!join.join_defect.empty()) {
          throw AnalyticError(join.join_defect);
        }
        index = join.next;
        continue;
      }
      if (node.op == Operation::Decision) {
        if (node.probabilistic) {
          // Consumes the decision's merge inline and resumes after it.
          index = execute_expected_decision(diagram, node);
          continue;
        }
        if (stop_op == Operation::Merge) {
          ++merge_debt;  // this decision's own merge is not ours
        }
      }
      execute_node(node);
      if (node.op == Operation::Final) {
        return;
      }
      index = next_node(node);
    }
  }

  [[nodiscard]] int next_node(const NodePrograms& node) const {
    if (node.op != Operation::Decision) {
      if (!node.defect.empty()) {
        throw AnalyticError(node.defect);
      }
      return node.next;
    }
    Array<double> value(width());
    for (const auto& branch : node.branches) {
      if (branch.guard == nullptr) {
        continue;  // unguarded or `else` edge: never taken here
      }
      eval_program(*branch.guard, node.uid, value.data());
      const bool taken = expr::truthy(value[0]);
      for (std::size_t lane = 1; lane < width(); ++lane) {
        if (expr::truthy(value[lane]) != taken) {
          throw BatchDivergence{};  // lanes branch apart
        }
      }
      if (taken) {
        return branch.target;
      }
    }
    if (node.fallback < 0) {
      throw AnalyticError(node.defect);
    }
    return node.branches[static_cast<std::size_t>(node.fallback)].target;
  }

  /// Walks a fork's branches to their common join and returns the join.
  int execute_fork(const DiagramProgram& diagram, const NodePrograms& node) {
    SubWalkBuffers& row = sub_buffers();
    std::vector<int>& joins = row.joins;
    joins.assign(node.branches.size(), -1);
    Array<double> max_elapsed(width());
    Array<double> total_demand(width());
    for (std::size_t i = 0; i < node.branches.size(); ++i) {
      if (node.branches[i].target < 0) {
        throw AnalyticError(node.defect);
      }
      WalkResult* branch = sub_results(row);
      Walker walker = sub(branch);
      walker.walk(diagram, node.branches[i].target, Operation::Join,
                  &joins[i]);
      for (std::size_t lane = 0; lane < width(); ++lane) {
        max_elapsed[lane] =
            std::max(max_elapsed[lane], sum_elapsed(branch[lane].events));
        total_demand[lane] += sum_demand(branch[lane].events);
      }
      merge_criticals(branch, 1.0);
    }
    if (std::string error = lower::fork_join_error(diagram, node, joins);
        !error.empty()) {
      throw AnalyticError(error);
    }
    emit_compute(max_elapsed.data(), total_demand.data());
    return joins[0];
  }

  /// Expectation over the branches of a `prob`-annotated decision: every
  /// branch is walked to the common merge, weighted by its probability,
  /// and the expected elapsed/demand is emitted as one Compute step.
  /// Returns the node after the merge to continue from (the merge itself
  /// is consumed here, so an enclosing branch walk never mistakes it for
  /// its own reconvergence point).
  int execute_expected_decision(const DiagramProgram& diagram,
                                const NodePrograms& node) {
    ++st.elements;
    const auto& branches = node.branches;
    double tagged_sum = 0;
    std::size_t untagged = 0;
    for (const auto& branch : branches) {
      if (const auto prob = branch.prob) {
        if (*prob < 0 || *prob > 1 || std::isnan(*prob)) {
          throw AnalyticError("decision " + node.node->id() + ": edge " +
                              branch.edge->id() + " has prob outside [0, 1]");
        }
        tagged_sum += *prob;
      } else {
        ++untagged;
      }
    }
    if (tagged_sum > 1 + 1e-9) {
      throw AnalyticError("decision " + node.node->id() +
                          ": branch probabilities sum to more than 1");
    }
    const double rest =
        untagged > 0
            ? std::max(0.0, 1.0 - tagged_sum) / static_cast<double>(untagged)
            : 0;
    // An untagged branch shares what the tagged ones leave.
    auto weight_of = [rest](const lower::Branch& branch) {
      return branch.prob.value_or(rest);
    };
    double norm = 0;
    for (const auto& branch : branches) {
      norm += weight_of(branch);
    }
    if (norm <= 0) {
      throw AnalyticError("decision " + node.node->id() +
                          ": branch probabilities sum to zero");
    }

    int merge = -1;
    Array<double> expected_elapsed(width());
    Array<double> expected_demand(width());
    SubWalkBuffers& row = sub_buffers();
    for (std::size_t i = 0; i < branches.size(); ++i) {
      if (branches[i].target < 0) {
        throw AnalyticError("decision " + node.node->id() +
                            ": dangling edge");
      }
      const double weight = weight_of(branches[i]) / norm;
      int branch_merge = -1;
      WalkResult* branch = sub_results(row);
      Walker walker = sub(branch);
      walker.allow_fragments = false;
      walker.walk(diagram, branches[i].target, Operation::Merge,
                  &branch_merge);
      if (branch_merge < 0) {
        throw AnalyticError("decision " + node.node->id() +
                            ": probability-weighted branches must "
                            "reconverge at a merge");
      }
      if (merge < 0) {
        merge = branch_merge;
      } else if (merge != branch_merge) {
        throw AnalyticError(
            "decision " + node.node->id() +
            ": branches reach different merges ('" +
            diagram.nodes[static_cast<std::size_t>(merge)].node->id() +
            "' vs '" +
            diagram.nodes[static_cast<std::size_t>(branch_merge)].node->id() +
            "')");
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        expected_elapsed[lane] += weight * sum_elapsed(branch[lane].events);
        expected_demand[lane] += weight * sum_demand(branch[lane].events);
      }
      merge_criticals(branch, weight);
    }
    emit_compute(expected_elapsed.data(), expected_demand.data());
    ++st.elements;  // the consumed merge
    return next_node(diagram.nodes[static_cast<std::size_t>(merge)]);
  }

  void execute_node(const NodePrograms& node) {
    using lower::TagKind;
    ++st.elements;
    switch (node.op) {
      case Operation::Initial:
      case Operation::Final:
      case Operation::Merge:
      case Operation::Decision:
      case Operation::Fork:  // handled inline by walk()
      case Operation::Join:
        return;
      default:
        break;
    }
    run_fragment(node);
    Array<double> seconds(width());
    switch (node.op) {
      case Operation::Compute: {
        Array<double> cost = eval_tag(node, TagKind::Cost);
        if (!node.cost().has_value() && node.time.has_value()) {
          std::fill_n(cost.data(), width(), *node.time);
        }
        for (std::size_t lane = 0; lane < width(); ++lane) {
          seconds[lane] = machine::compute_time(
              params(lane), workload::action_cost(node.node->name(),
                                                  cost[lane]));
        }
        emit_compute(seconds.data(), seconds.data());
        return;
      }
      case Operation::Send: {
        require_comm(node);
        const Array<double> dests = eval_tag(node, TagKind::Dest);
        const int dest = uniform_int(dests);
        const Array<double> bytes = eval_tag(node, TagKind::Size);
        check_peers(node, workload::PeerRole::Dest, dests);
        for (std::size_t lane = 0; lane < width(); ++lane) {
          seconds[lane] = params(lane).network_overhead;
        }
        emit_busy(seconds.data());
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back(
              {EvKind::Send, 0, 0, bytes[lane], dest, node.msgtag});
        }
        return;
      }
      case Operation::Recv: {
        require_comm(node);
        const Array<double> sources = eval_tag(node, TagKind::Source);
        const int source = uniform_int(sources);
        check_peers(node, workload::PeerRole::Source, sources);
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back(
              {EvKind::Recv, 0, 0, 0, source, node.msgtag});
        }
        return;
      }
      case Operation::Barrier:
        require_comm(node);
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].events.push_back({EvKind::Barrier,
                                      machine::barrier_time(params(lane)), 0,
                                      0, 0, 0});
        }
        return;
      case Operation::Collective: {
        require_comm(node);
        const Array<double> bytes = eval_tag(node, TagKind::Size);
        check_peers(node, workload::PeerRole::Root,
                    eval_tag(node, TagKind::Root));
        for (std::size_t lane = 0; lane < width(); ++lane) {
          const double hold = workload::CollectiveElement::model_time(
              params(lane), node.collective, params(lane).processes,
              bytes[lane]);
          out[lane].events.push_back({EvKind::Barrier, hold, 0, 0, 0, 0});
        }
        return;
      }
      case Operation::OmpFor: {
        const Array<double> iterations = eval_tag(node, TagKind::Iterations);
        const Array<double> itercost = eval_tag(node, TagKind::IterCost);
        const int threads = region_threads > 0 ? region_threads : 1;
        for (std::size_t lane = 0; lane < width(); ++lane) {
          const double compute = workload::workshare_compute(
              node.node->name(), iterations[lane], itercost[lane],
              node.schedule, node.chunk, threads, tid);
          seconds[lane] = machine::compute_time(params(lane), compute);
        }
        emit_compute(seconds.data(), seconds.data());
        return;
      }
      case Operation::OmpBarrier:
        // Region threads are modeled as aligned (the region advances at
        // the pace of its slowest thread), so an intra-region barrier
        // costs nothing extra here — exactly what the simulator charges.
        return;
      case Operation::Region:
        execute_region(node);
        return;
      case Operation::Critical: {
        WalkResult* body = sub_results(sub_buffers());
        Walker walker = sub(body);
        walker.run_diagram(node.body);
        // The body runs on this process's critical path; the lock-held
        // time additionally serializes against every other holder of
        // the lock.
        for (std::size_t lane = 0; lane < width(); ++lane) {
          out[lane].critical_demand[node.lock] +=
              sum_elapsed(body[lane].events);
        }
        merge_criticals(body, 1.0);
        append_events(body);
        return;
      }
      case Operation::Inline:
        run_diagram(node.body);  // <<activity+>>: inline content
        return;
      case Operation::Loop:
        execute_loop(node);
        return;
      default:  // Operation::Unsupported
        throw AnalyticError(node.defect);
    }
  }

  void execute_region(const NodePrograms& node) {
    Array<double> requested(width());
    if (node.num_threads().has_value()) {
      requested = eval_tag(node, lower::TagKind::NumThreads);
    } else {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        requested[lane] = params(lane).threads_per_process;
      }
    }
    const int threads =
        workload::region_threads(node.node->name(), uniform_int(requested));
    Array<double> max_elapsed(width());
    Array<double> total_demand(width());
    SubWalkBuffers& row = sub_buffers();
    for (int thread = 0; thread < threads; ++thread) {
      WalkResult* thread_result = sub_results(row);
      Walker walker = sub(thread_result);
      walker.tid = thread;
      walker.region_threads = threads;
      walker.run_diagram(node.body);
      for (std::size_t lane = 0; lane < width(); ++lane) {
        max_elapsed[lane] = std::max(max_elapsed[lane],
                                     sum_elapsed(thread_result[lane].events));
        total_demand[lane] += sum_demand(thread_result[lane].events);
      }
      merge_criticals(thread_result, 1.0);
    }
    emit_compute(max_elapsed.data(), total_demand.data());
  }

  void execute_loop(const NodePrograms& node) {
    const Array<double> raw = eval_tag(node, lower::TagKind::Iterations);
    Array<std::int64_t> iterations(width());
    bool uniform = true;
    for (std::size_t lane = 0; lane < width(); ++lane) {
      iterations[lane] = workload::loop_trips(raw[lane], node.node->id()).trips;
      uniform = uniform && iterations[lane] == iterations[0];
    }
    if (uniform && iterations[0] == 0) {
      return;
    }
    if (!uniform) {
      for (std::size_t lane = 0; lane < width(); ++lane) {
        if (iterations[lane] == 0) {
          throw BatchDivergence{};  // zero/nonzero mix: structure diverges
        }
      }
    }
    bindings->push_back({node.loop_var_slot, false});
    Array<double> loop_value(width());
    double* const saved = (*frame)[node.loop_var_slot];
    (*frame)[node.loop_var_slot] = loop_value.data();

    // First iteration into a capture buffer: when the body provably does
    // not depend on the trip variable and has no side effects, the
    // remaining iterations are the first one times (n - 1) — the symbolic
    // trip-count resolution that keeps deep loop nests O(body), not
    // O(body * n), and the one place lanes may differ in trip count.
    const std::uint64_t fragments_before = st.fragments_executed;
    WalkResult* first = sub_results(sub_buffers());
    {
      Walker walker = sub(first);
      walker.allow_comm = allow_comm;
      walker.run_diagram(node.body);
    }
    const bool collapsible = !bindings->back().read &&
                             st.fragments_executed == fragments_before &&
                             compute_only(first[0].events);
    if (!uniform && !collapsible) {
      throw BatchDivergence{};  // per-trip replay needs one shared count
    }
    if (collapsible && st.counters != nullptr) {
      ++st.counters->loop_collapses;
    }
    append_events(first);
    merge_criticals(first, 1.0);
    if (collapsible) {
      Array<double> elapsed(width());
      Array<double> demand(width());
      for (std::size_t lane = 0; lane < width(); ++lane) {
        const auto rest = static_cast<double>(iterations[lane] - 1);
        elapsed[lane] = rest * sum_elapsed(first[lane].events);
        demand[lane] = rest * sum_demand(first[lane].events);
        add_criticals(out[lane], first[lane], rest);
      }
      emit_compute(elapsed.data(), demand.data());
    } else {
      for (std::int64_t k = 1; k < iterations[0]; ++k) {
        // Collapsed loops are O(1) and exempt; a non-collapsible body
        // replays per trip, so each trip is charged — this is where a
        // runaway trip count trips max_loop_trips (or the deadline).
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
        }
        std::fill_n(loop_value.data(), width(), static_cast<double>(k));
        run_diagram(node.body);
      }
    }
    (*frame)[node.loop_var_slot] = saved;
    bindings->pop_back();
  }

  /// Initializes the `scope` variables into `storage` ([slot * width +
  /// lane]) in declaration order, binding each into the frame as it goes
  /// (a forward reference falls through to globals/system parameters,
  /// like the tree walker's growing map).
  void bind_variables(uml::VariableScope scope, double* storage) {
    Array<double> value(width());
    for (const auto& variable : impl.program->variables()) {
      if (variable.scope != scope) {
        continue;
      }
      std::fill_n(value.data(), width(), 0.0);
      if (variable.initializer.has_value()) {
        eval_program(*variable.initializer, 0, value.data());
      }
      for (std::size_t lane = 0; lane < width(); ++lane) {
        storage[variable.slot * width() + lane] =
            variable.coerce_int ? std::trunc(value[lane]) : value[lane];
      }
      (*frame)[variable.slot] = &storage[variable.slot * width()];
    }
  }

  void walk_process() {
    bind_variables(uml::VariableScope::Local, locals);
    run_diagram(impl.program->entry());
  }
};

// ---------------------------------------------------------------------------
// Replay: dependency resolution across processes
// ---------------------------------------------------------------------------

/// Replays `ws.per_pid`'s timelines under `params`: fills `finish` with
/// each process's clock and `ws.node` and `ws.node_demand` with each
/// process's node and each node's contended CPU seconds.  Returns the
/// events consumed across all cursors.
std::uint64_t replay(const machine::SystemParameters& params,
                     guard::Budget* budget, Workspace& ws,
                     std::vector<double>& finish) {
  const int np = params.processes;
  const auto& per_pid = ws.per_pid;
  std::vector<ReplayProc>& procs = ws.procs;
  procs.assign(static_cast<std::size_t>(np), ReplayProc{});
  std::vector<int>& node = ws.node;
  node.resize(static_cast<std::size_t>(np));
  for (int pid = 0; pid < np; ++pid) {
    node[static_cast<std::size_t>(pid)] = machine::node_of(params, pid);
  }
  std::vector<double>& node_demand = ws.node_demand;
  node_demand.assign(static_cast<std::size_t>(params.nodes), 0.0);
  std::uint64_t replayed = 0;

  // Uniform fast path: the SPMD walks hand every process the same
  // timeline.  When that shared timeline is also communication-free
  // (compute and busy only — no sends, receives, or barriers), the
  // cursor loop below degenerates to np independent replays of the same
  // list: every clock is the same in-order sum of elapsed times, and
  // node demands accumulate pid-major, event-minor.  Doing exactly
  // those additions in exactly that order as two tight loops is
  // bit-identical to the general machinery at a fraction of its cost.
  if (np > 0) {
    bool uniform = true;
    for (int pid = 1; pid < np && uniform; ++pid) {
      uniform = per_pid[static_cast<std::size_t>(pid)] == per_pid[0];
    }
    if (uniform) {
      const auto& events = per_pid[0]->events;
      bool comm_free = true;
      for (const Event& event : events) {
        if (event.kind != EvKind::Compute && event.kind != EvKind::Busy) {
          comm_free = false;
          break;
        }
      }
      if (comm_free) {
        const std::uint64_t total =
            static_cast<std::uint64_t>(np) * events.size();
        if (budget != nullptr) {
          // Same total as the per-event charges below; a trip raises the
          // same GuardError from the same site.
          budget->charge_replay_events(total, "analytic-replay");
        }
        double clock = 0;
        for (const Event& event : events) {
          clock += event.elapsed;
        }
        finish.assign(static_cast<std::size_t>(np), clock);
        for (int pid = 0; pid < np; ++pid) {
          double& cell = node_demand[static_cast<std::size_t>(
              node[static_cast<std::size_t>(pid)])];
          for (const Event& event : events) {
            if (event.kind == EvKind::Compute) {
              cell += event.demand;
            }
          }
        }
        return total;
      }
    }
  }

  // The ledger, emptied: its mailboxes keep their capacity.
  std::vector<Mailbox>& ledger = ws.ledger;
  if (ledger.size() < static_cast<std::size_t>(np)) {
    ledger.resize(static_cast<std::size_t>(np));
  }
  for (std::size_t dst = 0; dst < static_cast<std::size_t>(np); ++dst) {
    ledger[dst].clear();
  }

  int waiting = 0;
  int finished = 0;
  bool progressed = true;
  while (finished < np && progressed) {
    progressed = false;
    for (int pid = 0; pid < np; ++pid) {
      ReplayProc& proc = procs[static_cast<std::size_t>(pid)];
      if (proc.finished || proc.at_barrier) {
        continue;
      }
      const auto& events = per_pid[static_cast<std::size_t>(pid)]->events;
      const int here = node[static_cast<std::size_t>(pid)];
      while (proc.cursor < events.size()) {
        const Event& event = events[proc.cursor];
        if (event.kind == EvKind::Compute) {
          proc.clock += event.elapsed;
          node_demand[static_cast<std::size_t>(here)] += event.demand;
        } else if (event.kind == EvKind::Busy) {
          proc.clock += event.elapsed;
        } else if (event.kind == EvKind::Send) {
          ledger[static_cast<std::size_t>(event.peer)].messages.push_back(
              {proc.clock, event.bytes, pid, event.tag, false});
        } else if (event.kind == EvKind::Recv) {
          const Message* message = ledger[static_cast<std::size_t>(pid)].take(
              event.peer, event.tag);
          if (message == nullptr) {
            break;  // blocked until the matching send is replayed
          }
          const bool same_node =
              node[static_cast<std::size_t>(event.peer)] == here;
          const double arrival =
              message->sent_at +
              machine::link_time(params, same_node, message->bytes);
          proc.clock = std::max(proc.clock, arrival);
        } else {  // Barrier
          proc.at_barrier = true;
          ++waiting;
          progressed = true;
          if (waiting == np) {
            double release = 0;
            for (const auto& other : procs) {
              release = std::max(release, other.clock);
            }
            for (int other = 0; other < np; ++other) {
              ReplayProc& peer = procs[static_cast<std::size_t>(other)];
              const auto& peer_events =
                  per_pid[static_cast<std::size_t>(other)]->events;
              peer.clock = release + peer_events[peer.cursor].elapsed;
              ++peer.cursor;
              ++replayed;
              peer.at_barrier = false;
            }
            waiting = 0;
            // This process's cursor advanced with everyone else's;
            // continue draining it.
            continue;
          }
          break;  // parked until the last participant arrives
        }
        ++proc.cursor;
        ++replayed;
        progressed = true;
        // One charge per delivered event keeps a huge (but deadlock-free)
        // replay bounded by max_replay_events and the deadline.
        if (budget != nullptr) {
          budget->charge_replay_events(1, "analytic-replay");
        }
      }
      if (!proc.at_barrier && proc.cursor >= events.size() &&
          !proc.finished) {
        proc.finished = true;
        ++finished;
      }
    }
  }

  if (finished < np) {
    std::ostringstream why;
    why << "communication deadlock during analytic replay:";
    for (int pid = 0; pid < np; ++pid) {
      const ReplayProc& proc = procs[static_cast<std::size_t>(pid)];
      if (proc.finished) {
        continue;
      }
      const auto& events = per_pid[static_cast<std::size_t>(pid)]->events;
      why << " p" << pid;
      if (proc.at_barrier) {
        why << " waits at a barrier;";
      } else if (proc.cursor < events.size() &&
                 events[proc.cursor].kind == EvKind::Recv) {
        why << " waits for a message from p" << events[proc.cursor].peer
            << ";";
      } else {
        why << " is blocked;";
      }
    }
    throw AnalyticError(why.str());
  }

  finish.resize(static_cast<std::size_t>(np));
  for (std::size_t pid = 0; pid < finish.size(); ++pid) {
    finish[pid] = procs[pid].clock;
  }
  return replayed;
}

// ---------------------------------------------------------------------------
// Report assembly: replay + bounds
// ---------------------------------------------------------------------------

/// Everything downstream of the symbolic walks of `ws.per_pid`:
/// dependency replay, the capacity/critical contention bounds, and the
/// report itself.  Shared verbatim by the scalar evaluate() and the
/// batched per-lane finalize, which is what makes batched predictions
/// bit-identical to scalar ones by construction.  Once the workspace is
/// warm it allocates the report's two vectors, plus the lock totals of a
/// model with critical sections.
AnalyticReport assemble_report(const machine::SystemParameters& params,
                               std::uint64_t elements,
                               obs::AnalyticCounters* counters,
                               guard::Budget* budget, Workspace& ws) {
  const int np = params.processes;
  AnalyticReport report;
  report.processes = np;
  report.evaluated_elements = elements;
  const std::uint64_t replayed =
      replay(params, budget, ws, report.per_process_finish);
  double schedule_bound = 0;
  for (const double finish : report.per_process_finish) {
    schedule_bound = std::max(schedule_bound, finish);
  }

  // Contention correction: a node's processors can serve at most
  // `processors_per_node` compute-seconds per second, so its total demand
  // divided by the server count lower-bounds the makespan (deterministic
  // M/M/k heavy-traffic limit).  Named critical sections serialize their
  // total lock-held demand the same way.
  const auto servers = static_cast<double>(params.processors_per_node);
  double capacity_bound = 0;
  for (const double demand : ws.node_demand) {
    capacity_bound = std::max(capacity_bound, demand / servers);
  }
  std::map<std::string, double> critical_totals;
  for (const auto* result : ws.per_pid) {
    for (const auto& [name, demand] : result->critical_demand) {
      critical_totals[name] += demand;
    }
  }
  double critical_bound = 0;
  for (const auto& [name, demand] : critical_totals) {
    critical_bound = std::max(critical_bound, demand);
  }
  const double makespan =
      std::max(schedule_bound, std::max(capacity_bound, critical_bound));
  report.predicted_time = makespan;

  if (counters != nullptr) {
    counters->events_replayed += replayed;
    // Which bound set the prediction; ties resolve toward the replayed
    // schedule (the capacity/critical corrections only "win" when they
    // exceed it).
    if (makespan <= schedule_bound) {
      ++counters->schedule_wins;
    } else if (capacity_bound >= critical_bound) {
      ++counters->capacity_wins;
    } else {
      ++counters->critical_wins;
    }
  }

  report.node_loads.reserve(ws.node_demand.size());
  for (const double demand : ws.node_demand) {
    NodeLoad load;
    load.compute_demand = demand;
    load.utilization = makespan > 0 ? demand / (servers * makespan) : 0;
    load.processes = 0;
    report.node_loads.push_back(load);
  }
  for (const int node : ws.node) {
    ++report.node_loads[static_cast<std::size_t>(node)].processes;
  }
  return report;
}
}  // namespace

// ---------------------------------------------------------------------------
// Impl: run set-up and the driver — walk, replay, bound
// ---------------------------------------------------------------------------

template <typename Lanes>
void AnalyticEstimator::Impl::start_run(EvalState& st) const {
  Workspace& ws = st.ws;
  const std::size_t width = Lanes::width(st.lanes.size());
  st.width = width;
  ws.global_values.assign(program->slot_count() * width, 0.0);
  ws.run_frame.assign(program->slot_count(), nullptr);
  st.functions = {program->functions(), ws.run_frame};
  for (std::size_t lane = 0; lane < width; ++lane) {
    const machine::SystemParameters& params = st.lanes[lane];
    ws.global_values[program->np_slot() * width + lane] =
        static_cast<double>(params.processes);
    ws.global_values[program->nt_slot() * width + lane] =
        static_cast<double>(params.threads_per_process);
    ws.global_values[program->nn_slot() * width + lane] =
        static_cast<double>(params.nodes);
    ws.global_values[program->ppn_slot() * width + lane] =
        static_cast<double>(params.processors_per_node);
  }
  for (const expr::Slot slot : {program->np_slot(), program->nt_slot(),
                                program->nn_slot(), program->ppn_slot()}) {
    ws.run_frame[slot] = &ws.global_values[slot * width];
  }
  // Global variables, initialized in declaration order and bound into
  // the run frame one by one (interpreter start_run semantics), with
  // pid = tid = 0 for every process.
  ws.bindings.clear();
  Walker<Lanes> globals(*this, st, nullptr);
  globals.frame = &ws.run_frame;
  globals.bindings = &ws.bindings;
  globals.bind_variables(uml::VariableScope::Global, ws.global_values.data());
}

template <typename Lanes>
void AnalyticEstimator::Impl::walk(EvalState& st, int pid,
                                   WalkResult* out) const {
  Workspace& ws = st.ws;
  ws.locals.assign(program->slot_count() * st.width, 0.0);
  ws.frame.assign(ws.run_frame.begin(), ws.run_frame.end());
  ws.bindings.clear();
  for (std::size_t lane = 0; lane < st.width; ++lane) {
    out[lane].clear();
  }
  std::uint64_t process_steps = 0;
  Walker<Lanes> walker(*this, st, out);
  walker.pid = pid;
  walker.frame = &ws.frame;
  walker.locals = ws.locals.data();
  walker.bindings = &ws.bindings;
  walker.process_steps = &process_steps;
  walker.walk_process();
}

template <typename Lanes, typename Sink>
void AnalyticEstimator::Impl::run_lanes(EvalState& st, Sink&& sink) const {
  for (const auto& params : st.lanes) {
    params.validate();
  }
  start_run<Lanes>(st);
  Workspace& ws = st.ws;
  const std::size_t width = st.width;
  const auto np = static_cast<std::size_t>(st.lanes[0].processes);
  // [pid * width + lane]: pid 0's walks, and the other pids' when pid 0's
  // does not serve every process.
  if (ws.walks.size() < width) {
    ws.walks.resize(width);
  }
  // Global initializers read pid = tid = 0 in every process; only the
  // walk's own reads decide whether one walk serves them all.
  st.pid_queried = false;
  walk<Lanes>(st, 0, ws.walks.data());
  // A walk that read no pid/tid and mutated no state is every process's
  // timeline, so it serves all np of each lane — the SPMD fast path
  // that makes grid sweeps cheap.
  const bool spmd = !st.pid_queried && st.fragments_executed == 0;
  if (spmd) {
    if (st.counters != nullptr) {
      st.counters->spmd_fast_path += width;
    }
  } else {
    // Only lanes of equal np share a run of a model that may get here.
    assert(!one_walk);
    if (ws.walks.size() < np * width) {
      ws.walks.resize(np * width);
    }
    for (std::size_t pid = 1; pid < np; ++pid) {
      walk<Lanes>(st, static_cast<int>(pid), &ws.walks[pid * width]);
    }
  }
  for (std::size_t lane = 0; lane < width; ++lane) {
    const machine::SystemParameters& params = st.lanes[lane];
    ws.per_pid.resize(static_cast<std::size_t>(params.processes));
    for (std::size_t pid = 0; pid < ws.per_pid.size(); ++pid) {
      ws.per_pid[pid] = &ws.walks[(spmd ? 0 : pid) * width + lane];
    }
    sink(lane, assemble_report(params, st.elements, st.counters, st.budget,
                               ws));
  }
}

AnalyticReport AnalyticEstimator::Impl::evaluate(
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  EvalState st{.ws = workspace(),
               .lanes = std::span(&params, 1),
               .counters = counters,
               .budget = budget};
  AnalyticReport report;
  run_lanes<ScalarLanes>(st, [&report](std::size_t, AnalyticReport&& lane) {
    report = std::move(lane);
  });
  return report;
}

std::vector<AnalyticReport> AnalyticEstimator::Impl::evaluate_batch(
    std::span<const machine::SystemParameters> lanes,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* lanes_fallback) const {
  std::vector<AnalyticReport> reports(lanes.size());
  Workspace& ws = workspace();
  // Walk groups are runs of consecutive lanes of equal np (row-major
  // grids keep np constant across consecutive jobs), or the whole chunk
  // when one walk serves any np.  Groups run in lane order, so the first
  // error raised is the scalar loop's.
  for (std::size_t begin = 0, end = 0; begin < lanes.size(); begin = end) {
    end = begin + 1;
    while (end < lanes.size() &&
           (one_walk || lanes[end].processes == lanes[begin].processes)) {
      ++end;
    }
    const auto group = lanes.subspan(begin, end - begin);
    if (group.size() > 1) {
      EvalState st{
          .ws = ws, .lanes = group, .counters = counters, .budget = budget};
      try {
        run_lanes<SoaLanes>(st,
                            [&](std::size_t lane, AnalyticReport&& report) {
                              reports[begin + lane] = std::move(report);
                            });
        continue;
      } catch (const guard::GuardError&) {
        throw;  // tripped budgets propagate — retrying would double-charge
      } catch (...) {
        // Divergence or a lane error: the scalar walk re-evaluates the
        // group's lanes exactly, raising any error with its scalar
        // message.
        if (lanes_fallback != nullptr) {
          *lanes_fallback += group.size();
        }
      }
    }
    // A group that fell back, or a lane with no neighbour of its np (no
    // batched walk was started for it, so it is not a fallback).
    for (std::size_t lane = begin; lane < end; ++lane) {
      reports[lane] = evaluate(lanes[lane], counters, budget);
    }
  }
  return reports;
}

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

std::string AnalyticReport::machine_report() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (std::size_t n = 0; n < node_loads.size(); ++n) {
    out << "node" << n << ": utilization " << node_loads[n].utilization
        << ", demand " << node_loads[n].compute_demand << " s, processes "
        << node_loads[n].processes << '\n';
  }
  return out.str();
}

std::string AnalyticReport::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(12);
  out << "predicted time: " << predicted_time << " s (analytic)\n";
  out << "processes:      " << processes << '\n';
  out << "elements:       " << evaluated_elements << '\n';
  for (std::size_t pid = 0; pid < per_process_finish.size(); ++pid) {
    out << "  p" << pid << " finished at " << per_process_finish[pid]
        << " s\n";
  }
  const std::string machine = machine_report();
  if (!machine.empty()) {
    out << "-- machine --\n" << machine;
  }
  return out.str();
}

AnalyticEstimator::AnalyticEstimator(const uml::Model& model) {
  try {
    impl_ = std::make_unique<Impl>(lower::lower(model));
  } catch (const lower::LowerError& error) {
    throw AnalyticError(error.what());
  }
}

AnalyticEstimator::AnalyticEstimator(uml::Model&& model) {
  try {
    impl_ = std::make_unique<Impl>(lower::lower(std::move(model)));
  } catch (const lower::LowerError& error) {
    throw AnalyticError(error.what());
  }
}

AnalyticEstimator::AnalyticEstimator(lower::ModelProgramPtr program) {
  if (program == nullptr) {
    throw AnalyticError("null model program");
  }
  impl_ = std::make_unique<Impl>(std::move(program));
}

AnalyticEstimator::~AnalyticEstimator() = default;

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params) const {
  return impl_->evaluate(params, nullptr, nullptr);
}

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params,
    obs::AnalyticCounters* counters) const {
  return impl_->evaluate(params, counters, nullptr);
}

AnalyticReport AnalyticEstimator::evaluate(
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  return impl_->evaluate(params, counters, budget);
}

std::vector<AnalyticReport> AnalyticEstimator::evaluate_batch(
    std::span<const machine::SystemParameters> params,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* lanes_fallback) const {
  return impl_->evaluate_batch(params, counters, budget, lanes_fallback);
}

lower::ModelProgramPtr AnalyticEstimator::lowering() const {
  return impl_->program;
}

}  // namespace prophet::analytic
