#include "prophet/analytic/analytic.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

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
/// — a loop collapses or re-emits its first trip only when its body never
/// looks at its trip variable.  (The bytecode analogue of the tree
/// walker's resolution-time marking: a reference in a short-circuited
/// subexpression now counts as a read, which can only disable a collapse
/// — the fallback per-iteration walk is always exact.)
struct LoopBinding {
  expr::Slot slot = 0;
  bool read = false;
};

/// Which SystemParameters fields beyond the ones every walk reads a
/// model's walks may read, decided in one pass over its lowering when
/// the estimator is built.  Lanes that agree on the fields a walk may
/// read walk alike (same_walk_input).
struct WalkSharing {
  /// The walk may read np: lanes of different np walk apart.
  bool reads_np = false;
  /// The walk may read nn or ppn: lanes of different nodes or
  /// processors_per_node walk apart.
  bool reads_topology = false;
};

/// Decides WalkSharing.  A walk reads np when
///  - one walk may not serve every process: a node-tag program, decision
///    guard or local initializer may read pid or tid, or a node carries a
///    code fragment, so pids 1..np-1 may be walked too (the SPMD check of
///    Impl::run);
///  - a node-tag program, decision guard, fragment value, variable
///    initializer or cost-function body references the np slot;
///  - a node is a Send or Recv (the peer rule bounds its rank by np), a
///    Barrier (its tree rounds) or a <<collective>> (its time and its
///    root's rule).
/// A walk reads the topology when a node is a <<collective>> (its round
/// time depends on nodes > 1), or a node-tag program, decision guard,
/// fragment value, variable initializer or cost-function body references
/// the nn or ppn slot.  Every other field it may read (cpu_speed, nt, the
/// network, memory and barrier fields) is compared always.
WalkSharing walk_sharing(const lower::ModelProgram& program) {
  WalkSharing sharing;
  // Notes what one program the walk may evaluate reads; `per_pid`: a
  // pid/tid read stops one walk from serving every process.
  const auto scan = [&](const expr::Compiled& code, bool per_pid) {
    if ((per_pid && code.may_read_pid_tid()) ||
        code.references_slot(program.np_slot())) {
      sharing.reads_np = true;
    }
    if (code.references_slot(program.nn_slot()) ||
        code.references_slot(program.ppn_slot())) {
      sharing.reads_topology = true;
    }
  };
  // Global initializers read pid = tid = 0 in every process.
  for (const auto& variable : program.variables()) {
    if (variable.initializer.has_value()) {
      scan(*variable.initializer,
           variable.scope == uml::VariableScope::Local);
    }
  }
  for (const auto& body : program.functions()) {
    scan(body, false);
  }
  for (const auto& diagram : program.diagrams()) {
    for (const auto& node : diagram.nodes) {
      if (node.op == Operation::Send || node.op == Operation::Recv ||
          node.op == Operation::Barrier) {
        sharing.reads_np = true;
      }
      if (node.op == Operation::Collective) {
        sharing.reads_np = true;
        sharing.reads_topology = true;
      }
      if (!node.fragment.empty()) {
        sharing.reads_np = true;
      }
      for (const auto& assignment : node.fragment) {
        scan(assignment.value, false);
      }
      for (const auto& tag : node.tags) {
        if (tag.has_value()) {
          scan(*tag, true);
        }
      }
      if (node.op != Operation::Decision) {
        continue;
      }
      for (const auto& branch : node.branches) {
        if (branch.guard != nullptr) {
          scan(*branch.guard, true);
        }
      }
    }
  }
  return sharing;
}

/// Per diagram: whether walking it may emit a Send, Recv or Barrier
/// event — it, or a diagram it nests, has a message, barrier or
/// collective node.  Only a loop whose body may communicate can re-emit
/// its trips (a compute-only trip collapses), so only its first trip is
/// taped.
std::vector<bool> communicating_diagrams(const lower::ModelProgram& program) {
  const auto diagrams = program.diagrams();
  std::vector<bool> communicates(diagrams.size(), false);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t d = 0; d < diagrams.size(); ++d) {
      for (const auto& node : diagrams[d].nodes) {
        if (!communicates[d] &&
            (node.op == Operation::Send || node.op == Operation::Recv ||
             node.op == Operation::Barrier ||
             node.op == Operation::Collective ||
             (node.body >= 0 &&
              communicates[static_cast<std::size_t>(node.body)]))) {
          communicates[d] = true;
          changed = true;
        }
      }
    }
  }
  return communicates;
}

/// True when scenarios `a` and `b` have the same walk input: they agree,
/// bit for bit, on every SystemParameters field the walk may read.  It
/// reads processes only when `sharing.reads_np`, and nodes and
/// processors_per_node only when `sharing.reads_topology`; the replay and
/// the bounds read every field of each lane themselves.
bool same_walk_input(const machine::SystemParameters& a,
                     const machine::SystemParameters& b,
                     const WalkSharing& sharing) {
  static_assert(sizeof(machine::SystemParameters) ==
                    4 * sizeof(int) + 7 * sizeof(double),
                "same_walk_input compares every SystemParameters field");
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return (!sharing.reads_np || a.processes == b.processes) &&
         a.threads_per_process == b.threads_per_process &&
         same(a.cpu_speed, b.cpu_speed) &&
         same(a.network_latency, b.network_latency) &&
         same(a.network_bandwidth, b.network_bandwidth) &&
         same(a.network_overhead, b.network_overhead) &&
         same(a.memory_latency, b.memory_latency) &&
         same(a.memory_bandwidth, b.memory_bandwidth) &&
         same(a.barrier_latency, b.barrier_latency) &&
         (!sharing.reads_topology ||
          (a.nodes == b.nodes &&
           a.processors_per_node == b.processors_per_node));
}

/// True when lanes `a` and `b`, walked from one walk input, replay alike.
/// replay() reads, of SystemParameters, np, each pid's node
/// (machine::node_of: pid / ceil(np / nn)) and link_time's memory and
/// network latency and bandwidth; everything else it reads is the walks.
/// So lanes that differ only in ppn, or in nodes without moving a
/// process, share one replay; the bound step reads ppn (the capacity
/// bound) and nodes (the size of node_loads) per lane.
bool same_replay_input(const machine::SystemParameters& a,
                       const machine::SystemParameters& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  // machine::node_of's block: ceil(np / nn) consecutive pids per node.
  const auto block = [](const machine::SystemParameters& params) {
    return (params.processes + params.nodes - 1) / params.nodes;
  };
  return a.processes == b.processes && block(a) == block(b) &&
         same(a.network_latency, b.network_latency) &&
         same(a.network_bandwidth, b.network_bandwidth) &&
         same(a.memory_latency, b.memory_latency) &&
         same(a.memory_bandwidth, b.memory_bandwidth);
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
  WalkResult result;
  std::vector<int> joins;  // a fork's join, per branch
  // A loop's first trip: the raw emissions of its walker, in order (the
  // emit_compute, emit_busy and emit_event calls it made, before they
  // coalesced), for Walker::emit_all to make again.
  std::vector<Event> tape;
};

/// What one replay yields: everything the bound step reads of it.
struct Replay {
  std::size_t lane = 0;             // the first lane it served: its key
  std::vector<double> finish;       // each process's clock, by pid
  std::vector<int> node;            // each process's node, by pid
  std::vector<double> node_demand;  // contended CPU seconds of each node
                                    // a process is placed on
  double schedule_bound = 0;        // the latest finish
  double critical_bound = 0;        // the largest total lock-held demand
  std::uint64_t events = 0;         // events consumed across all cursors
};

/// What a thread's walks (Workspace::walks) are the walks of, so that the
/// thread's next evaluate_batch call may serve its first walk input from
/// them (Impl::run).  Every walk clears `estimator` before it writes, so
/// a walk that throws keeps nothing.
struct WalkTag {
  std::uint64_t estimator = 0;      // Impl::id; 0: the walks serve nothing
  machine::SystemParameters input;  // the walk input
  bool spmd = false;                // pid 0's walk serves every process
  std::uint64_t elements = 0;       // model elements walked
  // Walked under a budget: `loop_trips` and `vm_instructions` are what
  // the walk charged, and a call with a budget is charged them again.
  bool budgeted = false;
  std::uint64_t loop_trips = 0;
  std::uint64_t vm_instructions = 0;
};

/// Every buffer an evaluation reads or writes.  There is one per thread
/// (workspace()), so the buffers keep their capacity across lanes,
/// inputs, chunks and sweeps, and a warm evaluation allocates only its
/// report (and, for a model with critical sections, each walk's map of
/// lock-held demand).
///
/// Thread contract: only one evaluation runs on a thread at a time —
/// nothing an evaluation calls (the expression VM, the workload rules,
/// the budget) calls back into an estimator — so the workspace needs no
/// lock and no reentrancy guard.  It holds buffers and the tag of its
/// walks: nothing borrowed from a call (lanes, counters, budget, the
/// estimator) outlives the call.  Every run re-initializes what it reads
/// except the walks its tag vouches for, because a lane error or a
/// guard::GuardError can leave it mid-walk, and the thread's next call
/// (the sweep re-runs a failed chunk lane by lane at once) reuses it.
struct Workspace {
  // A chunk's distinct walk inputs, each as the first lane that has it,
  // and each lane's index among them.
  std::vector<std::size_t> inputs;
  std::vector<std::size_t> input_of;
  // A run's globals and np/nt/nn/ppn in their own slots, and its frame:
  // slot -> binding.
  std::vector<double> global_values;
  std::vector<double*> run_frame;
  // Each process's walk, by pid, and what they are the walks of.
  std::vector<WalkResult> walks;
  WalkTag tag;
  // One pid walk: its locals (by slot), its copy of the run frame and its
  // loop bindings.
  std::vector<double> locals;
  std::vector<double*> frame;
  std::vector<LoopBinding> bindings;
  // Sub-walk buffers, one row per nesting depth.  A deque, so a row never
  // moves once made: the results a deeper walk writes to stay put while
  // rows are added under it.
  std::deque<SubWalkBuffers> sub_walks;
  // Replay: each process's timeline and cursor, and the ledger, one
  // mailbox per destination pid.  (A queue per (dst, src) pair would take
  // np^2 entries: 16.7 million at np=4096.)
  std::vector<const WalkResult*> per_pid;
  std::vector<ReplayProc> procs;
  std::vector<Mailbox> ledger;
  // An input's replays, one per distinct replay input of its lanes, in
  // order of their first lane.
  std::vector<Replay> replays;
};

/// The calling thread's workspace, freed at thread exit.  Generated
/// evaluators do not link this library (cgen::runtime_archives), so its
/// TLS destructor pins no evaluator object the way one in the simulator
/// runtime would.
Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// A number no other estimator of the process draws.
std::uint64_t next_estimator_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
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
  /// Which fields of SystemParameters a walk may read, decided once,
  /// here: lanes that agree on them share one walk.
  WalkSharing sharing;
  /// communicating_diagrams(), by diagram index.
  std::vector<bool> communicates;
  /// Tells this estimator's walks apart from every other's in a thread's
  /// workspace (WalkTag): drawn from a counter, never the address, which
  /// a later estimator may take.
  std::uint64_t id;

  /// State of the run of one walk input: the walk input itself and what
  /// every process's walk of it shares and counts (the globals, which
  /// code fragments update in pid order, live in the thread's Workspace,
  /// like every buffer).
  struct EvalState {
    Workspace& ws;
    const machine::SystemParameters& params;  // the walk input
    expr::FunctionTable functions{};  // the bodies, over the run frame
    std::uint64_t elements = 0;      // model elements walked
    std::uint64_t fragments_executed = 0;
    bool pid_queried = false;  // pid/tid reachable by an evaluated program
    obs::AnalyticCounters* counters = nullptr;  // null: counting disabled
    guard::Budget* budget = nullptr;            // null: unguarded
  };

  explicit Impl(lower::ModelProgramPtr p);

  /// Binds `st`'s run frame: the structural parameters, then the global
  /// variables.
  void start_run(EvalState& st) const;

  /// Walks process `pid` into `out`, one of the workspace's walks.
  void walk(EvalState& st, int pid, WalkResult& out) const;

  /// Walks `st`'s input into the workspace's walks: starts a run, walks
  /// pid 0 and, unless that walk serves every process, pids 1..np-1 in
  /// order.  Returns whether pid 0's walk serves every process.
  bool walk_input(EvalState& st) const;

  /// The one walk-replay-bound path, for evaluate() and evaluate_batch():
  /// validates every lane and gathers the lanes' distinct walk inputs
  /// (same_walk_input).  Each input is walked (walk_input), then replays
  /// each distinct replay input of its lanes once, and hands each of its
  /// lanes' reports, bounded from its replay, to `sink(lane, report)`.
  /// With `keep`, the first input is served from the thread's walks when
  /// their tag says they are this estimator's walks of it, and the last
  /// input walked is tagged for the thread's next call; without, the
  /// tag is neither read nor set.
  template <typename Sink>
  void run(std::span<const machine::SystemParameters> lanes,
           obs::AnalyticCounters* counters, guard::Budget* budget, bool keep,
           Sink&& sink) const;
};

AnalyticEstimator::Impl::Impl(lower::ModelProgramPtr p)
    : program(std::move(p)),
      sharing(walk_sharing(*program)),
      communicates(communicating_diagrams(*program)),
      id(next_estimator_id()) {}

namespace {

// ---------------------------------------------------------------------------
// Symbolic walk
// ---------------------------------------------------------------------------

/// Walks one process's control flow under one walk input, emitting
/// Events.
///
/// Sub-walkers (fork branches, parallel-region threads, critical bodies,
/// expectation branches, a loop's first trip) share the lexical state —
/// slot frame, locals storage, loop bindings — but write to their own
/// results so the parent can aggregate elapsed/demand.  The walk is
/// strictly sequential, so the shared frame needs no snapshotting
/// (unlike the coroutine interpreter's per-scope copies).
struct Walker {
  using Impl = AnalyticEstimator::Impl;
  using EvalState = Impl::EvalState;

  Walker(const Impl& impl_in, EvalState& st_in, WalkResult* out_in)
      : impl(impl_in), st(st_in), out(out_in) {}

  const Impl& impl;
  EvalState& st;
  WalkResult* out;        // null while binding globals (start_run)
  std::size_t depth = 0;  // sub-walk nesting: this walker's buffer row
  int pid = 0;
  int tid = 0;
  std::vector<double*>* frame = nullptr;  // shared per-process slot frame
  double* locals = nullptr;               // by slot
  std::vector<LoopBinding>* bindings = nullptr;
  int region_threads = 0;  // > 0 inside an <<ompparallel>> region
  bool allow_comm = true;
  bool allow_fragments = true;
  // Steps of the whole process's walk, sub-walks included: paces the
  // deadline checkpoint (the step limit counts per diagram walk).
  std::uint64_t* process_steps = nullptr;
  // Records this walker's emissions when set: a loop's first trip.
  std::vector<Event>* tape = nullptr;

  [[nodiscard]] const machine::SystemParameters& params() const {
    return st.params;
  }

  /// A sub-walker for nested concurrent constructs: shares the lexical
  /// state, writes to its own result, and may not communicate.
  [[nodiscard]] Walker sub(WalkResult& sub_out) const {
    Walker walker(impl, st, &sub_out);
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

  /// The cleared result of this walker's next sub-walk.  Every construct
  /// consumes it before it walks on or starts another sub-walk, which
  /// reuses it.
  [[nodiscard]] static WalkResult& sub_result(SubWalkBuffers& row) {
    row.result.clear();
    return row.result;
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

  /// Evaluates `program` as element `uid` of this walker's pid and tid.
  [[nodiscard]] double eval_program(const expr::Compiled& program,
                                    int uid) const {
    if (program.may_read_pid_tid()) {
      st.pid_queried = true;
    }
    mark_loop_reads(program);
    expr::EvalContext ctx;
    ctx.frame = *frame;
    ctx.functions = &st.functions;
    ctx.pid = static_cast<double>(pid);
    ctx.tid = static_cast<double>(tid);
    ctx.uid = static_cast<double>(uid);
    ctx.counters = st.counters != nullptr ? &st.counters->expr : nullptr;
    ctx.budget = st.budget;
    return program.eval(ctx);
  }

  /// The value of the node's `kind` tag program; absent tags are 0.0.
  [[nodiscard]] double eval_tag(const NodePrograms& node,
                                lower::TagKind kind) const {
    const auto& tag = node.tag(kind);
    return tag.has_value() ? eval_program(*tag, node.uid) : 0.0;
  }

  /// Applies the peer rule to `rank`, `node`'s `role` peer.
  void check_peer(const NodePrograms& node, workload::PeerRole role,
                  double rank) const {
    (void)workload::peer_rank(node.node->name(), role, static_cast<int>(rank),
                              params().processes);
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
    for (const auto& assignment : node.fragment) {
      const double value = eval_program(assignment.value, node.uid);
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
      target[assignment.slot] =
          assignment.coerce_int ? std::trunc(value) : value;
    }
  }

  // --- Event emission ------------------------------------------------------
  //
  // Every event reaches `out` through emit_compute, emit_busy or
  // emit_event, which is what a loop's tape records.

  void emit_compute(double elapsed, double demand) {
    if (std::isnan(elapsed) || elapsed < 0) {
      throw AnalyticError("negative or NaN compute cost");
    }
    if (tape != nullptr) {
      tape->push_back({EvKind::Compute, elapsed, demand, 0, 0, 0});
    }
    if (!out->events.empty() && out->events.back().kind == EvKind::Compute) {
      out->events.back().elapsed += elapsed;
      out->events.back().demand += demand;
      return;
    }
    out->events.push_back({EvKind::Compute, elapsed, demand, 0, 0, 0});
  }

  void emit_busy(double elapsed) {
    if (tape != nullptr) {
      tape->push_back({EvKind::Busy, elapsed, 0, 0, 0, 0});
    }
    if (!out->events.empty() && out->events.back().kind == EvKind::Busy) {
      out->events.back().elapsed += elapsed;
      return;
    }
    out->events.push_back({EvKind::Busy, elapsed, 0, 0, 0, 0});
  }

  /// Appends a Send, Recv or Barrier event.
  void emit_event(const Event& event) {
    out->events.push_back(event);
    if (tape != nullptr) {
      tape->push_back(event);
    }
  }

  /// Makes the emissions `events` hold again, in order: a sub-walk's
  /// events, re-coalescing adjacent Compute/Busy runs as they splice in,
  /// or a loop trip's tape.  A tape holds raw emissions, so each
  /// re-emitted trip's leading Compute run merges into the previous
  /// trip's last event as a walk would merge it, (c + a) + b; appending
  /// the coalesced trip instead would add c + (a + b).
  void emit_all(const std::vector<Event>& events) {
    for (const Event& event : events) {
      if (event.kind == EvKind::Compute) {
        emit_compute(event.elapsed, event.demand);
      } else if (event.kind == EvKind::Busy) {
        emit_busy(event.elapsed);
      } else {
        emit_event(event);
      }
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
    for (const auto& branch : node.branches) {
      if (branch.guard == nullptr) {
        continue;  // unguarded or `else` edge: never taken here
      }
      if (expr::truthy(eval_program(*branch.guard, node.uid))) {
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
    double max_elapsed = 0;
    double total_demand = 0;
    for (std::size_t i = 0; i < node.branches.size(); ++i) {
      if (node.branches[i].target < 0) {
        throw AnalyticError(node.defect);
      }
      WalkResult& branch = sub_result(row);
      Walker walker = sub(branch);
      walker.walk(diagram, node.branches[i].target, Operation::Join,
                  &joins[i]);
      max_elapsed = std::max(max_elapsed, sum_elapsed(branch.events));
      total_demand += sum_demand(branch.events);
      add_criticals(*out, branch, 1.0);
    }
    if (std::string error = lower::fork_join_error(diagram, node, joins);
        !error.empty()) {
      throw AnalyticError(error);
    }
    emit_compute(max_elapsed, total_demand);
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
    double expected_elapsed = 0;
    double expected_demand = 0;
    SubWalkBuffers& row = sub_buffers();
    for (std::size_t i = 0; i < branches.size(); ++i) {
      if (branches[i].target < 0) {
        throw AnalyticError("decision " + node.node->id() +
                            ": dangling edge");
      }
      const double weight = weight_of(branches[i]) / norm;
      int branch_merge = -1;
      WalkResult& branch = sub_result(row);
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
      expected_elapsed += weight * sum_elapsed(branch.events);
      expected_demand += weight * sum_demand(branch.events);
      add_criticals(*out, branch, weight);
    }
    emit_compute(expected_elapsed, expected_demand);
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
    switch (node.op) {
      case Operation::Compute: {
        double cost = eval_tag(node, TagKind::Cost);
        if (!node.cost().has_value() && node.time.has_value()) {
          cost = *node.time;
        }
        const double seconds = machine::compute_time(
            params(), workload::action_cost(node.node->name(), cost));
        emit_compute(seconds, seconds);
        return;
      }
      case Operation::Send: {
        require_comm(node);
        const double dest = eval_tag(node, TagKind::Dest);
        const double bytes = eval_tag(node, TagKind::Size);
        check_peer(node, workload::PeerRole::Dest, dest);
        emit_busy(params().network_overhead);
        emit_event({EvKind::Send, 0, 0, bytes, static_cast<int>(dest),
                    node.msgtag});
        return;
      }
      case Operation::Recv: {
        require_comm(node);
        const double source = eval_tag(node, TagKind::Source);
        check_peer(node, workload::PeerRole::Source, source);
        emit_event({EvKind::Recv, 0, 0, 0, static_cast<int>(source),
                    node.msgtag});
        return;
      }
      case Operation::Barrier:
        require_comm(node);
        emit_event(
            {EvKind::Barrier, machine::barrier_time(params()), 0, 0, 0, 0});
        return;
      case Operation::Collective: {
        require_comm(node);
        const double bytes = eval_tag(node, TagKind::Size);
        check_peer(node, workload::PeerRole::Root,
                   eval_tag(node, TagKind::Root));
        const double hold = workload::CollectiveElement::model_time(
            params(), node.collective, params().processes, bytes);
        emit_event({EvKind::Barrier, hold, 0, 0, 0, 0});
        return;
      }
      case Operation::OmpFor: {
        const double iterations = eval_tag(node, TagKind::Iterations);
        const double itercost = eval_tag(node, TagKind::IterCost);
        const int threads = region_threads > 0 ? region_threads : 1;
        const double compute = workload::workshare_compute(
            node.node->name(), iterations, itercost, node.schedule,
            node.chunk, threads, tid);
        const double seconds = machine::compute_time(params(), compute);
        emit_compute(seconds, seconds);
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
        WalkResult& body = sub_result(sub_buffers());
        Walker walker = sub(body);
        walker.run_diagram(node.body);
        // The body runs on this process's critical path; the lock-held
        // time additionally serializes against every other holder of
        // the lock.
        out->critical_demand[node.lock] += sum_elapsed(body.events);
        add_criticals(*out, body, 1.0);
        emit_all(body.events);
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
    const double requested =
        node.num_threads().has_value()
            ? eval_tag(node, lower::TagKind::NumThreads)
            : static_cast<double>(params().threads_per_process);
    const int threads = workload::region_threads(node.node->name(),
                                                 static_cast<int>(requested));
    double max_elapsed = 0;
    double total_demand = 0;
    SubWalkBuffers& row = sub_buffers();
    for (int thread = 0; thread < threads; ++thread) {
      WalkResult& thread_result = sub_result(row);
      Walker walker = sub(thread_result);
      walker.tid = thread;
      walker.region_threads = threads;
      walker.run_diagram(node.body);
      max_elapsed = std::max(max_elapsed, sum_elapsed(thread_result.events));
      total_demand += sum_demand(thread_result.events);
      add_criticals(*out, thread_result, 1.0);
    }
    emit_compute(max_elapsed, total_demand);
  }

  void execute_loop(const NodePrograms& node) {
    const std::int64_t iterations =
        workload::loop_trips(eval_tag(node, lower::TagKind::Iterations),
                             node.node->id())
            .trips;
    if (iterations == 0) {
      return;
    }
    bindings->push_back({node.loop_var_slot, false});
    double loop_value = 0;
    double* const saved = (*frame)[node.loop_var_slot];
    (*frame)[node.loop_var_slot] = &loop_value;

    // First iteration into a capture buffer.  A body that provably does
    // not read the trip variable and has no side effects walks every trip
    // alike, so the first trip stands for the rest.  A compute-only one
    // collapses: the remaining iterations are the first one times (n - 1)
    // — the symbolic trip-count resolution that keeps deep loop nests
    // O(body), not O(body * n).  One that communicates re-emits its first
    // trip's tape for each later trip instead of walking it.
    const std::uint64_t fragments_before = st.fragments_executed;
    const std::uint64_t elements_before = st.elements;
    const std::uint64_t trips_before =
        st.budget != nullptr ? st.budget->loop_trips() : 0;
    const std::uint64_t instructions_before =
        st.budget != nullptr ? st.budget->vm_instructions() : 0;
    SubWalkBuffers& row = sub_buffers();
    WalkResult& first = sub_result(row);
    // Only two or more trips of a body that may communicate have trips
    // to re-emit.
    std::vector<Event>* const tape =
        iterations > 1 && impl.communicates[static_cast<std::size_t>(node.body)]
            ? &row.tape
            : nullptr;
    if (tape != nullptr) {
      tape->clear();
    }
    {
      Walker walker = sub(first);
      walker.allow_comm = allow_comm;
      walker.tape = tape;
      walker.run_diagram(node.body);
    }
    const bool invariant = !bindings->back().read &&
                           st.fragments_executed == fragments_before;
    const bool collapsible = invariant && compute_only(first.events);
    if (collapsible && st.counters != nullptr) {
      ++st.counters->loop_collapses;
    }
    emit_all(first.events);
    add_criticals(*out, first, 1.0);
    if (collapsible) {
      const auto rest = static_cast<double>(iterations - 1);
      add_criticals(*out, first, rest);
      emit_compute(rest * sum_elapsed(first.events),
                   rest * sum_demand(first.events));
    } else if (invariant && tape != nullptr &&
               first.critical_demand.empty()) {
      // Each later trip counts the elements the first walked and charges
      // what it charged, so a budget trips the same limit at the same
      // stage on the same trip as walking each trip would.  (The tape
      // holds no lock-held demand: a trip with a critical section walks.)
      const std::uint64_t trip_elements = st.elements - elements_before;
      const std::uint64_t nested_trips =
          st.budget != nullptr ? st.budget->loop_trips() - trips_before : 0;
      const std::uint64_t instructions =
          st.budget != nullptr
              ? st.budget->vm_instructions() - instructions_before
              : 0;
      for (std::int64_t k = 1; k < iterations; ++k) {
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
          if (nested_trips > 0) {
            st.budget->charge_loop_trips(nested_trips, "analytic-loop");
          }
          if (instructions > 0) {
            st.budget->charge_vm_instructions(instructions, "expr-vm");
          }
        }
        emit_all(*tape);
        st.elements += trip_elements;
      }
      if (st.counters != nullptr) {
        st.counters->trips_reemitted +=
            static_cast<std::uint64_t>(iterations - 1);
      }
    } else {
      for (std::int64_t k = 1; k < iterations; ++k) {
        // Collapsed loops are O(1) and exempt; a non-collapsible body
        // replays per trip, so each trip is charged — this is where a
        // runaway trip count trips max_loop_trips (or the deadline).
        if (st.budget != nullptr) {
          st.budget->charge_loop_trips(1, "analytic-loop");
        }
        loop_value = static_cast<double>(k);
        run_diagram(node.body);
      }
    }
    (*frame)[node.loop_var_slot] = saved;
    bindings->pop_back();
  }

  /// Initializes the `scope` variables into `storage` (by slot) in
  /// declaration order, binding each into the frame as it goes (a forward
  /// reference falls through to globals/system parameters, like the tree
  /// walker's growing map).
  void bind_variables(uml::VariableScope scope, double* storage) {
    for (const auto& variable : impl.program->variables()) {
      if (variable.scope != scope) {
        continue;
      }
      const double value = variable.initializer.has_value()
                               ? eval_program(*variable.initializer, 0)
                               : 0.0;
      storage[variable.slot] = variable.coerce_int ? std::trunc(value) : value;
      (*frame)[variable.slot] = &storage[variable.slot];
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

/// Replays `ws.per_pid`'s timelines under `params`: fills `out`'s finish
/// times, nodes and node demand (of the nodes a process is placed on: the
/// others stay idle).  Returns the events consumed across all cursors.
std::uint64_t replay_timelines(const machine::SystemParameters& params,
                               guard::Budget* budget, Workspace& ws,
                               Replay& out) {
  const int np = params.processes;
  const auto& per_pid = ws.per_pid;
  std::vector<ReplayProc>& procs = ws.procs;
  procs.assign(static_cast<std::size_t>(np), ReplayProc{});
  std::vector<int>& node = out.node;
  node.resize(static_cast<std::size_t>(np));
  for (int pid = 0; pid < np; ++pid) {
    node[static_cast<std::size_t>(pid)] = machine::node_of(params, pid);
  }
  std::vector<double>& node_demand = out.node_demand;
  node_demand.assign(static_cast<std::size_t>(node.back() + 1), 0.0);
  std::vector<double>& finish = out.finish;
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

/// The replay step: replays `ws.per_pid`'s timelines under `params` into
/// `out` and takes the two bounds that read nothing else, the latest
/// finish and the largest total lock-held demand of a named critical
/// section (its holders serialize).
void replay(const machine::SystemParameters& params, guard::Budget* budget,
            Workspace& ws, Replay& out) {
  out.events = replay_timelines(params, budget, ws, out);
  out.schedule_bound = 0;
  for (const double finish : out.finish) {
    out.schedule_bound = std::max(out.schedule_bound, finish);
  }
  std::map<std::string, double> critical_totals;
  for (const auto* result : ws.per_pid) {
    for (const auto& [name, demand] : result->critical_demand) {
      critical_totals[name] += demand;
    }
  }
  out.critical_bound = 0;
  for (const auto& [name, demand] : critical_totals) {
    out.critical_bound = std::max(out.critical_bound, demand);
  }
}

// ---------------------------------------------------------------------------
// Report assembly: the bounds
// ---------------------------------------------------------------------------

/// The bound step: the report of lane `params`, whose placement `replay`
/// replayed.  Shared verbatim by the scalar evaluate() and every batched
/// lane, which is what makes batched predictions bit-identical to scalar
/// ones by construction.  It allocates the report's two vectors.
AnalyticReport bound(const machine::SystemParameters& params,
                     const Replay& replay, std::uint64_t elements,
                     obs::AnalyticCounters* counters) {
  AnalyticReport report;
  report.processes = params.processes;
  report.evaluated_elements = elements;
  report.per_process_finish = replay.finish;

  // Contention correction: a node's processors can serve at most
  // `processors_per_node` compute-seconds per second, so its total demand
  // divided by the server count lower-bounds the makespan (deterministic
  // M/M/k heavy-traffic limit).  Named critical sections serialize their
  // total lock-held demand the same way.
  const auto servers = static_cast<double>(params.processors_per_node);
  double capacity_bound = 0;
  for (const double demand : replay.node_demand) {
    capacity_bound = std::max(capacity_bound, demand / servers);
  }
  const double schedule_bound = replay.schedule_bound;
  const double critical_bound = replay.critical_bound;
  const double makespan =
      std::max(schedule_bound, std::max(capacity_bound, critical_bound));
  report.predicted_time = makespan;

  if (counters != nullptr) {
    counters->events_replayed += replay.events;
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

  // One load per node of the lane, idle ones included.
  report.node_loads.reserve(static_cast<std::size_t>(params.nodes));
  for (std::size_t n = 0; n < static_cast<std::size_t>(params.nodes); ++n) {
    NodeLoad load;
    load.compute_demand =
        n < replay.node_demand.size() ? replay.node_demand[n] : 0.0;
    load.utilization =
        makespan > 0 ? load.compute_demand / (servers * makespan) : 0;
    load.processes = 0;
    report.node_loads.push_back(load);
  }
  for (const int node : replay.node) {
    ++report.node_loads[static_cast<std::size_t>(node)].processes;
  }
  return report;
}
}  // namespace

// ---------------------------------------------------------------------------
// Impl: run set-up and the driver — walk, replay, bound
// ---------------------------------------------------------------------------

void AnalyticEstimator::Impl::start_run(EvalState& st) const {
  Workspace& ws = st.ws;
  ws.global_values.assign(program->slot_count(), 0.0);
  ws.run_frame.assign(program->slot_count(), nullptr);
  st.functions = {program->functions(), ws.run_frame};
  ws.global_values[program->np_slot()] =
      static_cast<double>(st.params.processes);
  ws.global_values[program->nt_slot()] =
      static_cast<double>(st.params.threads_per_process);
  ws.global_values[program->nn_slot()] = static_cast<double>(st.params.nodes);
  ws.global_values[program->ppn_slot()] =
      static_cast<double>(st.params.processors_per_node);
  for (const expr::Slot slot : {program->np_slot(), program->nt_slot(),
                                program->nn_slot(), program->ppn_slot()}) {
    ws.run_frame[slot] = &ws.global_values[slot];
  }
  // Global variables, initialized in declaration order and bound into
  // the run frame one by one (interpreter start_run semantics), with
  // pid = tid = 0 for every process.
  ws.bindings.clear();
  Walker globals(*this, st, nullptr);
  globals.frame = &ws.run_frame;
  globals.bindings = &ws.bindings;
  globals.bind_variables(uml::VariableScope::Global, ws.global_values.data());
}

void AnalyticEstimator::Impl::walk(EvalState& st, int pid,
                                   WalkResult& out) const {
  Workspace& ws = st.ws;
  ws.tag.estimator = 0;  // the walks are no longer what the tag says
  ws.locals.assign(program->slot_count(), 0.0);
  ws.frame.assign(ws.run_frame.begin(), ws.run_frame.end());
  ws.bindings.clear();
  out.clear();
  std::uint64_t process_steps = 0;
  Walker walker(*this, st, &out);
  walker.pid = pid;
  walker.frame = &ws.frame;
  walker.locals = ws.locals.data();
  walker.bindings = &ws.bindings;
  walker.process_steps = &process_steps;
  walker.walk_process();
}

bool AnalyticEstimator::Impl::walk_input(EvalState& st) const {
  Workspace& ws = st.ws;
  start_run(st);
  if (ws.walks.empty()) {
    ws.walks.resize(1);
  }
  // Global initializers read pid = tid = 0 in every process; only the
  // walk's own reads decide whether one walk serves them all.
  st.pid_queried = false;
  walk(st, 0, ws.walks[0]);
  // A walk that read no pid/tid and mutated no state is every process's
  // timeline, so it serves all np of each of the input's lanes — the
  // SPMD fast path that makes grid sweeps cheap.  Otherwise the model
  // reads np (WalkSharing), so the input's lanes share its np.
  const bool spmd = !st.pid_queried && st.fragments_executed == 0;
  if (!spmd) {
    const auto np = static_cast<std::size_t>(st.params.processes);
    if (ws.walks.size() < np) {
      ws.walks.resize(np);
    }
    for (std::size_t pid = 1; pid < np; ++pid) {
      walk(st, static_cast<int>(pid), ws.walks[pid]);
    }
  }
  return spmd;
}

template <typename Sink>
void AnalyticEstimator::Impl::run(
    std::span<const machine::SystemParameters> lanes,
    obs::AnalyticCounters* counters, guard::Budget* budget, bool keep,
    Sink&& sink) const {
  Workspace& ws = workspace();
  // Each lane's walk input: the first lane it shares a walk with
  // (same_walk_input), found by scanning the inputs gathered so far.
  ws.inputs.clear();
  ws.input_of.clear();
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    lanes[lane].validate();
    std::size_t input = 0;
    while (input < ws.inputs.size() &&
           !same_walk_input(lanes[ws.inputs[input]], lanes[lane], sharing)) {
      ++input;
    }
    if (input == ws.inputs.size()) {
      ws.inputs.push_back(lane);
    }
    ws.input_of.push_back(input);
  }
  for (std::size_t input = 0; input < ws.inputs.size(); ++input) {
    const std::size_t first = ws.inputs[input];
    EvalState st{.ws = ws,
                 .params = lanes[first],
                 .counters = counters,
                 .budget = budget};
    WalkTag& tag = ws.tag;
    bool spmd = false;
    // The workspace holds the walks of the last input walked, which for
    // the first input are the thread's previous call's: they serve it
    // when they are this estimator's walks of it, made under a budget if
    // this call has one, so that what they charged is known.  (A later
    // input differs from the one walked before it.)  They are charged
    // again, loop trips then instructions, as a re-emitted trip is; their
    // VM activity is not counted again.
    if (keep && tag.estimator == id &&
        (budget == nullptr || tag.budgeted) &&
        same_walk_input(tag.input, st.params, sharing)) {
      if (budget != nullptr && tag.loop_trips > 0) {
        budget->charge_loop_trips(tag.loop_trips, "analytic-loop");
      }
      if (budget != nullptr && tag.vm_instructions > 0) {
        budget->charge_vm_instructions(tag.vm_instructions, "expr-vm");
      }
      if (counters != nullptr) {
        ++counters->walks_kept;
      }
      st.elements = tag.elements;
      spmd = tag.spmd;
    } else {
      const std::uint64_t trips_before =
          budget != nullptr ? budget->loop_trips() : 0;
      const std::uint64_t instructions_before =
          budget != nullptr ? budget->vm_instructions() : 0;
      spmd = walk_input(st);
      if (keep) {
        tag = {.estimator = id,
               .input = st.params,
               .spmd = spmd,
               .elements = st.elements,
               .budgeted = budget != nullptr,
               .loop_trips = budget != nullptr
                                 ? budget->loop_trips() - trips_before
                                 : 0,
               .vm_instructions =
                   budget != nullptr
                       ? budget->vm_instructions() - instructions_before
                       : 0};
      }
    }
    // Each distinct replay input of the input's lanes (same_replay_input)
    // replays once, for the first lane it serves; every lane takes its
    // own bound step.
    std::size_t held = 0;
    for (std::size_t lane = first; lane < lanes.size(); ++lane) {
      if (ws.input_of[lane] != input) {
        continue;
      }
      const machine::SystemParameters& params = lanes[lane];
      std::size_t r = 0;
      while (r < held &&
             !same_replay_input(lanes[ws.replays[r].lane], params)) {
        ++r;
      }
      if (r == held) {
        if (ws.replays.size() == held) {
          ws.replays.emplace_back();
        }
        ++held;
        ws.replays[r].lane = lane;
        ws.per_pid.resize(static_cast<std::size_t>(params.processes));
        for (std::size_t pid = 0; pid < ws.per_pid.size(); ++pid) {
          ws.per_pid[pid] = &ws.walks[spmd ? 0 : pid];
        }
        replay(params, budget, ws, ws.replays[r]);
      } else {
        // The lane is charged the events its own replay would consume.
        if (budget != nullptr) {
          budget->charge_replay_events(ws.replays[r].events,
                                       "analytic-replay");
        }
        if (counters != nullptr) {
          ++counters->replays_shared;
        }
      }
      if (spmd && counters != nullptr) {
        ++counters->spmd_fast_path;
      }
      sink(lane, bound(params, ws.replays[r], st.elements, counters));
    }
  }
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
    const machine::SystemParameters& params, obs::AnalyticCounters* counters,
    guard::Budget* budget) const {
  AnalyticReport report;
  impl_->run(std::span(&params, 1), counters, budget, /*keep=*/false,
             [&report](std::size_t, AnalyticReport&& lane) {
               report = std::move(lane);
             });
  return report;
}

std::vector<AnalyticReport> AnalyticEstimator::evaluate_batch(
    std::span<const machine::SystemParameters> params,
    obs::AnalyticCounters* counters, guard::Budget* budget,
    std::size_t* /*never written*/) const {
  std::vector<AnalyticReport> reports(params.size());
  impl_->run(params, counters, budget, /*keep=*/true,
             [&reports](std::size_t lane, AnalyticReport&& report) {
               reports[lane] = std::move(report);
             });
  return reports;
}

lower::ModelProgramPtr AnalyticEstimator::lowering() const {
  return impl_->program;
}

}  // namespace prophet::analytic
