// Shared model lowering — one UML -> executable-form transformation
// behind every evaluation backend and the model checker.
//
// The paper's thesis is that *transforming* the UML model into an
// executable C++ form is what makes evaluation fast.  This module owns
// that transformation for the in-process backends: a `ModelProgram`
// turns any `uml::Model` into an immutable program — the model-wide
// slot space, every expression tag/guard/initializer/function body
// compiled to slot-resolved bytecode (expr::compile), code fragments
// with statically resolved write targets, the static metadata the
// analytic backend's loop-collapse/SPMD legality checks read, and each
// node's resolved behaviour: its operation, constant tags, body diagram
// and successors.  What cannot be lowered (an expression that does not
// parse, a missing body diagram, cyclic nesting, ...) is recorded in
// `problems()` and left out; `lower()` throws the first problem.
//
// Backends do not lower; they consume a `ModelProgram` without problems
// (`shared_ptr<const>` — any number of backends and threads share one
// lowering without synchronization) and keep only their per-run state.
// The interpreter (simulation backend), the analytic estimator and the
// paper's transformer, whose output the codegen engine compiles, switch
// on the resolved operations and follow the resolved successors, so none
// of them decodes a stereotype, reads a tag by name or searches a
// diagram's edges, and their semantics cannot drift apart; the model
// checker reads the same program.  docs/lowering.md documents the
// phases, the slot-binding rules and the metadata contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "prophet/expr/compile.hpp"
#include "prophet/obs/obs.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/workload/runtime.hpp"

namespace prophet::lower {

/// Error lower() throws when a model cannot be lowered, with the text of
/// its first Problem.  Backends wrap it in their own error type
/// (interp::InterpretError, analytic::AnalyticError) with the message
/// preserved verbatim, so diagnostics are identical across consumers.
class LowerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What kind of defect a Problem records.
enum class ProblemKind : std::uint8_t {
  Initializer,  ///< a variable's initializer does not parse
  Function,     ///< a cost-function body does not parse
  Guard,        ///< a guard does not parse
  Tag,          ///< an expression tag does not parse
  Fragment,     ///< a code-fragment statement is no parseable assignment
  Body,         ///< a composite node's body diagram is missing or unknown
  MainDiagram,  ///< the model has no resolvable main diagram
  Nesting,      ///< a diagram nests itself, directly or through others
};

/// One defect lowering found: its texts and the element it names (the
/// pointers its kind uses; null otherwise).  What failed is left out of
/// the program: no program for that tag or guard, an empty body at that
/// function id, `body = -1`, `entry() = -1`.
struct Problem {
  ProblemKind kind = ProblemKind::Tag;  ///< what failed
  /// The text lower() throws ("guard of edge f2: expression syntax error
  /// at offset 3: ...").
  std::string message = {};
  /// The parser's message (for a fragment, the statement's defect);
  /// empty for Body, MainDiagram and Nesting.
  std::string detail = {};
  /// The diagram holding the element (Nesting: the nesting diagram).
  const uml::ActivityDiagram* diagram = nullptr;
  const uml::Node* node = nullptr;              ///< Tag, Fragment, Body, Nesting
  const uml::ControlFlow* edge = nullptr;       ///< Guard
  const uml::Variable* variable = nullptr;      ///< Initializer
  const uml::CostFunction* function = nullptr;  ///< Function
  std::string_view tag = {};                    ///< Tag: the tag's name
};

/// The expression-valued tags an evaluation site reads, as a dense enum.
/// One table row in `lower.cpp` maps each tag name to its kind — adding
/// a tag is one row there plus its value here, not an edit in every
/// backend.
enum class TagKind : std::uint8_t {
  Cost,        ///< `cost` on <<action+>>
  Dest,        ///< `dest` on <<send>>
  Source,      ///< `source` on <<recv>>
  Size,        ///< `size` on sends/recvs/collectives
  Root,        ///< `root` on rooted collectives
  Iterations,  ///< `iterations` on <<loop+>> / <<ompfor>>
  IterCost,    ///< `itercost` on <<ompfor>>
  NumThreads,  ///< `num_threads` on <<ompparallel>>
};

/// Number of TagKind values (size of the per-node program array).
inline constexpr std::size_t kTagKindCount = 8;

/// The TagKind for a tag name (uml::tag spelling), or nullopt for tags
/// no evaluation site reads as an expression.
[[nodiscard]] std::optional<TagKind> tag_kind(std::string_view name);

/// The uml::tag spelling of a kind (inverse of tag_kind()).
[[nodiscard]] std::string_view tag_name(TagKind kind);

/// A code-fragment assignment with its write target resolved at lowering
/// time: `Local` writes per-process storage, `Global` writes run-shared
/// storage, `Undeclared` raises the walker's "assigns undeclared
/// variable" error if (and only if) the fragment executes.
struct CompiledAssignment {
  /// Statically resolved storage class of the assignment target.
  enum class Target : std::uint8_t {
    Local,       ///< a declared per-process variable
    Global,      ///< a declared run-shared variable
    Undeclared,  ///< no declaration — executing it is an error
  };
  /// Assignment target name (diagnostics only; the slot is resolved).
  std::string name;
  /// Resolved storage class.
  Target target = Target::Undeclared;
  /// Slot of the target variable (valid unless Undeclared).
  expr::Slot slot = 0;
  /// True when the declared variable is Integer-typed: assigned values
  /// truncate, exactly like the generated C++'s `long` variables.
  bool coerce_int = false;
  /// The right-hand side, compiled against the model's node table.
  expr::Compiled value;
};

/// What a node does when a walk reaches it: its NodeKind and, for
/// actions and activities, its stereotype, decoded once by lower().
/// The control operations come first, through Join (is_control).
enum class Operation : std::uint8_t {
  Initial,      ///< starts a diagram walk
  Final,        ///< ends the walk
  Merge,        ///< passes control on
  Decision,     ///< first holding guard wins, else the `else` edge
  Fork,         ///< runs its branches up to their common join
  Join,         ///< ends a fork branch; passes control on otherwise
  Compute,      ///< <<action+>> or an unstereotyped action
  Send,         ///< <<send>>
  Recv,         ///< <<recv>>
  Barrier,      ///< <<barrier>>
  Collective,   ///< <<broadcast>>, <<reduce>>, <<allreduce>>, ...
  OmpFor,       ///< <<ompfor>>
  OmpBarrier,   ///< <<ompbarrier>>
  Region,       ///< <<ompparallel>> activity: a parallel region
  Critical,     ///< <<ompcritical>> activity: a critical section
  Inline,       ///< any other activity: its body runs inline
  Loop,         ///< <<loop+>>: counted trips of its body
  Unsupported,  ///< an action with a stereotype no engine executes
};

/// True for the nodes Fig. 5's flow maps to control structure; every
/// other operation is a performance modeling element.
[[nodiscard]] constexpr bool is_control(Operation op) {
  return op <= Operation::Join;
}

/// The stereotype an action operation is decoded from (the inverse of
/// lower()'s one decoding table, for diagnostics); empty for operations
/// that are not actions.
[[nodiscard]] std::string_view stereotype_name(
    Operation op, workload::CollectiveKind collective);

/// One outgoing edge of a decision or fork, resolved (edge order kept:
/// it fixes guard evaluation order and branch order).
struct Branch {
  /// The edge (element id for diagnostics).
  const uml::ControlFlow* edge = nullptr;
  /// Index of the target node in the diagram; -1 when the edge dangles.
  int target = -1;
  /// Compiled guard; null for unguarded and `else` edges.
  const expr::Compiled* guard = nullptr;
  /// The edge is the `else` edge.
  bool is_else = false;
  /// The edge's `prob` tag (the analytic backend's branch weight).
  std::optional<double> prob;
};

/// Everything an evaluation site needs at one node, pre-resolved: the
/// node's uid, the compiled programs of its expression tags, its code
/// fragment, (for <<loop+>> nodes) the loop-variable slot, and its
/// behaviour — operation, constant tags, body diagram and successors.
struct NodePrograms {
  /// Numeric element uid (explicit `id` tag, else a stable 1-based
  /// index skipping claimed values).
  int uid = 0;
  /// Slot of the loop variable bound by this node (Loop nodes only).
  expr::Slot loop_var_slot = 0;
  /// Compiled expression tags, indexed by TagKind; absent entries mean
  /// the tag is missing or empty on this node.
  std::array<std::optional<expr::Compiled>, kTagKindCount> tags;
  /// The node's code fragment as resolved assignments (execution order).
  std::vector<CompiledAssignment> fragment;

  /// The lowered node (element id and name for diagnostics and records).
  const uml::Node* node = nullptr;
  /// What the node does.
  Operation op = Operation::Unsupported;
  /// Collective: which collective.
  workload::CollectiveKind collective = workload::CollectiveKind::Broadcast;
  /// Compute: the `time` tag, the cost when the node has no `cost`.
  std::optional<double> time;
  /// Send/Recv: the message `tag` (0 when absent).
  int msgtag = 0;
  /// OmpFor: the `schedule` ("static" when absent or empty).
  std::string schedule;
  /// OmpFor: the `chunk` size (0 when absent).
  std::int64_t chunk = 0;
  /// Critical: the lock name (`name` tag, "default" when absent or empty).
  std::string lock;
  /// Region/Critical/Inline/Loop: index of the body diagram in
  /// ModelProgram::diagrams().
  int body = -1;
  /// Nodes other than decisions and forks: index of the one successor;
  /// -1 when the walk ends here (no outgoing edge, or it dangles).
  int next = -1;
  /// Decisions and forks: every outgoing edge, in edge order.
  std::vector<Branch> branches;
  /// Decision: index in `branches` of the first `else` edge, -1 if none.
  int fallback = -1;
  /// Decision: some outgoing edge carries `prob`.
  bool probabilistic = false;
  /// The error a walk raises when it reaches this node's defect, empty
  /// when there is none: an unsupported action (raised after the
  /// fragment), several outgoing edges (raised after the node runs), a
  /// decision without `else` (raised when no guard holds) or a fork with
  /// a dangling edge (raised at that branch).
  std::string defect;
  /// Join with several outgoing edges: the error raised when a fork's
  /// walk resumes past it (a plain walk over the join raises `defect`).
  std::string join_defect;

  /// The compiled program of `kind`, absent when the node lacks the tag.
  [[nodiscard]] const std::optional<expr::Compiled>& tag(
      TagKind kind) const {
    return tags[static_cast<std::size_t>(kind)];
  }
  /// `cost` program (TagKind::Cost).
  [[nodiscard]] const std::optional<expr::Compiled>& cost() const {
    return tag(TagKind::Cost);
  }
  /// `num_threads` program (TagKind::NumThreads).
  [[nodiscard]] const std::optional<expr::Compiled>& num_threads() const {
    return tag(TagKind::NumThreads);
  }
};

/// One diagram's lowered control flow.
struct DiagramProgram {
  /// The lowered diagram (element id for diagnostics).
  const uml::ActivityDiagram* diagram = nullptr;
  /// Its nodes in diagram order; successor indices point into this.
  std::vector<NodePrograms> nodes;
  /// Index of the initial node; -1 when the diagram has none.
  int initial = -1;
  /// Steps one walk of this diagram may take before it is declared a
  /// runaway (1e6 + 1000 per node); every engine counts per walk.
  std::uint64_t step_limit = 0;
  /// "diagram D has no initial node" when initial < 0, raised when a
  /// walk of the diagram starts.
  std::string defect;
};

/// The error a walk raises when fork `fork`'s branches did not all reach
/// one join (`joins[i]`: index in `diagram` of the join branch i stopped
/// at, -1 for none); empty when they did.
[[nodiscard]] std::string fork_join_error(const DiagramProgram& diagram,
                                          const NodePrograms& fork,
                                          std::span<const int> joins);

/// A model variable, pre-resolved (declaration order preserved — the
/// run/process initialization order backends must follow).
struct CompiledVariable {
  /// Declared name (diagnostics and introspection).
  std::string name;
  /// The variable's slot in the model-wide slot space.
  expr::Slot slot = 0;
  /// Global (run-shared) or Local (per-process) storage.
  uml::VariableScope scope = uml::VariableScope::Global;
  /// True when the variable is Integer-typed: its initial value
  /// truncates, like every assignment to it.
  bool coerce_int = false;
  /// Compiled initializer; absent means zero-initialize.
  std::optional<expr::Compiled> initializer;
};

/// What lowering produced, from the single source of truth — surfaced
/// through PreparedModel::lowering()->stats(), the sweep's lower.*
/// metrics and `prophetc estimate --timings`.
struct LoweringStats {
  /// Seconds spent in expr::compile (a subset of the lower() wall time).
  double expr_compile_seconds = 0;
  /// Bytecode programs produced (tags, guards, initializers,
  /// cost-function bodies, fragment assignments).
  std::size_t expr_programs = 0;
  /// Nodes lowered (every node of every diagram gets a NodePrograms).
  std::size_t nodes = 0;
  /// Slots in the model-wide slot space.
  std::size_t slots = 0;
  /// Compiled guards (guarded, non-else control-flow edges).
  std::size_t guards = 0;
  /// Compiled cost-function bodies.
  std::size_t functions = 0;
  /// Declared model variables.
  std::size_t variables = 0;
  /// Code-fragment assignments across all nodes.
  std::size_t fragment_assignments = 0;
  /// Total bytecode size across all programs, in bytes.
  std::size_t bytecode_bytes = 0;
};

/// Folds `stats` into `metrics` under "lower." — the cells a sweep's
/// `--metrics` exports and `prophetc estimate --timings` prints.
void fold(obs::Registry& metrics, const LoweringStats& stats);

/// The immutable executable form of a model — everything every backend
/// shares, produced once by lower().
///
/// A ModelProgram is written only by its constructor and read-only
/// afterwards: any number of backends on any number of threads consume
/// one program concurrently without synchronization (the
/// `shared_ptr<const ModelProgram>` handle estimator::PreparedModel
/// exposes).  Per-run state — bound system parameters, global/local
/// storage, clocks — lives in the consuming backend, never here.
///
/// Node programs are keyed by `const uml::Node*` and guards by
/// `const uml::ControlFlow*`; both are heap-allocated and owned through
/// the model's diagram list, so the keys (and the Branch::edge
/// pointers) are stable for the model's lifetime (including across a
/// move of the Model object itself).
class ModelProgram {
 public:
  /// Lowers `model`, borrowing it (see lower() for the owning form).
  /// Lowers any model, however malformed: every unparseable expression,
  /// malformed fragment, unresolvable diagram reference, cyclic nesting
  /// and missing main diagram is recorded in problems() and left out.
  /// Engines take only programs without problems (what lower() returns).
  explicit ModelProgram(const uml::Model& model);

  /// Every defect found, in the order lowering met it (the first is what
  /// lower() throws); empty when the model lowered completely.
  [[nodiscard]] std::span<const Problem> problems() const {
    return problems_;
  }

  /// The lowered model (borrowed or owned; never null).
  [[nodiscard]] const uml::Model& model() const { return *model_; }

  /// The model-wide symbol table node-scope programs were compiled
  /// against: one slot per bindable name (declared variables, loop
  /// variables, np/nt/nn/ppn) plus the pid/tid/uid ambients with
  /// slot-shadowing fallbacks.
  [[nodiscard]] const expr::SymbolTable& symbols() const {
    return node_table_;
  }

  /// Slots in the model-wide slot space (the frame size every consumer
  /// must allocate).
  [[nodiscard]] std::size_t slot_count() const { return nslots_; }

  /// Slot of the `np` (process count) structural parameter.
  [[nodiscard]] expr::Slot np_slot() const { return slot_np_; }
  /// Slot of the `nt` (threads per process) structural parameter.
  [[nodiscard]] expr::Slot nt_slot() const { return slot_nt_; }
  /// Slot of the `nn` (node count) structural parameter.
  [[nodiscard]] expr::Slot nn_slot() const { return slot_nn_; }
  /// Slot of the `ppn` (processors per node) structural parameter.
  [[nodiscard]] expr::Slot ppn_slot() const { return slot_ppn_; }

  /// Declared model variables in declaration order (the initialization
  /// order run/process start-up must follow).
  [[nodiscard]] std::span<const CompiledVariable> variables() const {
    return variables_;
  }

  /// Compiled cost-function bodies, indexed by function id (the id
  /// expr::Op::CallUser carries and function_id() returns).
  [[nodiscard]] std::span<const expr::Compiled> functions() const {
    return functions_;
  }

  /// Function id of a cost function by name, if declared.
  [[nodiscard]] std::optional<int> function_id(std::string_view name) const;

  /// Every diagram's lowered control flow, in model diagram order.
  [[nodiscard]] std::span<const DiagramProgram> diagrams() const {
    return diagrams_;
  }

  /// Index in diagrams() of the main diagram, where every process starts
  /// (-1 when the model has none: a ProblemKind::MainDiagram problem).
  [[nodiscard]] int entry() const { return entry_; }

  /// The compiled guard of `edge`, on any edge of the model; null for
  /// unguarded and `else` edges and for a guard that does not parse.
  [[nodiscard]] const expr::Compiled* guard(
      const uml::ControlFlow& edge) const {
    const auto it = guards_.find(&edge);
    return it == guards_.end() ? nullptr : &it->second;
  }

  /// The lowered programs of `node` (keyed access; engines walk
  /// diagrams() instead).  Every node of every diagram of the model has
  /// an entry; passing a foreign node throws std::out_of_range.
  [[nodiscard]] const NodePrograms& at(const uml::Node& node) const {
    return *nodes_.at(&node);
  }

  /// The uid assigned to the node with element id `node_id`.  Throws
  /// LowerError for unknown ids.
  [[nodiscard]] int uid_of(const std::string& node_id) const;

  /// What lowering produced (see LoweringStats).
  [[nodiscard]] const LoweringStats& stats() const { return stats_; }

 private:
  friend std::shared_ptr<const ModelProgram> lower(uml::Model&& model);

  std::optional<uml::Model> owned_;  // set by the owning lower() overload
  const uml::Model* model_ = nullptr;

  expr::SymbolTable node_table_;  // slots + pid/tid/uid ambients
  std::size_t nslots_ = 0;
  expr::Slot slot_np_ = 0, slot_nt_ = 0, slot_nn_ = 0, slot_ppn_ = 0;

  std::vector<CompiledVariable> variables_;
  std::vector<expr::Compiled> functions_;    // indexed by function id
  std::map<std::string, int, std::less<>> function_ids_;
  std::vector<DiagramProgram> diagrams_;
  int entry_ = 0;
  std::unordered_map<const uml::Node*, const NodePrograms*> nodes_;
  std::map<const uml::ControlFlow*, expr::Compiled> guards_;
  std::map<std::string, int> uids_;          // node element id -> uid

  LoweringStats stats_;
  std::vector<Problem> problems_;
};

/// Shared handle to an immutable lowering — the unit every backend's
/// prepare() consumes and estimator::PreparedModel::lowering() exposes.
using ModelProgramPtr = std::shared_ptr<const ModelProgram>;

/// Lowers `model` into a shareable ModelProgram.  Borrows `model`; it
/// must outlive every consumer of the program.  Throws LowerError with
/// the text of the first of the program's problems(), if it has any.
[[nodiscard]] ModelProgramPtr lower(const uml::Model& model);

/// Owning overload (safe with temporaries): the program keeps the model
/// alive for its own lifetime.
[[nodiscard]] ModelProgramPtr lower(uml::Model&& model);

}  // namespace prophet::lower
