// The UML -> C++ model transformation — the paper's core contribution,
// and the one C++ printer: the unit it prints is what `prophetc
// generate` writes and what the codegen engine compiles (cgen/
// emitter.hpp), so it computes what the simulator computes.
//
// Prints the model's lowering (lower::ModelProgram), the program every
// engine runs.  Implements the algorithm of Fig. 5:
//   lines  1-8  select the performance modeling elements;
//   lines  9-12 emit the global variables (thread_local run state);
//   lines 13-18 emit the cost functions (double FA1() { ... });
//   lines 20-23 emit the local variables;
//   lines 24-28 declare the performance modeling elements
//               (ActionPlus A1(ctx, "A1");)
//   lines 29-35 emit the execution flow, invoking each element's
//               execute() method in the order the UML model specifies —
//               branches become if/else-if chains (Fig. 8b lines 77-87),
//               nested activities become nested blocks (lines 79-82),
//               <<loop+>> nodes become for statements over their trip
//               count, fork/join becomes spawned branch lambdas, and
//               associated code fragments are inlined before their
//               element (lines 72-75).  A diagram whose decisions and
//               forks do not nest prints as labelled blocks with a goto
//               to each successor, walking it as the engines do.
//
// The output is one translation unit (the PMP element of Fig. 2) that
// includes only cgen/prelude.hpp and exports one entry point returning
// its hooks (start_run, the process coroutine, set_budget); with
// TransformOptions::emit_main it also gets a main() that runs the
// Performance Estimator over them.  Every name binds, every error
// carries its site and every call nests as in the expression VM
// (docs/codegen.md).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "prophet/lower/lower.hpp"
#include "prophet/uml/model.hpp"

namespace prophet::codegen {

/// Error thrown when a uml::Model cannot be transformed because it does
/// not lower (lower::LowerError, message unchanged).  Every lowered
/// program prints.  Run the model checker first for precise diagnostics.
class TransformError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transformation options.
struct TransformOptions {
  /// Also emit a main() that runs the Performance Estimator over the
  /// model with parameters from argv (used by the prophetc tool).
  bool emit_main = false;
};

/// Indentation-aware C++ source writer used by the transformer (public so
/// custom ContentHandlers can reuse it).
class CppEmitter {
 public:
  explicit CppEmitter(int indent_width = 2) : indent_width_(indent_width) {}

  /// Appends one line at the current indentation.
  void line(std::string_view text);
  /// Appends an empty line.
  void blank();
  /// Opens a block: emits `header {` and indents.
  void open(std::string_view header);
  /// Closes a block: dedents and emits `}` (plus optional suffix).
  void close(std::string_view suffix = "");
  /// Appends pre-rendered text verbatim (no indentation applied).
  void raw(std::string_view text) { text_ += text; }
  void indent() { ++depth_; }
  void dedent();

  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
  int indent_width_;
  int depth_ = 0;
};

/// Sanitizes an element name into a C++ identifier ("Kernel 6" ->
/// "Kernel_6"; empty/leading-digit names get an "e_" prefix).
[[nodiscard]] std::string sanitize_identifier(std::string_view name);

/// The transformer.
class Transformer {
 public:
  explicit Transformer(TransformOptions options = {});

  /// Fig. 5, whole algorithm: the lowered model in, its C++
  /// representation out.  Prints every program.
  [[nodiscard]] std::string transform(
      const lower::ModelProgram& program) const;

  /// Lowers `model`, then transforms the program.
  [[nodiscard]] std::string transform(const uml::Model& model) const;

  // --- Individual stages (exposed for stage-level tests and benches) -----

  /// Lines 1-8: performance modeling elements (every node but the
  /// control nodes), in diagram order.
  [[nodiscard]] std::vector<const lower::NodePrograms*>
  select_performance_elements(const lower::ModelProgram& program) const;

  /// Lines 9-12: global variable definitions.
  [[nodiscard]] std::string emit_globals(
      const lower::ModelProgram& program) const;

  /// Lines 13-18: cost-function definitions, dependency-ordered.
  [[nodiscard]] std::string emit_cost_functions(
      const lower::ModelProgram& program) const;

  /// Lines 20-23: local variable definitions (inside the model function).
  [[nodiscard]] std::string emit_locals(
      const lower::ModelProgram& program) const;

  /// Lines 24-28: performance-modeling-element declarations.
  [[nodiscard]] std::string emit_declarations(
      const lower::ModelProgram& program) const;

  /// Lines 29-35: the execution flow of the main diagram.
  [[nodiscard]] std::string emit_flow(
      const lower::ModelProgram& program) const;

 private:
  TransformOptions options_;
};

}  // namespace prophet::codegen
