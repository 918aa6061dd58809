// The performance model: diagrams, variables, cost functions, profile.
//
// Mirrors the model artifacts of the paper's Sec. 4 example: a main
// activity diagram plus sub-diagrams (activity SA), global and local
// variables (GV, P), and named cost functions (FA1..FSA2) that elements
// reference from their `cost` tags.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/uml/diagram.hpp"
#include "prophet/uml/profile.hpp"

namespace prophet::uml {

/// Variable scope: the paper's sample model shows both ("It is possible to
/// associate global and local variables to the model", Sec. 4).
enum class VariableScope {
  Global,
  Local,
};

/// Declared variable type; the generated C++ uses these spellings.
enum class VariableType {
  Real,    // double
  Integer, // long
};

[[nodiscard]] std::string_view to_string(VariableScope scope);
[[nodiscard]] std::string_view to_string(VariableType type);
[[nodiscard]] std::optional<VariableScope> variable_scope_from_string(
    std::string_view text);
[[nodiscard]] std::optional<VariableType> variable_type_from_string(
    std::string_view text);

/// A model variable. `initializer` is a cost-language expression string;
/// empty means zero-initialized.
struct Variable {
  std::string name;
  VariableType type = VariableType::Real;
  VariableScope scope = VariableScope::Global;
  std::string initializer;
};

/// A named cost function: `FA1() = 0.000001*P*P + 0.001`.  Parameters are
/// names visible inside the body (Fig. 8a: `FSA2(pid)`); the body may also
/// reference globals and other cost functions.
struct CostFunction {
  std::string name;
  std::vector<std::string> parameters;
  std::string body;
};

/// The complete UML performance model.
class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Profile ------------------------------------------------------------

  [[nodiscard]] const Profile& profile() const { return profile_; }
  [[nodiscard]] Profile& profile() { return profile_; }
  void set_profile(Profile profile) { profile_ = std::move(profile); }

  // --- Variables ----------------------------------------------------------

  [[nodiscard]] const std::vector<Variable>& variables() const {
    return variables_;
  }
  void add_variable(Variable variable) {
    variables_.push_back(std::move(variable));
  }
  [[nodiscard]] const Variable* variable(std::string_view name) const;

  // --- Cost functions -------------------------------------------------------

  [[nodiscard]] const std::vector<CostFunction>& cost_functions() const {
    return cost_functions_;
  }
  void add_cost_function(CostFunction fn) {
    cost_functions_.push_back(std::move(fn));
  }
  [[nodiscard]] const CostFunction* cost_function(
      std::string_view name) const;

  // --- Diagrams ------------------------------------------------------------

  [[nodiscard]] const std::vector<std::unique_ptr<ActivityDiagram>>&
  diagrams() const {
    return diagrams_;
  }
  ActivityDiagram& add_diagram(std::unique_ptr<ActivityDiagram> diagram);

  /// Diagram lookup by id; nullptr when absent.
  [[nodiscard]] const ActivityDiagram* diagram(std::string_view id) const;
  [[nodiscard]] ActivityDiagram* diagram(std::string_view id);

  /// The entry diagram of the model (the "main activity diagram" of
  /// Fig. 7a).  Defaults to the first diagram added.
  [[nodiscard]] const std::string& main_diagram_id() const {
    return main_diagram_id_;
  }
  void set_main_diagram(std::string id) { main_diagram_id_ = std::move(id); }
  [[nodiscard]] const ActivityDiagram* main_diagram() const;

  /// Global node lookup across all diagrams; nullptr when absent.
  [[nodiscard]] const Node* node(std::string_view id) const;

  /// Total element count (diagrams + nodes + edges); used by benches to
  /// report transformation throughput per element.
  [[nodiscard]] std::size_t element_count() const;

 private:
  std::string name_;
  Profile profile_;
  std::vector<Variable> variables_;
  std::vector<CostFunction> cost_functions_;
  std::vector<std::unique_ptr<ActivityDiagram>> diagrams_;
  std::string main_diagram_id_;
};

}  // namespace prophet::uml
