#include "prophet/uml/model.hpp"

#include <utility>

namespace prophet::uml {

std::string_view to_string(VariableScope scope) {
  switch (scope) {
    case VariableScope::Global:
      return "global";
    case VariableScope::Local:
      return "local";
  }
  return "unknown";
}

std::string_view to_string(VariableType type) {
  switch (type) {
    case VariableType::Real:
      return "Real";
    case VariableType::Integer:
      return "Integer";
  }
  return "Unknown";
}

std::optional<VariableScope> variable_scope_from_string(
    std::string_view text) {
  if (text == "global") {
    return VariableScope::Global;
  }
  if (text == "local") {
    return VariableScope::Local;
  }
  return std::nullopt;
}

std::optional<VariableType> variable_type_from_string(std::string_view text) {
  if (text == "Real" || text == "Double") {
    return VariableType::Real;
  }
  if (text == "Integer") {
    return VariableType::Integer;
  }
  return std::nullopt;
}

const Variable* Model::variable(std::string_view name) const {
  for (const auto& variable : variables_) {
    if (variable.name == name) {
      return &variable;
    }
  }
  return nullptr;
}

const CostFunction* Model::cost_function(std::string_view name) const {
  for (const auto& fn : cost_functions_) {
    if (fn.name == name) {
      return &fn;
    }
  }
  return nullptr;
}

ActivityDiagram& Model::add_diagram(std::unique_ptr<ActivityDiagram> diagram) {
  if (diagrams_.empty() && main_diagram_id_.empty()) {
    main_diagram_id_ = diagram->id();
  }
  diagrams_.push_back(std::move(diagram));
  return *diagrams_.back();
}

const ActivityDiagram* Model::diagram(std::string_view id) const {
  for (const auto& diagram : diagrams_) {
    if (diagram->id() == id) {
      return diagram.get();
    }
  }
  return nullptr;
}

ActivityDiagram* Model::diagram(std::string_view id) {
  return const_cast<ActivityDiagram*>(std::as_const(*this).diagram(id));
}

const ActivityDiagram* Model::main_diagram() const {
  return diagram(main_diagram_id_);
}

const Node* Model::node(std::string_view id) const {
  for (const auto& diagram : diagrams_) {
    if (const Node* node = diagram->node(id)) {
      return node;
    }
  }
  return nullptr;
}

std::size_t Model::element_count() const {
  std::size_t count = 0;
  for (const auto& diagram : diagrams_) {
    count += 1 + diagram->node_count() + diagram->edge_count();
  }
  return count;
}

}  // namespace prophet::uml
