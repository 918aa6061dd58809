// Activity diagrams — the behavioural notation the paper models programs
// with ("We have identified that UML activity diagrams are suitable for
// modeling scientific imperative programs", Sec. 3).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "prophet/uml/element.hpp"

namespace prophet::uml {

/// The activity-node subset used for performance models.
enum class NodeKind {
  Initial,   // solid dot; exactly one per diagram
  Final,     // bull's eye
  Action,    // single-entry single-exit code region (<<action+>> etc.)
  Activity,  // composite node whose content is another diagram (<<activity+>>)
  Decision,  // diamond; guarded outgoing edges ([GV > 0] in Fig. 7a)
  Merge,     // diamond joining alternative paths
  Fork,      // bar; splits into concurrent flows
  Join,      // bar; synchronizes concurrent flows
  Loop,      // counted repetition of a body diagram (<<loop+>>)
};

[[nodiscard]] std::string_view to_string(NodeKind kind);
[[nodiscard]] std::optional<NodeKind> node_kind_from_string(
    std::string_view text);

/// A node in an activity diagram.
class Node final : public Element {
 public:
  Node(std::string id, std::string name, NodeKind kind)
      : Element(std::move(id), std::move(name)), kind_(kind) {}

  [[nodiscard]] NodeKind kind() const { return kind_; }

  /// For Activity and Loop nodes: the id of the content diagram
  /// (tag `diagram`); empty otherwise.
  [[nodiscard]] std::string subdiagram_id() const;

 private:
  NodeKind kind_;
};

/// A directed control-flow edge.  `guard` holds the boolean expression for
/// edges leaving a Decision node; the distinguished guard "else" marks the
/// default branch (mapped to the trailing `else` of the generated
/// if/else-if chain, Fig. 8b lines 77-87).
class ControlFlow final : public Element {
 public:
  ControlFlow(std::string id, std::string source, std::string target,
              std::string guard = {})
      : Element(std::move(id), /*name=*/{}),
        source_(std::move(source)),
        target_(std::move(target)),
        guard_(std::move(guard)) {}

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::string& target() const { return target_; }
  [[nodiscard]] const std::string& guard() const { return guard_; }
  void set_guard(std::string guard) { guard_ = std::move(guard); }

  [[nodiscard]] bool has_guard() const { return !guard_.empty(); }
  [[nodiscard]] bool is_else() const { return guard_ == "else"; }

 private:
  std::string source_;
  std::string target_;
  std::string guard_;
};

/// An activity diagram: nodes plus control-flow edges.
class ActivityDiagram final : public Element {
 public:
  ActivityDiagram(std::string id, std::string name)
      : Element(std::move(id), std::move(name)) {}

  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const {
    return nodes_;
  }
  /// Edges in insertion order (the order in which the modeler drew them,
  /// which fixes guard evaluation order).
  [[nodiscard]] const std::vector<std::unique_ptr<ControlFlow>>& edges()
      const {
    return edges_;
  }

  Node& add_node(std::unique_ptr<Node> node);
  ControlFlow& add_edge(std::unique_ptr<ControlFlow> edge);

  /// Node lookup by id within this diagram; nullptr when absent.
  [[nodiscard]] const Node* node(std::string_view id) const;
  [[nodiscard]] Node* node(std::string_view id);

  /// The unique Initial node, or nullptr (checker enforces presence).
  [[nodiscard]] const Node* initial() const;

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<ControlFlow>> edges_;
};

}  // namespace prophet::uml
