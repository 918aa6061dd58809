#include "prophet/uml/diagram.hpp"

#include <utility>

#include "prophet/uml/profile.hpp"

namespace prophet::uml {

std::string_view to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::Initial:
      return "initial";
    case NodeKind::Final:
      return "final";
    case NodeKind::Action:
      return "action";
    case NodeKind::Activity:
      return "activity";
    case NodeKind::Decision:
      return "decision";
    case NodeKind::Merge:
      return "merge";
    case NodeKind::Fork:
      return "fork";
    case NodeKind::Join:
      return "join";
    case NodeKind::Loop:
      return "loop";
  }
  return "unknown";
}

std::optional<NodeKind> node_kind_from_string(std::string_view text) {
  static constexpr std::pair<std::string_view, NodeKind> kMap[] = {
      {"initial", NodeKind::Initial}, {"final", NodeKind::Final},
      {"action", NodeKind::Action},   {"activity", NodeKind::Activity},
      {"decision", NodeKind::Decision}, {"merge", NodeKind::Merge},
      {"fork", NodeKind::Fork},       {"join", NodeKind::Join},
      {"loop", NodeKind::Loop},
  };
  for (const auto& [name, kind] : kMap) {
    if (name == text) {
      return kind;
    }
  }
  return std::nullopt;
}

std::string Node::subdiagram_id() const { return tag_string(tag::kDiagram); }

Node& ActivityDiagram::add_node(std::unique_ptr<Node> node) {
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

ControlFlow& ActivityDiagram::add_edge(std::unique_ptr<ControlFlow> edge) {
  edges_.push_back(std::move(edge));
  return *edges_.back();
}

const Node* ActivityDiagram::node(std::string_view id) const {
  for (const auto& node : nodes_) {
    if (node->id() == id) {
      return node.get();
    }
  }
  return nullptr;
}

Node* ActivityDiagram::node(std::string_view id) {
  return const_cast<Node*>(std::as_const(*this).node(id));
}

const Node* ActivityDiagram::initial() const {
  for (const auto& node : nodes_) {
    if (node->kind() == NodeKind::Initial) {
      return node.get();
    }
  }
  return nullptr;
}

}  // namespace prophet::uml
