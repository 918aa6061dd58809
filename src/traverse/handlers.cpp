#include "prophet/traverse/handlers.hpp"

#include <sstream>

namespace prophet::traverse {
namespace {

void write_tags(xml::Element& parent, const uml::Element& element) {
  for (const auto& tagged : element.tags()) {
    auto& tag = parent.add_element("tag");
    tag.set_attr("name", tagged.name);
    tag.set_attr("type", uml::to_string(uml::type_of(tagged.value)));
    const std::string text = uml::to_string(tagged.value);
    // Code fragments may contain markup-significant characters and
    // meaningful whitespace; CDATA keeps them byte-exact.
    if (text.find_first_of("<>&\n") != std::string::npos) {
      tag.add_cdata(text);
    } else if (!text.empty()) {
      tag.add_text(text);
    }
  }
}

}  // namespace

XmlContentHandler::XmlContentHandler()
    : document_(xml::Document::with_root("prophet:model")) {}

void XmlContentHandler::visit(const Entity& entity) {
  switch (entity.kind) {
    case EntityKind::Model:
      if (entity.phase == Phase::Enter) {
        auto& root = document_.root();
        root.set_attr("name", entity.model->name());
        root.set_attr("main", entity.model->main_diagram_id());
        root.set_attr("schema", std::to_string(kSchemaVersion));
        // Profile is structural configuration, not tree content the
        // navigator yields; copy it directly.
        auto& profile = root.add_element("profile");
        profile.set_attr("name", entity.model->profile().name());
        for (const auto& stereotype :
             entity.model->profile().stereotypes()) {
          auto& st = profile.add_element("stereotype");
          st.set_attr("name", stereotype.name());
          st.set_attr("base", uml::to_string(stereotype.base()));
          for (const auto& tag : stereotype.tags()) {
            auto& td = st.add_element("tagdef");
            td.set_attr("name", tag.name);
            td.set_attr("type", uml::to_string(tag.type));
            if (tag.required) {
              td.set_attr("required", "true");
            }
          }
        }
        variables_ = &root.add_element("variables");
        functions_ = &root.add_element("functions");
        diagrams_ = &root.add_element("diagrams");
      }
      break;
    case EntityKind::Variable: {
      auto& node = variables_->add_element("variable");
      node.set_attr("name", entity.variable->name);
      node.set_attr("type", uml::to_string(entity.variable->type));
      node.set_attr("scope", uml::to_string(entity.variable->scope));
      if (!entity.variable->initializer.empty()) {
        node.set_attr("init", entity.variable->initializer);
      }
      break;
    }
    case EntityKind::CostFunction: {
      auto& node = functions_->add_element("function");
      node.set_attr("name", entity.cost_function->name);
      std::string params;
      for (const auto& parameter : entity.cost_function->parameters) {
        if (!params.empty()) {
          params += ',';
        }
        params += parameter;
      }
      node.set_attr("params", params);
      node.add_cdata(entity.cost_function->body);
      break;
    }
    case EntityKind::Diagram:
      if (entity.phase == Phase::Enter) {
        current_diagram_ = &diagrams_->add_element("diagram");
        current_diagram_->set_attr("id", entity.diagram->id());
        current_diagram_->set_attr("name", entity.diagram->name());
      } else {
        current_diagram_ = nullptr;
      }
      break;
    case EntityKind::Node: {
      auto& node = current_diagram_->add_element("node");
      node.set_attr("id", entity.node->id());
      node.set_attr("kind", uml::to_string(entity.node->kind()));
      node.set_attr("name", entity.node->name());
      if (entity.node->has_stereotype()) {
        node.set_attr("stereotype", entity.node->stereotype());
      }
      write_tags(node, *entity.node);
      break;
    }
    case EntityKind::Edge: {
      auto& edge = current_diagram_->add_element("edge");
      edge.set_attr("id", entity.edge->id());
      edge.set_attr("source", entity.edge->source());
      edge.set_attr("target", entity.edge->target());
      if (entity.edge->has_guard()) {
        edge.set_attr("guard", entity.edge->guard());
      }
      write_tags(edge, *entity.edge);
      break;
    }
  }
}

void StatisticsHandler::visit(const Entity& entity) {
  switch (entity.kind) {
    case EntityKind::Model:
      break;
    case EntityKind::Variable:
    case EntityKind::CostFunction:
      break;
    case EntityKind::Diagram:
      if (entity.phase == Phase::Enter) {
        ++diagrams_;
      }
      break;
    case EntityKind::Node:
      ++nodes_;
      tagged_values_ += entity.node->tags().size();
      by_node_kind_[std::string(uml::to_string(entity.node->kind()))] += 1;
      if (entity.node->has_stereotype()) {
        by_stereotype_[entity.node->stereotype()] += 1;
      }
      break;
    case EntityKind::Edge:
      ++edges_;
      tagged_values_ += entity.edge->tags().size();
      if (entity.edge->has_guard()) {
        ++guarded_edges_;
      }
      break;
  }
}

std::string StatisticsHandler::report() const {
  std::ostringstream out;
  out << "diagrams:      " << diagrams_ << '\n';
  out << "nodes:         " << nodes_ << '\n';
  out << "edges:         " << edges_ << " (" << guarded_edges_
      << " guarded)\n";
  out << "tagged values: " << tagged_values_ << '\n';
  out << "by stereotype:\n";
  for (const auto& [name, count] : by_stereotype_) {
    out << "  <<" << name << ">>: " << count << '\n';
  }
  out << "by node kind:\n";
  for (const auto& [name, count] : by_node_kind_) {
    out << "  " << name << ": " << count << '\n';
  }
  return out.str();
}

}  // namespace prophet::traverse
