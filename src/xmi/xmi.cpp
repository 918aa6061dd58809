#include "prophet/xmi/xmi.hpp"

#include <cstdlib>
#include <utility>

#include "prophet/xml/parser.hpp"
#include "prophet/xml/writer.hpp"

namespace prophet::xmi {
namespace {

using uml::Metaclass;
using uml::TagType;

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      if (start < text.size()) {
        parts.emplace_back(text.substr(start));
      }
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::optional<Metaclass> metaclass_from_string(std::string_view text) {
  if (text == "Action") {
    return Metaclass::Action;
  }
  if (text == "Activity") {
    return Metaclass::Activity;
  }
  if (text == "ControlFlow") {
    return Metaclass::ControlFlow;
  }
  return std::nullopt;
}

// --- Reading ---------------------------------------------------------------

[[noreturn]] void fail(const std::string& message) { throw XmiError(message); }

std::string required_attr(const xml::Element& element, std::string_view name) {
  if (auto value = element.attr(name)) {
    return std::string(*value);
  }
  fail("element <" + element.name() + "> lacks required attribute '" +
       std::string(name) + "'");
}

uml::Profile read_profile(const xml::Element& node) {
  uml::Profile profile(node.attr_or("name", ""));
  for (const auto* st : node.children_named("stereotype")) {
    const std::string name = required_attr(*st, "name");
    const std::string base_text = required_attr(*st, "base");
    const auto base = metaclass_from_string(base_text);
    if (!base) {
      fail("unknown metaclass '" + base_text + "' in stereotype '" + name +
           "'");
    }
    uml::Stereotype stereotype(name, *base);
    for (const auto* td : st->children_named("tagdef")) {
      const std::string tag_name = required_attr(*td, "name");
      const std::string type_text = required_attr(*td, "type");
      const auto type = uml::tag_type_from_string(type_text);
      if (!type) {
        fail("unknown tag type '" + type_text + "' in stereotype '" + name +
             "'");
      }
      stereotype.add_tag(
          {tag_name, *type, td->attr_or("required", "false") == "true"});
    }
    profile.add(std::move(stereotype));
  }
  return profile;
}

void read_tags(const xml::Element& node, uml::Element& element) {
  for (const auto* tag : node.children_named("tag")) {
    const std::string name = required_attr(*tag, "name");
    const std::string type_text = required_attr(*tag, "type");
    const auto type = uml::tag_type_from_string(type_text);
    if (!type) {
      fail("unknown tag type '" + type_text + "' on tag '" + name + "'");
    }
    const auto value = uml::parse_tag_value(*type, tag->text());
    if (!value) {
      fail("tag '" + name + "' value '" + tag->text() +
           "' does not parse as " + type_text);
    }
    element.set_tag(name, *value);
  }
}

std::unique_ptr<uml::ActivityDiagram> read_diagram(const xml::Element& node) {
  auto diagram = std::make_unique<uml::ActivityDiagram>(
      required_attr(node, "id"), node.attr_or("name", ""));
  for (const auto* child : node.child_elements()) {
    if (child->name() == "node") {
      const std::string kind_text = required_attr(*child, "kind");
      const auto kind = uml::node_kind_from_string(kind_text);
      if (!kind) {
        fail("unknown node kind '" + kind_text + "'");
      }
      auto n = std::make_unique<uml::Node>(required_attr(*child, "id"),
                                           child->attr_or("name", ""), *kind);
      if (auto stereotype = child->attr("stereotype")) {
        n->set_stereotype(std::string(*stereotype));
      }
      read_tags(*child, *n);
      diagram->add_node(std::move(n));
    } else if (child->name() == "edge") {
      auto e = std::make_unique<uml::ControlFlow>(
          required_attr(*child, "id"), required_attr(*child, "source"),
          required_attr(*child, "target"), child->attr_or("guard", ""));
      read_tags(*child, *e);
      diagram->add_edge(std::move(e));
    } else {
      fail("unexpected element <" + child->name() + "> inside <diagram>");
    }
  }
  return diagram;
}

}  // namespace

xml::Document to_document(const uml::Model& model) {
  // The Fig. 6 traverser generates the XML representation.
  traverse::DepthFirstNavigator navigator;
  traverse::XmlContentHandler handler;
  traverse::Traverser().traverse(model, navigator, handler);
  return std::move(handler).document();
}

std::string to_xml(const uml::Model& model) {
  return xml::to_string(to_document(model));
}

void save(const uml::Model& model, const std::string& path) {
  xml::write_file(to_document(model), path);
}

uml::Model from_document(const xml::Document& doc) {
  if (!doc.has_root() || doc.root().name() != "prophet:model") {
    fail("not a prophet model document (root must be <prophet:model>)");
  }
  const auto& root = doc.root();
  // A declared schema must be a version this reader understands: a
  // malformed or future value would otherwise be silently ignored and
  // misread as schema 1.  Absent means 1 (pre-versioning documents).
  if (auto schema = root.attr("schema"); schema && !schema->empty()) {
    char* end = nullptr;
    const std::string text(*schema);
    const long version = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || version < 1) {
      fail("malformed schema version '" + text + "'");
    }
    if (version > kSchemaVersion) {
      fail("document schema version " + text +
           " is newer than this reader (max " +
           std::to_string(kSchemaVersion) + ")");
    }
  }
  uml::Model model(root.attr_or("name", ""));

  if (const auto* profile = root.child("profile")) {
    model.set_profile(read_profile(*profile));
  }

  if (const auto* variables = root.child("variables")) {
    for (const auto* node : variables->children_named("variable")) {
      const std::string type_text = required_attr(*node, "type");
      const std::string scope_text = required_attr(*node, "scope");
      const auto type = uml::variable_type_from_string(type_text);
      const auto scope = uml::variable_scope_from_string(scope_text);
      if (!type) {
        fail("unknown variable type '" + type_text + "'");
      }
      if (!scope) {
        fail("unknown variable scope '" + scope_text + "'");
      }
      model.add_variable(uml::Variable{required_attr(*node, "name"), *type,
                                       *scope, node->attr_or("init", "")});
    }
  }

  if (const auto* functions = root.child("functions")) {
    for (const auto* node : functions->children_named("function")) {
      model.add_cost_function(
          uml::CostFunction{required_attr(*node, "name"),
                            split(node->attr_or("params", ""), ','),
                            node->text()});
    }
  }

  if (const auto* diagrams = root.child("diagrams")) {
    for (const auto* node : diagrams->children_named("diagram")) {
      model.add_diagram(read_diagram(*node));
    }
  }

  if (auto main = root.attr("main"); main && !main->empty()) {
    model.set_main_diagram(std::string(*main));
  }
  return model;
}

uml::Model from_xml(std::string_view text) {
  return from_document(xml::parse(text));
}

uml::Model load(const std::string& path) {
  return from_document(xml::parse_file(path));
}

bool equivalent(const uml::Model& a, const uml::Model& b) {
  // Serializing both sides and comparing DOMs gives a total structural
  // comparison for free and guarantees `equivalent` can never drift from
  // what the writer actually persists.
  return xml::deep_equal(to_document(a), to_document(b));
}

}  // namespace prophet::xmi
