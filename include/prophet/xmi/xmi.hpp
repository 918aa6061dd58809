// XMI-style serialization of UML performance models.
//
// Plays the role of the `Models (XML)` store of Fig. 2: Teuta keeps models
// as XML; the Model Traverser generates "different model representations
// (XML and C++)" (Sec. 2.2).  The schema is self-contained (the applied
// profile is embedded) so a model file can be checked and transformed
// without out-of-band configuration:
//
//   <prophet:model name="SampleModel" main="d1" schema="1">
//     <profile name="PerformanceProphet">
//       <stereotype name="action+" base="Action">
//         <tagdef name="id" type="Integer"/> ...
//       </stereotype> ...
//     </profile>
//     <variables>
//       <variable name="GV" type="Real" scope="global" init="0"/> ...
//     </variables>
//     <functions>
//       <function name="FA1" params=""><![CDATA[0.000001*P*P+0.001]]></function>
//     </functions>
//     <diagrams>
//       <diagram id="d1" name="main">
//         <node id="n2" kind="action" name="A1" stereotype="action+">
//           <tag name="cost" type="String">FA1()</tag>
//         </node>
//         <edge id="f2" source="n3" target="n5" guard="GV &gt; 0"/>
//       </diagram>
//     </diagrams>
//   </prophet:model>
#pragma once

#include <stdexcept>
#include <string>

#include "prophet/traverse/handlers.hpp"
#include "prophet/uml/model.hpp"
#include "prophet/xml/dom.hpp"

namespace prophet::xmi {

/// Error thrown when a document does not conform to the model schema.
class XmiError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Current schema version written by to_document().
inline constexpr int kSchemaVersion =
    traverse::XmlContentHandler::kSchemaVersion;

/// Serializes a model to a DOM document.
[[nodiscard]] xml::Document to_document(const uml::Model& model);

/// Serializes a model directly to XML text.
[[nodiscard]] std::string to_xml(const uml::Model& model);

/// Writes a model to a file.
void save(const uml::Model& model, const std::string& path);

/// Reconstructs a model from a DOM document. Throws XmiError.
[[nodiscard]] uml::Model from_document(const xml::Document& doc);

/// Parses XML text and reconstructs the model. Throws xml::ParseError or
/// XmiError.
[[nodiscard]] uml::Model from_xml(std::string_view text);

/// Loads a model from a file.
[[nodiscard]] uml::Model load(const std::string& path);

/// Structural equality of two models (used by round-trip tests): name,
/// variables, cost functions, profile, diagrams with node/edge ids, kinds,
/// stereotypes, tags and guards.
[[nodiscard]] bool equivalent(const uml::Model& a, const uml::Model& b);

}  // namespace prophet::xmi
