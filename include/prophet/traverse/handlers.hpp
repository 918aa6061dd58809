// Additional ContentHandler implementations.
//
// The paper: "Commonly, the extension of Performance Prophet for the
// generation of a specific model representation involves only a specific
// implementation of the ContentHandler interface" (Sec. 3).  These
// handlers demonstrate exactly that: an XML representation generator and
// a model-statistics collector, both driven by the unmodified Traverser /
// Navigator machinery.
#pragma once

#include <map>
#include <string>
#include <utility>

#include "prophet/traverse/traverse.hpp"
#include "prophet/xml/dom.hpp"

namespace prophet::traverse {

/// Generates the XML model representation through the Fig. 6 protocol —
/// the Model Traverser's "generation of different model representations
/// (XML and C++)" (Sec. 2.2).  It is the one model writer:
/// `xmi::to_document` runs it under a DepthFirstNavigator (whose order
/// is the document's), and `xmi::from_document` reloads what it writes.
class XmlContentHandler final : public ContentHandler {
 public:
  /// The schema version the root's `schema` attribute declares.
  static constexpr int kSchemaVersion = 1;

  XmlContentHandler();

  void visit(const Entity& entity) override;

  /// The document built so far (complete after the Model Leave event).
  [[nodiscard]] const xml::Document& document() const& { return document_; }
  /// Moves the document out of a handler that is done with it.
  [[nodiscard]] xml::Document document() && { return std::move(document_); }

 private:
  xml::Document document_;
  xml::Element* variables_ = nullptr;
  xml::Element* functions_ = nullptr;
  xml::Element* diagrams_ = nullptr;
  xml::Element* current_diagram_ = nullptr;
};

/// Collects model-complexity statistics (element counts per kind and per
/// stereotype, guard/tag totals, hierarchy depth inputs).
class StatisticsHandler final : public ContentHandler {
 public:
  void visit(const Entity& entity) override;

  [[nodiscard]] std::size_t diagrams() const { return diagrams_; }
  [[nodiscard]] std::size_t nodes() const { return nodes_; }
  [[nodiscard]] std::size_t edges() const { return edges_; }
  [[nodiscard]] std::size_t guarded_edges() const { return guarded_edges_; }
  [[nodiscard]] std::size_t tagged_values() const { return tagged_values_; }
  [[nodiscard]] const std::map<std::string, std::size_t>& by_stereotype()
      const {
    return by_stereotype_;
  }
  [[nodiscard]] const std::map<std::string, std::size_t>& by_node_kind()
      const {
    return by_node_kind_;
  }

  /// One-line-per-metric report.
  [[nodiscard]] std::string report() const;

 private:
  std::size_t diagrams_ = 0;
  std::size_t nodes_ = 0;
  std::size_t edges_ = 0;
  std::size_t guarded_edges_ = 0;
  std::size_t tagged_values_ = 0;
  std::map<std::string, std::size_t> by_stereotype_;
  std::map<std::string, std::size_t> by_node_kind_;
};

}  // namespace prophet::traverse
