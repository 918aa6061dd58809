// Performance Prophet — top-level facade.
//
// Ties the pipeline of Fig. 2 together: model construction / loading
// (Teuta's role), model checking, UML -> C++ transformation (the Model
// Traverser's C++ representation), and simulation-based estimation (the
// Performance Estimator), each step delegating to the dedicated module.
//
//   prophet::Prophet prophet(prophet::models::sample_model());
//   auto diagnostics = prophet.check();                  // Model Checker
//   std::string cpp = prophet.transform();               // Fig. 5
//   auto report = prophet.estimate({.processes = 4});    // Estimator
#pragma once

#include <cstdint>
#include <string>

#include "prophet/check/checker.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/estimator/estimator.hpp"
#include "prophet/machine/machine.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/uml/builder.hpp"
#include "prophet/uml/model.hpp"

namespace prophet {

class Prophet {
 public:
  /// Wraps an in-memory model (built with uml::ModelBuilder).
  explicit Prophet(uml::Model model);

  /// Loads a model from an XMI file.
  static Prophet load(const std::string& path);

  [[nodiscard]] const uml::Model& model() const { return model_; }

  /// Saves the model to an XMI file.
  void save(const std::string& path) const;

  /// Runs the Model Checker (Teuta, Sec. 2.2).
  [[nodiscard]] check::Diagnostics check() const;

  /// Runs the Model Checker with MCF configuration.
  [[nodiscard]] check::Diagnostics check(const xml::Document& mcf) const;

  /// Transforms the model to its C++ representation (the Fig. 5
  /// algorithm): lowers it (lower::lower) and prints the lowered program
  /// every engine runs.  Throws codegen::TransformError when the model
  /// does not lower or its control flow is unstructured.
  [[nodiscard]] std::string transform(
      codegen::TransformOptions options = {}) const;

  /// Estimates performance by direct interpretation of the UML model
  /// (builds the machine model from `params`, integrates, simulates).
  [[nodiscard]] estimator::PredictionReport estimate(
      machine::SystemParameters params,
      estimator::EstimationOptions options = {}) const;

 private:
  uml::Model model_;
};

}  // namespace prophet
