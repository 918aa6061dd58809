// The evaluator the codegen engine compiles is the paper's transformer
// output: deterministic (the compile cache keys on the source bytes),
// self-describing (one visibility-exported entry point returning the
// evaluator's hooks), lean (one include, the cgen prelude), and carrying
// the guard contract (generated loops charge the budget).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prophet/cgen/emitter.hpp"
#include "prophet/cgen/prelude.hpp"
#include "prophet/codegen/transformer.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/builder.hpp"

namespace cgen = prophet::cgen;

namespace {

std::string emit(const prophet::uml::Model& model) {
  return prophet::codegen::Transformer().transform(
      *prophet::lower::lower(model));
}

TEST(Emitter, EmissionIsDeterministic) {
  // Byte-identical source for repeated lowerings of the same model —
  // the property the content-addressed compile cache stands on — and
  // the engine's unit is the transformer's output, unmodified.
  const std::string first = emit(prophet::models::sample_model());
  const std::string second = emit(prophet::models::sample_model());
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(cgen::emit_evaluator(
                *prophet::lower::lower(prophet::models::sample_model())),
            first);
}

TEST(Emitter, ExportsTheEvaluatorEntryPoint) {
  const std::string source = emit(prophet::models::sample_model());
  // The unit compiles under -fvisibility=hidden: its entry point must
  // explicitly opt back into the dynamic symbol table, and nothing else
  // does.
  const auto exported = source.find("visibility(\"default\")");
  ASSERT_NE(exported, std::string::npos);
  EXPECT_EQ(source.find("visibility(\"default\")", exported + 1),
            std::string::npos);
  EXPECT_NE(source.find(cgen::kEvaluatorSymbol, exported), std::string::npos);
}

TEST(Emitter, GeneratedLoopsChargeTheBudget) {
  // The spin model is one big loop; its evaluator must carry the
  // cgen-loop charge site so runaway models trip limits, not hang.
  const std::string source = emit(prophet::models::spin_model(100));
  EXPECT_NE(source.find("cgen-loop"), std::string::npos);
  EXPECT_NE(source.find("charge_loop_trips"), std::string::npos);
}

/// One model with every operation the transformer prints: a fork, a loop,
/// messages, a collective, an activity, a code fragment and a parallel
/// region with worksharing, a barrier and a critical section.
prophet::uml::Model every_construct() {
  namespace uml = prophet::uml;
  uml::ModelBuilder mb("EveryConstruct");
  mb.global("X", uml::VariableType::Real, "0");
  uml::DiagramBuilder d = mb.diagram("main");
  uml::DiagramBuilder work = mb.diagram("work");
  work.sequence(
      {work.initial(), work.action("W").cost("0.001"), work.final_node()});
  uml::DiagramBuilder locked = mb.diagram("locked");
  locked.sequence(
      {locked.initial(), locked.action("L").cost("0.001"),
       locked.final_node()});
  uml::DiagramBuilder team = mb.diagram("team");
  team.sequence({team.initial(), team.omp_for("F", "100", "1e-5"),
                 team.omp_barrier(), team.omp_critical("C", locked, "lock"),
                 team.final_node()});
  const uml::NodeRef fork = d.fork("Fork");
  const uml::NodeRef join = d.join("Join");
  const uml::NodeRef a = d.action("A").cost("0.002").code("X = X + 1;");
  const uml::NodeRef b = d.activity("B", work);
  d.sequence({d.initial(), d.loop("Loop", work, "3"),
              d.send("S", "(pid + 1) % np", "64"),
              d.recv("R", "(pid + np - 1) % np", "64"),
              d.broadcast("Bcast", "0", "8"),
              d.omp_parallel("Team", team, "2"), fork});
  d.flow(fork, a);
  d.flow(fork, b);
  d.flow(a, join);
  d.flow(b, join);
  d.flow(join, d.final_node());
  return std::move(mb).build_unchecked();
}

TEST(Emitter, IncludesOnlyThePrelude) {
  // Every evaluator parses one header; what it runs besides its own
  // walk is compiled once into the library, so the source names no
  // simulation manager and builds no std::string or runtime_error.
  std::vector<prophet::uml::Model> models;
  const auto& registry = prophet::models::Registry::builtin();
  for (const auto& name : registry.names()) {
    models.push_back(registry.make("@" + name));
  }
  models.push_back(every_construct());
  const std::string prelude = "#include \"prophet/cgen/prelude.hpp\"\n";
  for (const auto& model : models) {
    const std::string source = emit(model);
    const auto include = source.find("#include");
    ASSERT_NE(include, std::string::npos) << model.name();
    EXPECT_EQ(source.substr(include, prelude.size()), prelude)
        << model.name();
    EXPECT_EQ(source.find("#include", include + 1), std::string::npos)
        << model.name();
    for (const char* name :
         {"SimulationManager", "std::string", "std::runtime_error"}) {
      EXPECT_EQ(source.find(name), std::string::npos)
          << model.name() << " names " << name;
    }
  }
}

TEST(Emitter, DistinctModelsEmitDistinctEvaluators) {
  EXPECT_NE(emit(prophet::models::kernel6_model(64, 16, 1e-8)),
            emit(prophet::models::kernel6_model(128, 16, 1e-8)));
}

}  // namespace
