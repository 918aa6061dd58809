// The evaluator emitter: generated translation units are deterministic
// (the compile cache keys on the source bytes), self-describing (the
// three C ABI entry points, visibility-exported), lean (one include, the
// cgen prelude), and carry the guard contract (generated loops charge the
// budget) and the bit-identity contract (float constants as hexfloat
// literals).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prophet/cgen/abi.hpp"
#include "prophet/cgen/emitter.hpp"
#include "prophet/lower/lower.hpp"
#include "prophet/models/builtins.hpp"
#include "prophet/models/registry.hpp"
#include "prophet/uml/builder.hpp"

namespace cgen = prophet::cgen;

namespace {

std::string emit(const prophet::uml::Model& model) {
  return cgen::emit_evaluator(*prophet::lower::lower(model));
}

TEST(Emitter, EmissionIsDeterministic) {
  // Byte-identical source for repeated lowerings of the same model —
  // the property the content-addressed compile cache stands on.
  const std::string first = emit(prophet::models::sample_model());
  const std::string second = emit(prophet::models::sample_model());
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Emitter, ExportsTheCAbiEntryPoints) {
  const std::string source = emit(prophet::models::sample_model());
  // The unit compiles under -fvisibility=hidden: each entry point must
  // explicitly opt back into the dynamic symbol table.
  EXPECT_NE(source.find("prophet_cgen_abi_version"), std::string::npos);
  EXPECT_NE(source.find("prophet_cgen_run"), std::string::npos);
  EXPECT_NE(source.find("prophet_cgen_free"), std::string::npos);
  EXPECT_NE(source.find("visibility(\"default\")"), std::string::npos);
  // And the version it reports is this build's.
  EXPECT_NE(source.find(std::to_string(cgen::kCgenAbiVersion)),
            std::string::npos);
}

TEST(Emitter, FloatConstantsAreHexfloat) {
  // 1e-8 has no exact decimal representation: round-tripping it through
  // %g would break bit-identity with the VM, so constants are emitted
  // as hexfloat literals.
  const std::string source =
      emit(prophet::models::kernel6_model(64, 16, 1e-8));
  EXPECT_NE(source.find("0x1."), std::string::npos);
}

TEST(Emitter, GeneratedLoopsChargeTheBudget) {
  // The spin model is one big loop; its evaluator must carry the
  // cgen-loop charge site so runaway models trip limits, not hang.
  const std::string source = emit(prophet::models::spin_model(100));
  EXPECT_NE(source.find("cgen-loop"), std::string::npos);
  EXPECT_NE(source.find("charge_loop_trips"), std::string::npos);
}

/// One model with every operation the emitter prints: a fork, a loop,
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
  // Every emitted evaluator parses one header; what it runs besides its
  // own walk is compiled once into the library, so the source names no
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
