// An OpenMP model for the integration suites.  No registry model opens a
// parallel region, so this one is what drives the simulator's
// <<ompparallel>>, <<ompfor>>, <<ompbarrier>> and <<ompcritical>>
// elements.
#pragma once

#include <utility>

#include "prophet/uml/builder.hpp"
#include "prophet/uml/model.hpp"

namespace prophet::integration {

/// main: an <<ompparallel>> region of `nt` threads.  Each thread runs its
/// share of a 1000-iteration <<ompfor>> at 10 us per iteration, meets the
/// others at an <<ompbarrier>>, then enters the "sum" <<ompcritical>>
/// section, whose body costs 0.0001 * (tid + 1) s.
inline uml::Model openmp_region_model() {
  uml::ModelBuilder mb("OpenMPRegion");
  uml::DiagramBuilder update = mb.diagram("update");
  uml::NodeRef cost = update.action("Update").cost("0.0001 * (tid + 1)");
  update.sequence({update.initial(), cost, update.final_node()});
  uml::DiagramBuilder body = mb.diagram("body");
  uml::NodeRef work = body.omp_for("Work", "1000", "0.00001");
  uml::NodeRef sync = body.omp_barrier("Sync");
  uml::NodeRef accumulate = body.omp_critical("Accumulate", update, "sum");
  body.sequence({body.initial(), work, sync, accumulate, body.final_node()});
  uml::DiagramBuilder main = mb.diagram("main");
  uml::NodeRef region = main.omp_parallel("Region", body, "nt");
  main.sequence({main.initial(), region, main.final_node()});
  uml::Model model = std::move(mb).build();
  model.set_main_diagram(main.id());
  return model;
}

}  // namespace prophet::integration
