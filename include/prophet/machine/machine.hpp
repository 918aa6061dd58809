// The machine model — "Machine Elements" + "SP" of Fig. 2.
//
// "The Performance Estimator generates automatically the machine model
// based on the specified architectural parameters" (Sec. 2.2).  The
// SystemParameters struct is the paper's SP element: number of
// computational nodes, processors per node, processes and threads — plus
// the network/CPU parameters the synthetic machine needs (the paper's
// authors measured these on real clusters; the reproduction uses
// configurable defaults that resemble a 2008-era cluster).
//
// The generated machine is a set of sim::Facility objects (one per node,
// with `processors_per_node` servers) plus an analytic communication-time
// model: intra-node transfers use memory latency/bandwidth, inter-node
// transfers the network, in the LogGP spirit (latency + size/bandwidth,
// with a per-message CPU overhead charged to the sender).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "prophet/sim/engine.hpp"
#include "prophet/sim/facility.hpp"
#include "prophet/xml/dom.hpp"

namespace prophet::machine {

/// The paper's SP element plus the synthetic hardware constants.
struct SystemParameters {
  // --- SP proper (Sec. 2.2) ------------------------------------------------
  int nodes = 1;                // nn
  int processors_per_node = 1;  // ppn
  int processes = 1;            // np
  int threads_per_process = 1;  // nt

  // --- synthetic hardware --------------------------------------------------
  double cpu_speed = 1.0;            // scales all compute costs (1 = nominal)
  double network_latency = 50e-6;    // seconds per inter-node message
  double network_bandwidth = 125e6;  // bytes/second (≈ 1 Gbit/s)
  double network_overhead = 5e-6;    // sender CPU time per message
  double memory_latency = 0.5e-6;    // seconds per intra-node message
  double memory_bandwidth = 2e9;     // bytes/second
  double barrier_latency = 2e-6;     // per synchronization round

  /// Throws std::invalid_argument when any count is < 1 or any rate <= 0.
  void validate() const;

  /// Serialization (the SP XML file of Fig. 2):
  ///   <sp nodes="4" ppn="2" processes="8" threads="1">
  ///     <network latency="5e-05" bandwidth="1.25e+08" overhead="5e-06"/>
  ///     <memory latency="5e-07" bandwidth="2e+09"/>
  ///     <cpu speed="1"/>
  ///   </sp>
  [[nodiscard]] xml::Document to_xml() const;
  [[nodiscard]] static SystemParameters from_xml(const xml::Document& doc);
  void save(const std::string& path) const;
  [[nodiscard]] static SystemParameters load(const std::string& path);
};

// --- Engine-free cost helpers ------------------------------------------------
//
// The LogGP-style communication/compute cost formulas, usable without a
// sim::Engine.  MachineModel delegates to these; the analytic estimation
// backend (prophet/analytic) evaluates the same formulas directly, so the
// two backends price communication identically by construction.

/// Node hosting a given process (block distribution: consecutive ranks
/// share a node).  Throws std::out_of_range for pids outside
/// [0, processes).
[[nodiscard]] int node_of(const SystemParameters& params, int pid);

/// Wall time a `bytes`-sized message needs from process `src_pid` to
/// process `dst_pid` (latency + bytes/bandwidth; intra- vs inter-node).
[[nodiscard]] double message_time(const SystemParameters& params, int src_pid,
                                  int dst_pid, double bytes);

/// message_time for two processes already placed: `same_node` is whether
/// node_of gives both the same node.
[[nodiscard]] inline double link_time(const SystemParameters& params,
                                      bool same_node, double bytes) {
  if (same_node) {
    return params.memory_latency + bytes / params.memory_bandwidth;
  }
  return params.network_latency + bytes / params.network_bandwidth;
}

/// Time for one tree round of a collective moving `bytes` per rank pair.
[[nodiscard]] double collective_round_time(const SystemParameters& params,
                                           double bytes);

/// Scales a nominal compute cost by the machine's CPU speed.
[[nodiscard]] inline double compute_time(const SystemParameters& params,
                                         double nominal_cost) {
  return nominal_cost / params.cpu_speed;
}

/// ceil(log2(n)) for n >= 1 — rounds of a binomial synchronization tree.
[[nodiscard]] int tree_rounds(int n);

/// Completion latency of an all-process barrier: ceil(log2(np))
/// synchronization rounds of barrier latency.
[[nodiscard]] double barrier_time(const SystemParameters& params);

/// The generated machine: node facilities + communication-time model.
class MachineModel {
 public:
  MachineModel(sim::Engine& engine, SystemParameters params);

  [[nodiscard]] const SystemParameters& params() const { return params_; }

  /// Node hosting a given process (block distribution: consecutive ranks
  /// share a node).
  [[nodiscard]] int node_of(int pid) const;

  /// The processor facility of a node (ppn servers).
  [[nodiscard]] sim::Facility& node(int index);
  [[nodiscard]] const sim::Facility& node(int index) const;
  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }

  /// Processor facility serving a process's compute requests.
  [[nodiscard]] sim::Facility& processor_of(int pid) {
    return node(node_of(pid));
  }

  /// Wall time a `bytes`-sized message needs from process `src` to
  /// process `dst` (latency + bytes/bandwidth; intra- vs inter-node).
  [[nodiscard]] double message_time(int src_pid, int dst_pid,
                                    double bytes) const;

  /// Sender CPU overhead per message.
  [[nodiscard]] double send_overhead() const {
    return params_.network_overhead;
  }

  /// Time for one tree round of a collective among `participants`
  /// processes moving `bytes` per rank pair.  Collectives in the workload
  /// layer charge ceil(log2(n)) such rounds.
  [[nodiscard]] double collective_round_time(double bytes) const;

  /// Scales a nominal compute cost by the machine's CPU speed.
  [[nodiscard]] double compute_time(double nominal_cost) const {
    return machine::compute_time(params_, nominal_cost);
  }

  /// One line per node: utilization, completions, mean queue length.
  [[nodiscard]] std::string utilization_report() const;

 private:
  sim::Engine* engine_;
  SystemParameters params_;
  std::vector<std::unique_ptr<sim::Facility>> nodes_;
};

}  // namespace prophet::machine
