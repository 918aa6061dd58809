#include "prophet/machine/machine.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "prophet/xml/parser.hpp"
#include "prophet/xml/writer.hpp"

namespace prophet::machine {
namespace {

double attr_double(const xml::Element& element, std::string_view name,
                   double fallback) {
  if (auto text = element.attr(name)) {
    char* end = nullptr;
    const std::string copy(*text);
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() && *end == '\0') {
      return value;
    }
    throw std::invalid_argument("sp: attribute '" + std::string(name) +
                                "' is not a number: " + copy);
  }
  return fallback;
}

int attr_int(const xml::Element& element, std::string_view name,
             int fallback) {
  return static_cast<int>(attr_double(element, name, fallback));
}

}  // namespace

void SystemParameters::validate() const {
  auto require = [](bool condition, const char* message) {
    if (!condition) {
      throw std::invalid_argument(std::string("system parameters: ") +
                                  message);
    }
  };
  require(nodes >= 1, "nodes must be >= 1");
  require(processors_per_node >= 1, "processors_per_node must be >= 1");
  require(processes >= 1, "processes must be >= 1");
  require(threads_per_process >= 1, "threads_per_process must be >= 1");
  require(cpu_speed > 0, "cpu_speed must be > 0");
  require(network_latency >= 0, "network_latency must be >= 0");
  require(network_bandwidth > 0, "network_bandwidth must be > 0");
  require(network_overhead >= 0, "network_overhead must be >= 0");
  require(memory_latency >= 0, "memory_latency must be >= 0");
  require(memory_bandwidth > 0, "memory_bandwidth must be > 0");
  require(barrier_latency >= 0, "barrier_latency must be >= 0");
}

xml::Document SystemParameters::to_xml() const {
  auto doc = xml::Document::with_root("sp");
  auto& root = doc.root();
  auto num = [](double value) {
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
  };
  root.set_attr("nodes", std::to_string(nodes));
  root.set_attr("ppn", std::to_string(processors_per_node));
  root.set_attr("processes", std::to_string(processes));
  root.set_attr("threads", std::to_string(threads_per_process));
  auto& network = root.add_element("network");
  network.set_attr("latency", num(network_latency));
  network.set_attr("bandwidth", num(network_bandwidth));
  network.set_attr("overhead", num(network_overhead));
  auto& memory = root.add_element("memory");
  memory.set_attr("latency", num(memory_latency));
  memory.set_attr("bandwidth", num(memory_bandwidth));
  auto& cpu = root.add_element("cpu");
  cpu.set_attr("speed", num(cpu_speed));
  auto& sync = root.add_element("sync");
  sync.set_attr("barrier_latency", num(barrier_latency));
  return doc;
}

SystemParameters SystemParameters::from_xml(const xml::Document& doc) {
  if (!doc.has_root() || doc.root().name() != "sp") {
    throw std::invalid_argument("not an SP document (root must be <sp>)");
  }
  const auto& root = doc.root();
  SystemParameters params;
  params.nodes = attr_int(root, "nodes", params.nodes);
  params.processors_per_node = attr_int(root, "ppn",
                                        params.processors_per_node);
  params.processes = attr_int(root, "processes", params.processes);
  params.threads_per_process = attr_int(root, "threads",
                                        params.threads_per_process);
  if (const auto* network = root.child("network")) {
    params.network_latency =
        attr_double(*network, "latency", params.network_latency);
    params.network_bandwidth =
        attr_double(*network, "bandwidth", params.network_bandwidth);
    params.network_overhead =
        attr_double(*network, "overhead", params.network_overhead);
  }
  if (const auto* memory = root.child("memory")) {
    params.memory_latency =
        attr_double(*memory, "latency", params.memory_latency);
    params.memory_bandwidth =
        attr_double(*memory, "bandwidth", params.memory_bandwidth);
  }
  if (const auto* cpu = root.child("cpu")) {
    params.cpu_speed = attr_double(*cpu, "speed", params.cpu_speed);
  }
  if (const auto* sync = root.child("sync")) {
    params.barrier_latency =
        attr_double(*sync, "barrier_latency", params.barrier_latency);
  }
  params.validate();
  return params;
}

void SystemParameters::save(const std::string& path) const {
  xml::write_file(to_xml(), path);
}

SystemParameters SystemParameters::load(const std::string& path) {
  return from_xml(xml::parse_file(path));
}

MachineModel::MachineModel(sim::Engine& engine, SystemParameters params)
    : engine_(&engine), params_(params) {
  params_.validate();
  nodes_.reserve(static_cast<std::size_t>(params_.nodes));
  for (int i = 0; i < params_.nodes; ++i) {
    nodes_.push_back(std::make_unique<sim::Facility>(
        engine, "node" + std::to_string(i), params_.processors_per_node));
  }
}

int node_of(const SystemParameters& params, int pid) {
  if (pid < 0 || pid >= params.processes) {
    throw std::out_of_range("pid " + std::to_string(pid) +
                            " outside [0, processes)");
  }
  // Block distribution: ceil(np / nn) consecutive ranks per node.
  const int per_node = (params.processes + params.nodes - 1) / params.nodes;
  return pid / per_node;
}

double message_time(const SystemParameters& params, int src_pid, int dst_pid,
                    double bytes) {
  return link_time(params, node_of(params, src_pid) == node_of(params, dst_pid),
                   bytes);
}

double collective_round_time(const SystemParameters& params, double bytes) {
  // A round of a tree collective is dominated by the slowest link, which
  // is inter-node as soon as more than one node participates.
  if (params.nodes > 1) {
    return params.network_latency + bytes / params.network_bandwidth;
  }
  return params.memory_latency + bytes / params.memory_bandwidth;
}

int tree_rounds(int n) {
  int rounds = 0;
  int reach = 1;
  while (reach < n) {
    reach *= 2;
    ++rounds;
  }
  return rounds;
}

double barrier_time(const SystemParameters& params) {
  return tree_rounds(params.processes) * params.barrier_latency;
}

int MachineModel::node_of(int pid) const {
  return machine::node_of(params_, pid);
}

sim::Facility& MachineModel::node(int index) {
  return *nodes_.at(static_cast<std::size_t>(index));
}

const sim::Facility& MachineModel::node(int index) const {
  return *nodes_.at(static_cast<std::size_t>(index));
}

double MachineModel::message_time(int src_pid, int dst_pid,
                                  double bytes) const {
  return machine::message_time(params_, src_pid, dst_pid, bytes);
}

double MachineModel::collective_round_time(double bytes) const {
  return machine::collective_round_time(params_, bytes);
}

std::string MachineModel::utilization_report() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (const auto& node : nodes_) {
    out << node->name() << ": utilization " << node->utilization()
        << ", completions " << node->completions() << ", mean queue "
        << node->mean_queue_length() << '\n';
  }
  return out.str();
}

}  // namespace prophet::machine
