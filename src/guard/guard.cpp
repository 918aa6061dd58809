#include "prophet/guard/guard.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace prophet::guard {

namespace {

/// splitmix64 — the probabilistic fault decision hash.  Deterministic
/// across platforms so a seeded plan fails the same visits everywhere.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_site(std::string_view site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string_view to_string(LimitKind kind) {
  switch (kind) {
    case LimitKind::WallClock:
      return "wall_clock";
    case LimitKind::SimEvents:
      return "sim_events";
    case LimitKind::VmInstructions:
      return "vm_instructions";
    case LimitKind::ReplayEvents:
      return "replay_events";
    case LimitKind::LoopTrips:
      return "loop_trips";
  }
  return "unknown";
}

Budget::Budget(const Limits& limits, const Budget* parent)
    : limits_(limits),
      parent_(parent),
      start_(std::chrono::steady_clock::now()),
      until_deadline_check_(kDeadlineStride) {
  if (limits_.wall_seconds > 0) {
    deadline_ = start_ + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 limits_.wall_seconds));
  }
}

bool Budget::cancel_requested() const noexcept {
  for (const Budget* b = this; b != nullptr; b = b->parent_) {
    if (b->cancelled_.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool Budget::exhausted() const noexcept {
  if (cancel_requested()) {
    return true;
  }
  const auto now = std::chrono::steady_clock::now();
  for (const Budget* b = this; b != nullptr; b = b->parent_) {
    if (b->deadline_ && now >= *b->deadline_) {
      return true;
    }
  }
  return false;
}

Usage Budget::usage() const {
  Usage usage;
  usage.sim_events = sim_events_;
  usage.vm_instructions = vm_instructions_;
  usage.replay_events = replay_events_;
  usage.loop_trips = loop_trips_;
  usage.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return usage;
}

void Budget::cancel_at_sim_event(std::uint64_t event) {
  cancel_at_sim_event_ = event == 0 ? 1 : event;
}

// A tripped limit's text names the limit, its bound and the stage, never
// the usage: usage() differs between engines (only the simulator's VM
// counts instructions) and between runs (the elapsed time), and one job
// must raise one text in every engine.
void Budget::trip(LimitKind kind, std::string_view stage) const {
  const Usage at = usage();
  std::string message;
  if (kind == LimitKind::WallClock) {
    char bound[64];
    double seconds = limits_.wall_seconds;
    for (const Budget* b = parent_; seconds <= 0 && b != nullptr;
         b = b->parent_) {
      seconds = b->limits_.wall_seconds;
    }
    std::snprintf(bound, sizeof(bound), "%.3f s", seconds);
    message = "wall_clock limit (" + std::string(bound) + ") exceeded in " +
              std::string(stage);
    throw ResourceExhausted(message, kind, std::string(stage), at);
  }
  std::uint64_t bound = 0;
  switch (kind) {
    case LimitKind::SimEvents:
      bound = limits_.max_sim_events;
      break;
    case LimitKind::VmInstructions:
      bound = limits_.max_vm_instructions;
      break;
    case LimitKind::ReplayEvents:
      bound = limits_.max_replay_events;
      break;
    case LimitKind::LoopTrips:
      bound = limits_.max_loop_trips;
      break;
    case LimitKind::WallClock:
      break;  // handled above
  }
  message = std::string(to_string(kind)) + " limit (" +
            std::to_string(bound) + ") exceeded in " + std::string(stage);
  throw ResourceExhausted(message, kind, std::string(stage), at);
}

void Budget::check(std::uint64_t charged, std::string_view stage) {
  if (cancel_requested()) {
    throw Cancelled("cancelled in " + std::string(stage), LimitKind::WallClock,
                    std::string(stage), usage());
  }
  if (cancel_at_sim_event_ != 0 && sim_events_ >= cancel_at_sim_event_) {
    cancel();
    throw Cancelled("cancelled (injected at simulated event " +
                        std::to_string(cancel_at_sim_event_) + ") in " +
                        std::string(stage),
                    LimitKind::WallClock, std::string(stage), usage());
  }
  // Amortize the clock read: only every kDeadlineStride charge units —
  // but a checkpoint() (charged == 0) always looks at the clock.
  if (charged >= until_deadline_check_ || charged == 0) {
    until_deadline_check_ = kDeadlineStride;
    const bool has_deadline = [this] {
      for (const Budget* b = this; b != nullptr; b = b->parent_) {
        if (b->deadline_) {
          return true;
        }
      }
      return false;
    }();
    if (has_deadline) {
      const auto now = std::chrono::steady_clock::now();
      for (const Budget* b = this; b != nullptr; b = b->parent_) {
        if (b->deadline_ && now >= *b->deadline_) {
          trip(LimitKind::WallClock, stage);
        }
      }
    }
  } else {
    until_deadline_check_ -= charged;
  }
}

void Budget::charge_sim_events(std::uint64_t n, std::string_view stage) {
  sim_events_ += n;
  if (limits_.max_sim_events != 0 && sim_events_ > limits_.max_sim_events) {
    trip(LimitKind::SimEvents, stage);
  }
  check(n, stage);
}

void Budget::charge_vm_instructions(std::uint64_t n, std::string_view stage) {
  vm_instructions_ += n;
  if (limits_.max_vm_instructions != 0 &&
      vm_instructions_ > limits_.max_vm_instructions) {
    trip(LimitKind::VmInstructions, stage);
  }
  check(n, stage);
}

void Budget::charge_replay_events(std::uint64_t n, std::string_view stage) {
  replay_events_ += n;
  if (limits_.max_replay_events != 0 &&
      replay_events_ > limits_.max_replay_events) {
    trip(LimitKind::ReplayEvents, stage);
  }
  check(n, stage);
}

void Budget::charge_loop_trips(std::uint64_t n, std::string_view stage) {
  loop_trips_ += n;
  if (limits_.max_loop_trips != 0 && loop_trips_ > limits_.max_loop_trips) {
    trip(LimitKind::LoopTrips, stage);
  }
  check(n, stage);
}

void Budget::checkpoint(std::string_view stage) { check(0, stage); }

// --- FaultPlan -------------------------------------------------------------

FaultPlan FaultPlan::parse(std::string_view spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  std::size_t i = 0;
  const auto is_sep = [](char c) {
    return c == ',' || c == ' ' || c == '\t' || c == '\n';
  };
  while (i < spec.size()) {
    while (i < spec.size() && is_sep(spec[i])) {
      ++i;
    }
    if (i >= spec.size()) {
      break;
    }
    std::size_t end = i;
    while (end < spec.size() && !is_sep(spec[end])) {
      ++end;
    }
    const std::string_view token = spec.substr(i, end - i);
    i = end;

    Rule rule;
    std::string_view site = token;
    if (const auto at = token.find('@'); at != std::string_view::npos) {
      site = token.substr(0, at);
      const std::string count(token.substr(at + 1));
      char* parse_end = nullptr;
      rule.at = std::strtoull(count.c_str(), &parse_end, 10);
      if (count.empty() || *parse_end != '\0' || rule.at == 0) {
        throw std::invalid_argument("fault plan: bad visit count in '" +
                                    std::string(token) +
                                    "' (want site@N with N >= 1)");
      }
    } else if (const auto pct = token.find('%');
               pct != std::string_view::npos) {
      site = token.substr(0, pct);
      const std::string prob(token.substr(pct + 1));
      char* parse_end = nullptr;
      rule.probability = std::strtod(prob.c_str(), &parse_end);
      if (prob.empty() || *parse_end != '\0' || rule.probability < 0 ||
          rule.probability > 1) {
        throw std::invalid_argument("fault plan: bad probability in '" +
                                    std::string(token) +
                                    "' (want site%P with P in [0,1])");
      }
    }
    if (site.empty()) {
      throw std::invalid_argument("fault plan: empty site name in '" +
                                  std::string(token) + "'");
    }
    rule.site = std::string(site);
    plan.rules_.push_back(rule);
  }
  return plan;
}

void FaultPlan::visit(std::string_view site) {
  for (auto& rule : rules_) {
    if (rule.site != site) {
      continue;
    }
    const std::uint64_t visit =
        rule.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    if (rule.probability >= 0) {
      const std::uint64_t h =
          mix64(seed_ ^ hash_site(rule.site) ^ (visit * 0x9e3779b97f4a7c15ULL));
      fire = static_cast<double>(h) / 18446744073709551616.0 <
             rule.probability;
    } else if (rule.at != 0) {
      fire = visit == rule.at;
    } else {
      fire = true;
    }
    if (fire) {
      throw FaultInjected("injected fault at site '" + rule.site +
                              "' (visit " + std::to_string(visit) + ")",
                          rule.site, visit);
    }
  }
}

std::optional<std::uint64_t> FaultPlan::cancel_at_event() const {
  for (const auto& rule : rules_) {
    if (rule.site == "cancel") {
      return rule.at == 0 ? 1 : rule.at;
    }
  }
  return std::nullopt;
}

}  // namespace prophet::guard
