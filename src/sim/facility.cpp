#include "prophet/sim/facility.hpp"

#include <stdexcept>

namespace prophet::sim {

Facility::Facility(Engine& engine, std::string name, int servers)
    : engine_(&engine), name_(std::move(name)), servers_(servers) {
  if (servers < 1) {
    throw std::invalid_argument("facility needs at least one server");
  }
}

void Facility::grant(Time arrival, Time now) {
  ++busy_;
  busy_stat_.set(busy_, now);
  waits_.record(now - arrival);
}

void Facility::enqueue(AcquireAwaiter* waiter) {
  // After the last waiter of at least the same priority.  The common
  // case (uniform priority) appends in O(1).
  AcquireAwaiter* before = waiters_.back();
  if (before != nullptr && before->priority < waiter->priority) {
    before = nullptr;
    for (AcquireAwaiter* at = waiters_.front();
         at->priority >= waiter->priority; at = at->next) {
      before = at;
    }
  }
  waiters_.insert_after(before, waiter);
  queue_stat_.set(static_cast<double>(waiters_.size()), engine_->now());
}

void Facility::release() {
  const Time now = engine_->now();
  if (busy_ == 0) {
    throw std::logic_error("release() of idle facility '" + name_ + "'");
  }
  --busy_;
  busy_stat_.set(busy_, now);
  ++completions_;
  if (waiters_.size() != 0) {
    AcquireAwaiter* waiter = waiters_.pop_front();
    queue_stat_.set(static_cast<double>(waiters_.size()), now);
    grant(waiter->arrival, now);
    engine_->schedule(waiter->handle, now);
  }
}

double Facility::utilization() const {
  const Time now = engine_->now();
  if (now <= 0) {
    return 0;
  }
  return busy_stat_.mean(now) / static_cast<double>(servers_);
}

double Facility::mean_queue_length() const {
  return queue_stat_.mean(engine_->now());
}

}  // namespace prophet::sim
