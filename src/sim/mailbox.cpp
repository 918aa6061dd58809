#include "prophet/sim/mailbox.hpp"

namespace prophet::sim {

Mailbox::Mailbox(Engine& engine, std::string name)
    : engine_(&engine), name_(std::move(name)) {}

void Mailbox::send(Message message) {
  const Time now = engine_->now();
  message.sent_at = now;
  ++sent_;
  if (waiters_.size() != 0) {
    ReceiveAwaiter* waiter = waiters_.pop_front();
    waiter->message = message;
    ++received_;
    engine_->schedule(waiter->handle, now);
    return;
  }
  messages_.push_back(message);
  pending_stat_.set(static_cast<double>(pending()), now);
}

Message Mailbox::take() {
  const Message message = messages_[head_++];
  if (head_ == messages_.size()) {
    messages_.clear();
    head_ = 0;
  } else if (2 * head_ >= messages_.size()) {
    // Drop the consumed half so a queue that never drains stays bounded.
    messages_.erase(messages_.begin(),
                    messages_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  pending_stat_.set(static_cast<double>(pending()), engine_->now());
  ++received_;
  return message;
}

double Mailbox::mean_pending() const {
  return pending_stat_.mean(engine_->now());
}

}  // namespace prophet::sim
