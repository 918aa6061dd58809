// Mailboxes — CSIM-style message exchange between simulation processes.
//
// The workload layer builds the message-passing modeling elements of the
// paper's UML extension (send/recv/broadcast/... [17,18]) on top of these:
// a send deposits a message (never blocks), a receive suspends the calling
// process until a message is available.  Delivery is FIFO.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prophet/sim/engine.hpp"
#include "prophet/sim/stats.hpp"

namespace prophet::sim {

/// A message in flight.  `size` is in bytes (used by the network model to
/// derive transfer times); `payload` is opaque to the engine.
struct Message {
  int source = 0;
  int tag = 0;
  double size = 0;
  Time sent_at = 0;
  std::uint64_t payload = 0;
};

class Mailbox {
 public:
  Mailbox(Engine& engine, std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t pending() const {
    return messages_.size() - head_;
  }
  [[nodiscard]] std::size_t waiting_receivers() const {
    return waiters_.size();
  }

  /// Deposits a message; wakes the longest-waiting receiver if any.
  void send(Message message);

  /// Awaitable receive; suspends while the mailbox is empty.
  struct ReceiveAwaiter {
    Mailbox* mailbox;
    Message message;
    Time arrival = 0;
    std::coroutine_handle<> handle{};
    ReceiveAwaiter* next = nullptr;

    [[nodiscard]] bool await_ready() {
      arrival = mailbox->engine_->now();
      if (mailbox->pending() != 0) {
        message = mailbox->take();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> waiter) {
      handle = waiter;
      mailbox->waiters_.push_back(this);
    }
    [[nodiscard]] Message await_resume() {
      mailbox->receive_waits_.record(mailbox->engine_->now() - arrival);
      return message;
    }
  };
  [[nodiscard]] ReceiveAwaiter receive() {
    return ReceiveAwaiter{this, Message{}, 0};
  }

  // --- Statistics ----------------------------------------------------------

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }
  /// Time-weighted mean number of queued messages.
  [[nodiscard]] double mean_pending() const;
  /// Receiver blocking times.
  [[nodiscard]] const Accumulator& receive_waits() const {
    return receive_waits_;
  }

 private:
  friend struct ReceiveAwaiter;

  Message take();

  Engine* engine_;
  std::string name_;
  // Queued messages are messages_[head_..]; the vector allocates on the
  // first message that waits and is reused once drained.
  std::vector<Message> messages_;
  std::size_t head_ = 0;
  WaitQueue<ReceiveAwaiter> waiters_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  TimeWeighted pending_stat_;
  Accumulator receive_waits_;
};

}  // namespace prophet::sim
