// Contention-manager framework.
//
// "Conflict arbitration is performed by a configurable module called
// contention manager, which is responsible for the liveness of the system"
// (§4.1, following DSTM [4]). Every STM here consults one when a
// transaction finds an object write-owned by another live transaction.
//
// The manager only *decides*; the caller performs the decision (enemy abort
// via TxDescBase::abort_by_enemy, waiting via Backoff, or self-abort), so a
// policy can never corrupt protocol state. Its one piece of state is the
// start-tick sequence that the start-ordered policies compare.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/txdesc.hpp"
#include "util/align.hpp"

namespace zstm::cm {

enum class Decision {
  kAbortOther,  // kill the current owner and take over
  kAbortSelf,   // abort the requesting transaction
  kWait,        // back off and re-examine the conflict
};

inline const char* to_string(Decision d) {
  switch (d) {
    case Decision::kAbortOther: return "abort-other";
    case Decision::kAbortSelf: return "abort-self";
    case Decision::kWait: return "wait";
  }
  return "?";
}

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  /// Arbitrate a write/write (or open-time) conflict between `me` (the
  /// requester) and `other` (the current owner). `attempt` counts how many
  /// times this same conflict has already been re-examined after kWait
  /// decisions, letting politeness-style policies escalate.
  virtual Decision arbitrate(const runtime::TxDescBase& me,
                             const runtime::TxDescBase& other,
                             std::uint32_t attempt) = 0;

  virtual std::string name() const = 0;

  /// True for the policies that arbitrate by start time (Timestamp,
  /// Greedy). Only they read TxDescBase::start_ticks, so only under them
  /// does a beginning transaction draw a tick from the shared counter.
  bool orders_by_start() const { return orders_by_start_; }

  /// The start tick a fresh descriptor carries: the next value (from 1) of
  /// this manager's sequence when the policy orders by start time, else 0
  /// without touching the counter — every other policy leaves the begin
  /// path free of that shared write.
  std::uint64_t start_tick() {
    if (!orders_by_start_) return 0;
    return ticks_.value.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 protected:
  explicit ContentionManager(bool orders_by_start = false)
      : orders_by_start_(orders_by_start) {}

 private:
  const bool orders_by_start_;
  util::PaddedCounter ticks_;
};

enum class Policy {
  kAggressive,  // always abort the other transaction
  kSuicide,     // always abort self
  kPolite,      // bounded waiting, then abort the other
  kKarma,       // transaction with more invested work wins
  kTimestamp,   // older transaction wins (greedy-style)
  kGreedy,      // older-or-waiting owner loses (Guerraoui et al. Greedy)
  kPolka,       // Karma with exponentially growing patience (Polite+Karma)
};

std::unique_ptr<ContentionManager> make_manager(Policy policy);

const char* policy_name(Policy policy);

}  // namespace zstm::cm
