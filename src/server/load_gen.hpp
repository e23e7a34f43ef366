// Open-loop load generator for the KV service (DESIGN.md §12.3).
//
// One pacer thread issues requests on a fixed schedule of deterministic
// 1/rate spacing and stamps each request with its SCHEDULED arrival time,
// not the time the pacer got around to enqueueing it. Latency is therefore
// measured from when the request *should* have arrived, so pacer lateness
// and queueing delay both land in the recorded tail instead of being
// silently absorbed (the coordinated-omission trap of closed-loop
// harnesses). When the service ring is full the request is shed and
// counted: an overloaded open-loop system drops work, it does not slow the
// arrival process down. The pacer sleeps to the schedule, so its oversleep
// lands in the tail too; kvbench (kvbench/README.md) spin-paces instead and
// is the rail that measures the service.
//
// Key choice follows a Zipfian(theta) over [0, keyspace) with scrambled
// ranks (util::Zipfian); the op mix is a cumulative draw over the six
// service verbs. Everything is deterministic under a fixed seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "server/kv_service.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace zstm::server {

/// Operation mix as fractions; anything left after the named verbs goes to
/// get (so the mix never needs to sum to exactly 1).
struct LoadMix {
  double put = 0.15;
  double del = 0.02;
  double multi_get = 0.05;
  double scan = 0.01;
  double transfer = 0.07;
};

struct LoadGenConfig {
  double rate = 2000.0;  ///< target arrivals per second
  std::chrono::milliseconds duration{1000};
  std::uint64_t keyspace = 4096;
  double zipf_theta = 0.99;  ///< 0 = uniform
  LoadMix mix;
  std::uint32_t multi_fanout = 16;
  std::uint64_t seed = 1;
  Value put_value = 100;
  Value transfer_amount = 1;
};

struct LoadGenResult {
  std::uint64_t offered = 0;   ///< scheduled arrivals
  std::uint64_t accepted = 0;  ///< made it into the ring
  std::uint64_t shed = 0;      ///< rejected (ring full / not accepting)
  std::uint64_t elapsed_ns = 0;
};

/// The open-loop arrival process run_open_loop below drives: owns the
/// schedule, the op-mix rng and the Zipfian key stream. Each next() sleeps
/// to the next scheduled arrival and draws that request; the sequence
/// depends only on the config (seed included), never on timing. Requires
/// cfg.rate > 0 and cfg.keyspace > 0.
class OpenLoopPacer {
 public:
  explicit OpenLoopPacer(const LoadGenConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        keys_(cfg.keyspace, cfg.zipf_theta, cfg.seed ^ 0x5eedULL),
        interval_ns_(1e9 / cfg.rate),
        t0_(util::ProgressTracker::now_ns()),
        end_(t0_ + static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           cfg.duration)
                           .count())),
        next_(static_cast<double>(t0_)) {}

  /// Schedule start, ProgressTracker::now_ns timebase.
  std::uint64_t start_ns() const { return t0_; }

  /// Sleep until the next scheduled arrival and overwrite `req` with its
  /// request, stamped with the SCHEDULED time in req.arrival_ns. Returns
  /// false once the schedule has run past cfg.duration.
  bool next(Request& req) {
    if (static_cast<std::uint64_t>(next_) >= end_) return false;
    const std::uint64_t scheduled = static_cast<std::uint64_t>(next_);
    const std::uint64_t now = util::ProgressTracker::now_ns();
    if (scheduled > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
    }
    // Behind schedule: issue immediately (burst catch-up) — the scheduled
    // stamp keeps the accounting honest.

    req = Request{};
    req.arrival_ns = scheduled;
    const double roll = rng_.next_unit();
    double acc = cfg_.mix.put;
    if (roll < acc) {
      req.op = Op::kPut;
      req.key = keys_.next();
      req.value = cfg_.put_value;
    } else if (roll < (acc += cfg_.mix.del)) {
      req.op = Op::kDel;
      req.key = keys_.next();
    } else if (roll < (acc += cfg_.mix.multi_get)) {
      req.op = Op::kMultiGet;
      const std::uint64_t span = cfg_.keyspace > cfg_.multi_fanout
                                     ? cfg_.keyspace - cfg_.multi_fanout
                                     : 1;
      req.key = rng_.next_below(span);  // window start: uniform, not skewed
      req.fanout = cfg_.multi_fanout;
    } else if (roll < (acc += cfg_.mix.scan)) {
      req.op = Op::kScan;
    } else if (roll < (acc += cfg_.mix.transfer)) {
      req.op = Op::kTransfer;
      req.key = keys_.next();
      req.key2 = keys_.next();
      if (req.key2 == req.key) req.key2 = (req.key + 1) % cfg_.keyspace;
      req.value = cfg_.transfer_amount;
    } else {
      req.op = Op::kGet;
      req.key = keys_.next();
    }

    next_ += interval_ns_;
    return true;
  }

 private:
  const LoadGenConfig cfg_;
  util::Xorshift rng_;
  util::Zipfian keys_;
  const double interval_ns_;
  const std::uint64_t t0_;
  const std::uint64_t end_;
  double next_;
};

/// Run the open-loop schedule against `svc` from the calling thread.
/// Blocks for ~cfg.duration. The service must be start()ed.
inline LoadGenResult run_open_loop(KvService& svc, const LoadGenConfig& cfg) {
  LoadGenResult res;
  if (cfg.rate <= 0.0 || cfg.keyspace == 0) return res;

  OpenLoopPacer pacer(cfg);
  for (Request req; pacer.next(req);) {
    ++res.offered;
    if (svc.submit(std::move(req))) {
      ++res.accepted;
    } else {
      ++res.shed;
    }
  }
  res.elapsed_ns = util::ProgressTracker::now_ns() - pacer.start_ns();
  return res;
}

}  // namespace zstm::server
