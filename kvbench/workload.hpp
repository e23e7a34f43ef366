// Workloads of the KV benchmark: the key distribution, the operation mix
// and the open-loop rate of each, the seeded request stream they generate,
// and the expected answer to every request (the correctness check).
//
// Every key in [0, keys) is preloaded and nothing deletes, so each answer
// is known in advance: a get finds its key, a put overwrites, a transfer
// between two distinct present keys succeeds, a multi_get finds its whole
// window and a scan counts the whole keyspace.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/kv_service.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace kvbench {

using zstm::server::Key;
using zstm::server::Op;
using zstm::server::Value;

struct Workload {
  std::string name;
  bool net = false;            ///< sent across TcpServer on loopback
  std::uint64_t keys = 0;      ///< preloaded keyspace [0, keys)
  double zipf_theta = 0.99;    ///< point-op key skew
  double put = 0.0;            ///< mix fractions; the rest is get
  double transfer = 0.0;
  double multi_get = 0.0;
  double scan = 0.0;           ///< placed at a fixed stride, not drawn
  std::uint32_t fanout = 0;    ///< multi_get window (consecutive keys)
  double rate = 0.0;           ///< open-loop arrivals per second
};

inline Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "kv-point" || name == "kv-net") {
    w.net = name == "kv-net";
    w.keys = 1 << 16;
    w.put = 0.15;
    w.transfer = 0.05;
    w.rate = 20000.0;
  } else if (name == "kv-long") {
    w.keys = 1 << 14;
    w.put = 0.20;
    w.transfer = 0.05;
    w.multi_get = 0.10;
    w.fanout = 64;
    w.scan = 0.002;
    w.rate = 2000.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

struct Req {
  Op op = Op::kGet;
  Key key = 0;
  Key key2 = 0;
  Value value = 0;
  std::uint32_t fanout = 0;
};

constexpr Value kPreloadValue = 100;

/// The seeded request stream: the same seed gives the same requests. Both
/// phases of every variant walk the same stream, so variants see the same
/// inputs.
inline std::vector<Req> make_stream(const Workload& w, std::uint64_t seed,
                                    std::size_t n) {
  zstm::util::Xorshift rng(seed);
  zstm::util::Zipfian keys(w.keys, w.zipf_theta, seed ^ 0x5eedULL);
  // Scans are so slow (a whole-table walk) that their share of a run sets
  // the capacity and the tail; they sit at a fixed stride so that share is
  // the same for every seed. The other verbs are drawn at random.
  const std::size_t scan_every =
      w.scan > 0 ? static_cast<std::size_t>(1.0 / w.scan + 0.5) : 0;
  std::vector<Req> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Req& r = out[i];
    if (scan_every != 0 && i % scan_every == scan_every - 1) {
      r.op = Op::kScan;
      continue;
    }
    const double roll = rng.next_unit();
    double acc = w.put;
    if (roll < acc) {
      r.op = Op::kPut;
      r.key = keys.next();
      r.value = static_cast<Value>(rng.next_below(1000));
    } else if (roll < (acc += w.transfer)) {
      r.op = Op::kTransfer;
      r.key = keys.next();
      r.key2 = keys.next();
      if (r.key2 == r.key) r.key2 = (r.key + 1) % w.keys;
      r.value = 1;
    } else if (roll < (acc += w.multi_get)) {
      r.op = Op::kMultiGet;
      r.key = rng.next_below(w.keys - w.fanout + 1);
      r.fanout = w.fanout;
    } else {
      r.op = Op::kGet;
      r.key = keys.next();
    }
  }
  return out;
}

/// The expected-answer check. `sabotage` expects every put to insert, which
/// is wrong on a preloaded keyspace: it exists so a test can show that a
/// wrong expectation fails the run.
struct Checker {
  std::uint64_t keys = 0;
  bool sabotage = false;

  /// `ok` and `count` as KvService reports them (or as they cross the wire:
  /// status kOk <=> ok).
  bool answer_ok(const Req& r, bool ok, std::uint64_t count) const {
    switch (r.op) {
      case Op::kGet:
      case Op::kTransfer:
        return ok;
      case Op::kPut:
        return ok && count == (sabotage ? 1u : 0u);
      case Op::kMultiGet:
        return ok && count == r.fanout;
      case Op::kScan:
        return ok && count == keys;
      default:
        return false;
    }
  }
};

}  // namespace kvbench
