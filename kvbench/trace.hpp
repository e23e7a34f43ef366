// In-memory span recorder for the traced run. One recorder per thread (no
// synchronisation on the record path); kvbench.cpp writes all of them out
// once, after the last phase, as fixed 40-byte records that reduce.py
// reads:
//
//   u64 start_ns | u64 end_ns | u64 id | u64 parent | u16 name | u16 variant
//   | u32 phase
//
// in host byte order (the sidecar JSON names it). Ids are unique across
// recorders (each recorder owns an id range); parent 0 is a root span. A
// recorder keeps at most `cap` spans per (variant, phase) context, so a
// traced closed loop at a few hundred thousand requests per second stays
// within memory; spans past the cap are timed the same way and dropped.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

namespace kvbench {

enum class SpanName : std::uint16_t {
  kRequest = 0,   ///< due time (open loop) or send (closed loop) -> answer
  kSubmit,        ///< KvService::submit, or the frame send on kv-net
  kStoreGet,      ///< store.<op>: one KV operation run by the prober
  kStorePut,
  kStoreTransfer,
  kStoreMultiGet,
  kStoreScan,
  kStmAttempt,    ///< one execution of a body passed to AnyStm::run
  kNetCall,       ///< KvClient::ping round trip
  kCount
};

inline const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRequest:       return "request";
    case SpanName::kSubmit:        return "submit";
    case SpanName::kStoreGet:      return "store.get";
    case SpanName::kStorePut:      return "store.put";
    case SpanName::kStoreTransfer: return "store.transfer";
    case SpanName::kStoreMultiGet: return "store.multi_get";
    case SpanName::kStoreScan:     return "store.scan";
    case SpanName::kStmAttempt:    return "stm.attempt";
    case SpanName::kNetCall:       return "net.call";
    case SpanName::kCount:         break;
  }
  return "?";
}

/// Which phase a span was recorded in (the reducer groups by it).
enum class Phase : std::uint32_t { kCapacity = 0, kLatency, kProbe, kPing };

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint16_t name = 0;
  std::uint16_t variant = 0;
  std::uint32_t phase = 0;
};
static_assert(sizeof(Span) == 40);

class Recorder {
 public:
  explicit Recorder(std::uint64_t id_base) : next_id_(id_base) {}

  /// A fresh span id (valid whether or not the span is kept).
  std::uint64_t new_id() { return ++next_id_; }

  void add(std::uint64_t id, std::uint64_t parent, SpanName name,
           std::uint64_t start, std::uint64_t end) {
    if (kept_ >= cap_) return;
    ++kept_;
    spans_.push_back(Span{start, end, id, parent,
                          static_cast<std::uint16_t>(name), variant_,
                          static_cast<std::uint32_t>(phase_)});
  }

  /// Spans added from here on belong to (variant, phase); at most `cap`
  /// of them are kept.
  void set_context(std::uint16_t variant, Phase phase, std::size_t cap) {
    variant_ = variant;
    phase_ = phase;
    cap_ = cap;
    kept_ = 0;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_;
  std::size_t cap_ = 0;
  std::size_t kept_ = 0;
  std::uint16_t variant_ = 0;
  Phase phase_ = Phase::kCapacity;
};

/// Appends every span of `r` to `f`.
inline bool write_spans(std::FILE* f, const Recorder& r) {
  const auto& s = r.spans();
  return s.empty() ||
         std::fwrite(s.data(), sizeof(Span), s.size(), f) == s.size();
}

}  // namespace kvbench
