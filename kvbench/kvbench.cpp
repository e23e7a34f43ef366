// kvbench — the KV benchmark across the consistency spectrum.
//
// Drives server::KvService in process (kv-point, kv-long) or through
// net::TcpServer on loopback (kv-net) for four runtime variants, one per
// criterion the paper spans: cs-vc (causal), zl (z-linearizable), lsa and
// tl2 (linearizable). Each variant runs two phases:
//
//   capacity  closed loop: one generator thread keeps kWindow requests in
//             flight; completions per second, as the interquartile mean of
//             100 ms window rates, are the service's saturated ceiling.
//   latency   open loop at the workload's fixed rate; the generator spins
//             (never sleeps) to each due time and every request is timed
//             from its due time to its answer, so generator lateness and
//             queueing both count. The generator records its own lateness.
//
// The untraced run cuts both phases into kRounds slices and lets the
// variants take turns, and the generator has a CPU of its own (Placement).
//
// Every answer is checked against the known expectation (workload.hpp),
// every accepted request must be answered exactly once, and the store is
// audited after each variant. Any failure fails the run (exit 1).
//
// --trace 1 runs the per-layer variant instead: the same phases with spans
// (trace.hpp), an untraced capacity phase for the tracing overhead, a
// contention phase where a prober thread runs its own transaction bodies
// through AnyStm::run beside the closed loop, and direct timed calls on
// svc.store(). The end-to-end metrics always come from --trace 0.
//
// Output: one `metric <name> <value> <unit> ...` line per metric, a `host`
// stanza, and as the last line one JSON object {correct, attempted, failed,
// metrics}. kvbench/run.py builds this binary and runs it.
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "net/kv_client.hpp"
#include "net/tcp_server.hpp"
#include "net/wire.hpp"
#include "server/kv_service.hpp"
#include "trace.hpp"
#include "util/latency_histogram.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace kvbench {
namespace {

using zstm::util::Counter;
using zstm::util::LatencyHistogram;
namespace server = zstm::server;
namespace net = zstm::net;
namespace wire = zstm::net::wire;
namespace api = zstm::api;

std::uint64_t now_ns() { return zstm::util::ProgressTracker::now_ns(); }

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

const std::vector<std::string> kVariants = {"lsa", "zl", "cs-vc", "tl2"};
constexpr int kWorkers = 2;
constexpr int kConns = 2;
constexpr std::uint64_t kWindow = 64;        ///< closed-loop requests in flight
// Closed-loop slot ring. A slot is reused only once its request has been
// answered, so the ring must be far longer than the run of cheap requests
// that pass one slow request (a kv-long scan), or the ring, not the
// window, would stall the loop.
constexpr std::size_t kRing = 1 << 13;
constexpr std::uint64_t kCapSubWindowNs = 100'000'000;
constexpr int kRounds = 10;  ///< untraced: slices per variant, interleaved
constexpr int kSetupReps = 3;
constexpr std::size_t kStreamLen = 1 << 16;
constexpr std::uint32_t kStoreFanout = 64;     ///< store.multi_get window
constexpr std::uint64_t kDrainTimeoutNs = 10'000'000'000ULL;
constexpr std::size_t kSpanCap = 50'000;      ///< per (variant, phase)

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// CPU placement: the generator thread keeps the first allowed CPU to
/// itself and every thread of the system under test (workers, housekeeper,
/// TcpServer loops, the prober) runs on the others. The generator spins and
/// idle workers spin-yield; sharing CPUs, they would take turns, and the
/// generator's lost turns would read as service latency. Threads inherit
/// the affinity of the thread that creates them, so the generator switches
/// to the service's set around every call that starts threads.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&gen_);
    CPU_ZERO(&sut_);
    cpu_set_t all;
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
      return;  // one CPU: nothing to separate
    }
    bool first = true;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all)) continue;
      CPU_SET(c, first ? &gen_ : &sut_);
      first = false;
    }
    on_ = true;
    pin(gen_);
  }

  /// Runs `f` (which starts threads) with the service's CPU set.
  template <typename F>
  void as_service(F&& f) const {
    if (on_) pin(sut_);
    f();
    if (on_) pin(gen_);
  }

  /// Moves the calling thread onto the service's CPUs.
  void join_service() const {
    if (on_) pin(sut_);
  }

 private:
  static void pin(const cpu_set_t& set) {
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

  cpu_set_t gen_;
  cpu_set_t sut_;
  bool on_ = false;
};

const Placement& placement() {
  static const Placement p;
  return p;
}

/// Exact quantile (same rank rule as LatencyHistogram::quantile) of `v`,
/// which it reorders.
double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::uint64_t target =
      static_cast<std::uint64_t>(q * static_cast<double>(v.size()) + 0.5);
  target = std::clamp<std::uint64_t>(target, 1, v.size());
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(target - 1);
  std::nth_element(v.begin(), nth, v.end());
  return static_cast<double>(*nth);
}

/// Interquartile mean: the mean of the middle half of `v`. Capacity uses
/// it over 100 ms window rates: it drops bursts of outside load like a
/// median does, but it does not snap to one window's value, which on kv-long
/// moves in steps of one scan period (500 requests).
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count etc., human-readable lines only
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool audits_ok = true;

  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Request slots and answer checking
// ---------------------------------------------------------------------------

/// One request's bookkeeping. The generator fills a slot before submitting;
/// the answer (a KvService worker's on_done, or the generator itself on
/// kv-net) stamps done_ns and bumps answered_seq to seq + 1, which is how a
/// second answer to the same request is caught.
struct Slot {
  Req req;
  std::uint64_t seq = 0;
  std::uint64_t due = 0;      ///< open loop: due time; closed loop: send
  std::uint64_t sent = 0;     ///< send start
  std::uint64_t sent_end = 0; ///< submit returned / frame handed to kernel
  bool accepted = false;
  std::atomic<std::uint64_t> done_ns{0};
  std::atomic<std::uint64_t> answered_seq{0};
};

struct Ledger {
  Checker chk;
  std::vector<Slot> slots;
  std::uint64_t mask = 0;  ///< slot = seq & mask (ring) or seq (mask ~0)
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;       ///< ring shed, kShed response, dead socket
  std::uint64_t unanswered = 0;

  Ledger(const Checker& c, std::size_t n, bool ring)
      : chk(c), slots(n), mask(ring ? n - 1 : ~0ULL) {}

  Slot& slot(std::uint64_t seq) { return slots[seq & mask]; }

  /// Records one answer to request `s` (any thread). A shed answer is
  /// counted by the caller and not checked.
  void answer(Slot& s, bool ok, std::uint64_t count, bool shed = false) {
    if (!shed && !chk.answer_ok(s.req, ok, count)) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
    s.done_ns.store(now_ns(), std::memory_order_relaxed);
    if (s.answered_seq.exchange(s.seq + 1, std::memory_order_acq_rel) ==
        s.seq + 1) {
      duplicates.fetch_add(1, std::memory_order_relaxed);
    }
    answers.fetch_add(1, std::memory_order_release);
  }

  bool answered(const Slot& s) const {
    return s.answered_seq.load(std::memory_order_acquire) == s.seq + 1;
  }

  std::uint64_t failures() const {
    return wrong.load() + duplicates.load() + shed + unanswered;
  }
};

// ---------------------------------------------------------------------------
// The system under test: one variant's service (+ TCP front end on kv-net)
// ---------------------------------------------------------------------------

/// Non-blocking client side of one loopback connection, driven only by the
/// generator thread. A frame is sent whole or buffered whole.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  bool dead = false;

  void flush() {
    while (!dead && out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          dead = true;
        }
        return;
      }
      out_off += static_cast<std::size_t>(n);
    }
    out.clear();
    out_off = 0;
  }

  bool send_frame(const std::uint8_t* buf, std::size_t len) {
    if (dead) return false;
    flush();
    if (out.empty()) {
      std::size_t done = 0;
      while (done < len) {
        const ssize_t n = ::send(fd, buf + done, len - done,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          return false;
        }
        done += static_cast<std::size_t>(n);
      }
      if (done == len) return true;
      out.assign(buf + done, buf + len);
      return true;
    }
    out.insert(out.end(), buf, buf + len);
    return true;
  }

  /// Reads whatever has arrived and hands each response frame to `fn`.
  template <typename Fn>
  void poll(Fn&& fn) {
    if (dead) return;
    for (;;) {
      std::uint8_t buf[8192];
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) {
        dead = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) dead = true;
        break;
      }
      in.insert(in.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof buf) break;
    }
    for (;;) {
      wire::Response resp;
      std::size_t used = 0;
      const wire::Decode d = wire::decode_response(
          in.data() + in_off, in.size() - in_off, &resp, &used);
      if (d == wire::Decode::kNeedMore) break;
      if (d == wire::Decode::kBad) {
        dead = true;
        break;
      }
      in_off += used;
      fn(resp);
    }
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    }
  }
};

struct Sut {
  std::unique_ptr<server::KvService> svc;
  std::unique_ptr<net::TcpServer> tcp;
  std::vector<Conn> conns;

  Sut() = default;
  Sut(const Sut&) = delete;
  Sut& operator=(const Sut&) = delete;
  ~Sut() { shutdown(); }

  /// Closes the connections, drains TcpServer, then stops the service.
  void shutdown() {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    conns.clear();
    if (tcp) tcp->stop();
    if (svc) svc->stop();
  }
};

/// Construct, preload, start (and on kv-net: start TcpServer and connect).
std::unique_ptr<Sut> setup(const Workload& w, const std::string& variant) {
  auto sut = std::make_unique<Sut>();
  server::ServiceConfig cfg;
  cfg.variant = variant;
  cfg.workers = kWorkers;
  cfg.buckets = static_cast<std::size_t>(w.keys);
  // Workers + generator + prober + housekeeper + slack.
  cfg.stm.max_threads = kWorkers + 6;
  sut->svc = std::make_unique<server::KvService>(cfg);
  sut->svc->preload(0, w.keys, kPreloadValue);
  placement().as_service([&] { sut->svc->start(); });
  if (w.net) {
    net::NetConfig ncfg;
    ncfg.io_threads = 1;
    sut->tcp = std::make_unique<net::TcpServer>(*sut->svc, ncfg);
    bool started = false;
    placement().as_service([&] { started = sut->tcp->start(); });
    if (!started) throw std::runtime_error("TcpServer::start failed");
    for (int i = 0; i < kConns; ++i) {
      Conn c;
      c.fd = net::connect_tcp("127.0.0.1", sut->tcp->port());
      if (c.fd < 0) throw std::runtime_error("connect to TcpServer failed");
      sut->conns.push_back(std::move(c));
    }
  }
  return sut;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

struct PhaseCtx {
  const Workload& w;
  const std::vector<Req>& stream;
  Sut& sut;
  Recorder* rec = nullptr;  ///< non-null = traced
  std::uint64_t stream_pos = 0;  ///< next request of the stream to send
};

/// Submits slot `s` (already filled) in process or over the wire.
bool send(PhaseCtx& ctx, Ledger& ph, Slot& s) {
  if (!ctx.w.net) {
    server::Request r;
    r.op = s.req.op;
    r.key = s.req.key;
    r.key2 = s.req.key2;
    r.value = s.req.value;
    r.fanout = s.req.fanout;
    r.arrival_ns = s.due;
    // Two words of capture: fits std::function's local buffer, so no
    // allocation per request.
    r.on_done = [p = &ph, sp = &s](const server::Response& resp) {
      p->answer(*sp, resp.ok, resp.count);
    };
    return ctx.sut.svc->submit(std::move(r));
  }
  wire::Request r;
  r.op = static_cast<wire::Op>(s.req.op);
  r.req_id = s.seq + 1;
  r.key = s.req.key;
  r.key2 = s.req.key2;
  r.value = s.req.value;
  r.fanout = s.req.fanout;
  std::uint8_t buf[wire::kReqFrame];
  const std::size_t len = wire::encode_request(r, buf);
  Conn& c = ctx.sut.conns[s.seq % ctx.sut.conns.size()];
  return c.send_frame(buf, len);
}

/// kv-net: read every arrived response and match it by its echoed req_id.
void poll_net(PhaseCtx& ctx, Ledger& ph) {
  for (Conn& c : ctx.sut.conns) {
    c.flush();
    c.poll([&](const wire::Response& resp) {
      const std::uint64_t seq = resp.req_id - 1;
      Slot* s = resp.req_id != 0 && seq < ph.sent ? &ph.slot(seq) : nullptr;
      if (s == nullptr || s->seq != seq || !s->accepted) {
        ph.wrong.fetch_add(1);  // an id that was never sent
        return;
      }
      const bool shed = resp.status == wire::Status::kShed;
      if (shed) ++ph.shed;
      ph.answer(*s, resp.status == wire::Status::kOk, resp.count, shed);
    });
  }
}

/// Waits (bounded) until every accepted request has been answered; counts
/// the rest as unanswered.
void drain(PhaseCtx& ctx, Ledger& ph) {
  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  while (ph.answers.load(std::memory_order_acquire) < ph.accepted &&
         now_ns() < deadline) {
    if (ctx.w.net) {
      poll_net(ctx, ph);
    } else {
      std::this_thread::yield();
    }
  }
  const std::uint64_t got = ph.answers.load(std::memory_order_acquire);
  ph.unanswered = got < ph.accepted ? ph.accepted - got : 0;
}

void emit_request_spans(Recorder& rec, const Slot& s) {
  const std::uint64_t id = rec.new_id();
  rec.add(id, 0, SpanName::kRequest, s.due,
          s.done_ns.load(std::memory_order_relaxed));
  rec.add(rec.new_id(), id, SpanName::kSubmit, s.sent, s.sent_end);
}

/// What one variant's phases measured, accumulated over every slice.
struct Samples {
  std::vector<double> cap_rates;        ///< closed-loop 100 ms window rates
  std::uint64_t cap_completed = 0;
  std::vector<std::uint64_t> lat;       ///< open loop: due -> answer
  std::vector<std::uint64_t> lateness;  ///< open loop: send - due
  std::vector<std::uint64_t> submit;    ///< traced: submit / send call
  std::vector<std::uint64_t> per_op[server::kOpCount];
  std::uint64_t backlog_max = 0;        ///< traced: sent - answered
  LatencyHistogram hist;                ///< the same samples as `lat`
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void count(const Ledger& ph) {
    attempted += ph.sent;
    failed += ph.failures();
  }
};

/// Closed loop: keep kWindow requests in flight for `dur_ns`.
void run_capacity(PhaseCtx& ctx, std::uint64_t dur_ns, const Checker& chk,
                  Samples& out) {
  Ledger ph(chk, kRing, /*ring=*/true);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + dur_ns;
  std::uint64_t mark_t = t0;
  std::uint64_t mark_n = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= mark_t + kCapSubWindowNs) {
      const std::uint64_t n = ph.answers.load(std::memory_order_acquire);
      out.cap_rates.push_back(static_cast<double>(n - mark_n) * 1e9 /
                              static_cast<double>(now - mark_t));
      mark_t = now;
      mark_n = n;
      if (now >= end) break;
    }
    if (ctx.w.net) poll_net(ctx, ph);
    const std::uint64_t in_flight =
        ph.accepted - ph.answers.load(std::memory_order_acquire);
    Slot& s = ph.slot(ph.sent);
    const bool reused = ph.sent >= kRing && s.accepted;
    if (in_flight >= kWindow || (reused && !ph.answered(s))) {
      cpu_relax();
      continue;
    }
    if (ctx.rec != nullptr && reused) emit_request_spans(*ctx.rec, s);
    s.req = ctx.stream[(ctx.stream_pos + ph.sent) % ctx.stream.size()];
    s.seq = ph.sent;
    s.due = s.sent = now_ns();
    s.accepted = true;
    ++ph.sent;
    if (send(ctx, ph, s)) {
      ++ph.accepted;
    } else {
      s.accepted = false;
      ++ph.shed;
    }
    if (ctx.rec != nullptr) s.sent_end = now_ns();
  }
  drain(ctx, ph);
  if (ctx.rec != nullptr) {
    for (std::uint64_t q = ph.sent > kRing ? ph.sent - kRing : 0; q < ph.sent;
         ++q) {
      const Slot& s = ph.slot(q);
      if (s.accepted && ph.answered(s)) emit_request_spans(*ctx.rec, s);
    }
  }
  ctx.stream_pos += ph.sent;
  out.cap_completed += ph.answers.load();
  out.count(ph);
}

/// Open loop at the workload's rate for `dur_ns`, spinning to each due time.
void run_latency(PhaseCtx& ctx, std::uint64_t dur_ns, const Checker& chk,
                 Samples& out) {
  const double interval = 1e9 / ctx.w.rate;
  const std::uint64_t n = static_cast<std::uint64_t>(
      static_cast<double>(dur_ns) / interval);
  Ledger ph(chk, n, /*ring=*/false);
  const std::uint64_t t0 = now_ns() + 1'000'000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t due =
        t0 + static_cast<std::uint64_t>(static_cast<double>(i) * interval);
    std::uint64_t now = now_ns();
    while (now < due) {
      if (ctx.w.net) poll_net(ctx, ph);
      cpu_relax();
      now = now_ns();
    }
    Slot& s = ph.slot(i);
    s.req = ctx.stream[(ctx.stream_pos + i) % ctx.stream.size()];
    s.seq = i;
    s.due = due;
    s.sent = now;
    s.accepted = true;
    out.lateness.push_back(now - due);
    ++ph.sent;
    if (send(ctx, ph, s)) {
      ++ph.accepted;
    } else {
      s.accepted = false;
      ++ph.shed;
    }
    if (ctx.rec != nullptr) {
      s.sent_end = now_ns();
      out.submit.push_back(s.sent_end - s.sent);
      const std::uint64_t backlog =
          ph.accepted - ph.answers.load(std::memory_order_relaxed);
      out.backlog_max = std::max(out.backlog_max, backlog);
    }
  }
  drain(ctx, ph);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Slot& s = ph.slot(i);
    if (!s.accepted || !ph.answered(s)) continue;
    const std::uint64_t done = s.done_ns.load(std::memory_order_relaxed);
    const std::uint64_t l = done > s.due ? done - s.due : 0;
    out.lat.push_back(l);
    out.hist.record(l);
    out.per_op[static_cast<std::size_t>(s.req.op)].push_back(l);
    if (ctx.rec != nullptr) emit_request_spans(*ctx.rec, s);
  }
  ctx.stream_pos += n;
  out.count(ph);
}

// ---------------------------------------------------------------------------
// Traced-run layers: prober bodies, direct store calls, ping
// ---------------------------------------------------------------------------

SpanName store_span(Op op) {
  switch (op) {
    case Op::kPut:      return SpanName::kStorePut;
    case Op::kTransfer: return SpanName::kStoreTransfer;
    case Op::kMultiGet: return SpanName::kStoreMultiGet;
    case Op::kScan:     return SpanName::kStoreScan;
    default:            return SpanName::kStoreGet;
  }
}

struct ProbeResult {
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t commits = 0;
  std::uint64_t wrong = 0;
};

/// The prober's own transaction bodies: the KvStore operations written out
/// against svc.store().map() and passed to AnyStm::run directly, so every
/// attempt (including aborted ones) is counted and spanned.
void probe_loop(Sut& sut, const std::vector<Req>& stream, const Checker& chk,
                Recorder& rec, const std::atomic<bool>& stop,
                ProbeResult& out) {
  // Each body execution is one attempt: the guard closes its span on a
  // normal return and on the abort exception alike.
  struct AttemptSpan {
    Recorder& rec;
    std::uint64_t parent;
    std::uint64_t start = now_ns();
    ~AttemptSpan() {
      rec.add(rec.new_id(), parent, SpanName::kStmAttempt, start, now_ns());
    }
  };
  api::AnyStm& stm = sut.svc->stm();
  auto& map = sut.svc->store().map();
  const std::uint32_t long_threshold =
      sut.svc->config().multi_get_long_threshold;
  std::uint64_t i = stream.size() / 2;  // away from the closed loop's start
  while (!stop.load(std::memory_order_relaxed)) {
    const Req& r = stream[i++ % stream.size()];
    const std::uint64_t parent = rec.new_id();
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    std::uint64_t count = 0;
    std::uint64_t attempts = 0;
    api::RunResult rr;
    switch (r.op) {
      case Op::kGet:
        rr = stm.run(api::TxKind::kReadOnly, [&](auto& tx) {
          AttemptSpan a{rec, parent};
          ++attempts;
          ok = map.get(tx, r.key).has_value();
        });
        break;
      case Op::kPut: {
        server::KvStore::Map::Scratch scratch;
        rr = stm.run(api::TxKind::kUpdate, [&](auto& tx) {
          AttemptSpan a{rec, parent};
          ++attempts;
          count = map.put(tx, r.key, r.value, &scratch) ? 1 : 0;
          ok = true;
        });
        break;
      }
      case Op::kTransfer:
        rr = stm.run(api::TxKind::kUpdate, [&](auto& tx) {
          AttemptSpan a{rec, parent};
          ++attempts;
          ok = false;
          const auto a1 = map.get(tx, r.key);
          const auto b1 = map.get(tx, r.key2);
          if (!a1.has_value() || !b1.has_value()) return;
          map.put(tx, r.key, *a1 - r.value);
          map.put(tx, r.key2, *b1 + r.value);
          ok = true;
        });
        break;
      case Op::kMultiGet:
        rr = stm.run(r.fanout >= long_threshold ? api::TxKind::kLong
                                                : api::TxKind::kReadOnly,
                     [&](auto& tx) {
                       AttemptSpan a{rec, parent};
                       ++attempts;
                       count = 0;
                       for (std::uint32_t k = 0; k < r.fanout; ++k) {
                         if (map.get(tx, r.key + k).has_value()) ++count;
                       }
                       ok = true;
                     });
        break;
      case Op::kScan:
        rr = stm.run(api::TxKind::kLong, [&](auto& tx) {
          AttemptSpan a{rec, parent};
          ++attempts;
          count = 0;
          map.for_each(tx, [&](Key, Value) { ++count; });
          ok = true;
        });
        break;
      default:
        break;
    }
    rec.add(parent, 0, store_span(r.op), t0, now_ns());
    ++out.ops;
    out.attempts += attempts;
    if (rr.committed) ++out.commits;
    if (!rr.committed || !chk.answer_ok(r, ok, count)) ++out.wrong;
  }
}

struct StoreTimes {
  double ns[server::kOpCount] = {};
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
};

/// Direct closed-loop calls on svc.store() from the generator thread while
/// the service is idle: each op type gets an equal share of `dur_ns`.
StoreTimes run_store(Sut& sut, const Workload& w,
                     const std::vector<Req>& stream, const Checker& chk,
                     std::uint64_t dur_ns) {
  StoreTimes out;
  server::KvStore& store = sut.svc->store();
  const Op ops[] = {Op::kGet, Op::kPut, Op::kTransfer, Op::kMultiGet,
                    Op::kScan};
  const std::uint64_t share = dur_ns / std::size(ops);
  for (const Op op : ops) {
    std::vector<std::uint64_t> t;
    const std::uint64_t end = now_ns() + share;
    for (std::uint64_t i = 0; now_ns() < end || t.size() < 3; ++i) {
      Req r = stream[i % stream.size()];
      r.op = op;  // reuse the stream's skewed keys for every op type
      if (op == Op::kTransfer && r.key2 == r.key) r.key2 = (r.key + 1) % w.keys;
      if (op == Op::kMultiGet) {
        r.fanout = kStoreFanout;
        r.key = r.key % (w.keys - kStoreFanout + 1);
      }
      bool ok = true;
      std::uint64_t count = 0;
      const std::uint64_t t0 = now_ns();
      switch (op) {
        case Op::kGet: ok = store.get(r.key).has_value(); break;
        case Op::kPut: count = store.put(r.key, r.value) ? 1 : 0; break;
        case Op::kTransfer: ok = store.transfer(r.key, r.key2, 1); break;
        case Op::kMultiGet:
          count = store.multi_get(r.key, r.fanout, nullptr);
          break;
        case Op::kScan: count = store.scan().count; break;
        default: break;
      }
      t.push_back(now_ns() - t0);
      ++out.calls;
      if (!chk.answer_ok(r, ok, count)) ++out.wrong;
    }
    out.ns[static_cast<std::size_t>(op)] = quantile(t, 0.5);
  }
  return out;
}

struct PingResult {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t n = 0;
  std::uint64_t failed = 0;
};

/// KvClient::ping round trips, answered by TcpServer's loop alone.
PingResult run_ping(Sut& sut, Recorder& rec, std::uint64_t dur_ns) {
  PingResult r;
  net::KvClient client;
  if (!client.connect("127.0.0.1", sut.tcp->port())) {
    r.failed = 1;
    return r;
  }
  std::vector<std::uint64_t> t;
  const std::uint64_t end = now_ns() + dur_ns;
  while (now_ns() < end || t.size() < 1000) {
    const std::uint64_t t0 = now_ns();
    const std::int64_t echo = static_cast<std::int64_t>(t.size());
    const bool ok = client.ping(echo);
    const std::uint64_t t1 = now_ns();
    rec.add(rec.new_id(), 0, SpanName::kNetCall, t0, t1);
    t.push_back(t1 - t0);
    if (!ok) ++r.failed;
  }
  r.n = t.size();
  r.p50_ns = quantile(t, 0.5);
  r.p99_ns = quantile(t, 0.99);
  return r;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool sabotage = false;
};

std::string tag(const std::string& v, const char* m) { return v + "." + m; }

/// Audits the store after a variant: structure sound, every key present.
bool audit(Sut& sut, const Workload& w, std::uint64_t& attempted) {
  ++attempted;
  const auto a = sut.svc->store().audit();
  const bool ok = a.sorted && a.size == w.keys;
  if (!ok) {
    std::fprintf(stderr, "audit failed: size %llu (want %llu) sorted %d\n",
                 static_cast<unsigned long long>(a.size),
                 static_cast<unsigned long long>(w.keys), a.sorted ? 1 : 0);
  }
  return ok;
}

/// Set up kSetupReps times; returns the last instance and the median time.
std::unique_ptr<Sut> timed_setup(const Workload& w, const std::string& v,
                                 double* median_s) {
  std::vector<double> t;
  std::unique_ptr<Sut> sut;
  for (int i = 0; i < kSetupReps; ++i) {
    sut.reset();
    const std::uint64_t t0 = now_ns();
    sut = setup(w, v);
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  *median_s = median(t);
  return sut;
}

double q_us(std::vector<std::uint64_t> v, double q) {
  return quantile(v, q) * 1e-3;
}

void run_untraced(const Options& o, const Workload& w,
                  const std::vector<Req>& stream, Report& rep) {
  const Checker chk{w.keys, o.sabotage};
  const std::size_t nv = kVariants.size();
  // Each variant's two phases are cut into kRounds slices and the variants
  // take turns slice by slice (a stopped service has no threads), so a
  // burst of outside load is spread over all variants instead of landing
  // on one variant's whole phase.
  const std::uint64_t slice_ns = static_cast<std::uint64_t>(
      o.seconds * 1e9 / (2.0 * static_cast<double>(nv * kRounds)));
  std::vector<std::unique_ptr<Sut>> suts;
  std::vector<PhaseCtx> ctxs;
  std::vector<Samples> samples(nv);
  double setup_total = 0.0;
  for (const std::string& v : kVariants) {
    double setup_s = 0.0;
    suts.push_back(timed_setup(w, v, &setup_s));
    setup_total += setup_s;
    suts.back()->svc->stop();
    ctxs.push_back(PhaseCtx{w, stream, *suts.back()});
  }
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t j = 0; j < nv; ++j) {
      const std::size_t vi = (static_cast<std::size_t>(r) + j) % nv;
      placement().as_service([&] { suts[vi]->svc->start(); });
      run_capacity(ctxs[vi], slice_ns, chk, samples[vi]);
      run_latency(ctxs[vi], slice_ns, chk, samples[vi]);
      suts[vi]->svc->stop();
    }
  }
  for (std::size_t vi = 0; vi < nv; ++vi) {
    const std::string& v = kVariants[vi];
    Samples& s = samples[vi];
    suts[vi]->shutdown();
    rep.audits_ok = audit(*suts[vi], w, rep.attempted) && rep.audits_ok;
    rep.attempted += s.attempted;
    rep.failed += s.failed;
    rep.add(tag(v, "capacity_ops_s"), interquartile_mean(s.cap_rates),
            "ops/s",
            "interquartile mean of " + std::to_string(s.cap_rates.size()) +
                " 100 ms windows, " + std::to_string(s.cap_completed) +
                " requests");
    rep.add(tag(v, "p50_us"), q_us(s.lat, 0.5), "us",
            "n=" + std::to_string(s.lat.size()) + "; p99 " +
                fmt("%.1f", q_us(s.lat, 0.99)) +
                " us; generator lateness p99 " +
                fmt("%.2f", q_us(s.lateness, 0.99)) + " us");
  }
  rep.add("setup_s", setup_total, "s",
          "sum over variants of the median of " + std::to_string(kSetupReps) +
              " set-ups");
}

/// STM counters over one phase, per 1000 commits.
struct StmDelta {
  zstm::util::StatsSnapshot a, b;
  std::uint64_t serial_a = 0, serial_b = 0;
  double per_k(Counter c) const {
    const double commits =
        static_cast<double>(b[Counter::kCommits] - a[Counter::kCommits]);
    return commits > 0 ? static_cast<double>(b[c] - a[c]) * 1000.0 / commits
                       : 0.0;
  }
};

void run_traced(const Options& o, const Workload& w,
                const std::vector<Req>& stream, Report& rep) {
  const Checker chk{w.keys, o.sabotage};
  // Five equal phases per variant: untraced capacity, traced capacity,
  // traced latency, contention (closed loop + prober), direct store calls.
  const std::uint64_t phase_ns = static_cast<std::uint64_t>(
      o.seconds * 1e9 / (5.0 * static_cast<double>(kVariants.size())));
  Recorder gen_rec(0);
  Recorder probe_rec(1ULL << 62);
  double cap_plain_sum = 0.0, cap_traced_sum = 0.0;
  std::string side = "{\"endian\": \"";
  side += std::endian::native == std::endian::little ? "little" : "big";
  side += "\", \"variants\": [";
  for (std::size_t vi = 0; vi < kVariants.size(); ++vi) {
    side += (vi ? ", \"" : "\"") + kVariants[vi] + "\"";
  }
  side += "], \"names\": [";
  for (int n = 0; n < static_cast<int>(SpanName::kCount); ++n) {
    side += std::string(n ? ", \"" : "\"") +
            span_name(static_cast<SpanName>(n)) + "\"";
  }
  side += "], \"latency\": {";

  for (std::size_t vi = 0; vi < kVariants.size(); ++vi) {
    const std::string& v = kVariants[vi];
    const auto vid = static_cast<std::uint16_t>(vi);
    std::unique_ptr<Sut> sut = setup(w, v);
    PhaseCtx plain{w, stream, *sut};
    PhaseCtx traced{w, stream, *sut, &gen_rec};

    // 1. Untraced capacity, with the STM and pool counters over it.
    StmDelta d;
    d.a = sut->svc->stm().stats();
    d.serial_a = sut->svc->stm().progress().serial_entries;
    Samples cap_plain;
    run_capacity(plain, phase_ns, chk, cap_plain);
    d.b = sut->svc->stm().stats();
    d.serial_b = sut->svc->stm().progress().serial_entries;

    // 2. Traced capacity (the overhead is the drop against phase 1).
    gen_rec.set_context(vid, Phase::kCapacity, kSpanCap);
    Samples cap_traced;
    run_capacity(traced, phase_ns, chk, cap_traced);

    // 3. Traced latency: every request's spans are kept.
    const std::uint64_t n_lat = static_cast<std::uint64_t>(
        static_cast<double>(phase_ns) * 1e-9 * w.rate);
    gen_rec.set_context(vid, Phase::kLatency, 2 * n_lat + 16);
    Samples lat;
    run_latency(traced, phase_ns, chk, lat);

    // 4. Contention: the closed loop plus the prober's own bodies.
    probe_rec.set_context(vid, Phase::kProbe, kSpanCap);
    std::atomic<bool> stop{false};
    ProbeResult probe;
    std::exception_ptr probe_err;
    std::thread prober([&] {
      placement().join_service();
      try {
        probe_loop(*sut, stream, chk, probe_rec, stop, probe);
      } catch (...) {
        probe_err = std::current_exception();
      }
    });
    Samples cap_cont;
    run_capacity(plain, phase_ns, chk, cap_cont);
    stop.store(true);
    prober.join();
    if (probe_err) std::rethrow_exception(probe_err);

    // 5. Direct store calls on the idle service.
    const StoreTimes st = run_store(*sut, w, stream, chk, phase_ns);

    PingResult ping;
    if (w.net && vi == 0) {
      gen_rec.set_context(vid, Phase::kPing, kSpanCap);
      ping = run_ping(*sut, gen_rec, phase_ns / 4);
    }
    std::uint64_t net_shed = 0;
    sut->shutdown();
    if (sut->tcp) {
      const net::NetStats ns = sut->tcp->stats();
      net_shed = ns.shed_backpressure + ns.shed_service;
    }
    rep.audits_ok = audit(*sut, w, rep.attempted) && rep.audits_ok;
    rep.attempted += cap_plain.attempted + cap_traced.attempted +
                     lat.attempted + cap_cont.attempted + probe.ops +
                     st.calls + ping.n;
    rep.failed += cap_plain.failed + cap_traced.failed + lat.failed +
                  cap_cont.failed + probe.wrong + st.wrong + ping.failed;
    cap_plain_sum += interquartile_mean(cap_plain.cap_rates);
    cap_traced_sum += interquartile_mean(cap_traced.cap_rates);

    side += std::string(vi ? ", " : "") + "\"" + v +
            "\": {\"requests\": " + std::to_string(lat.lat.size()) +
            ", \"hist_p50_ns\": " +
            std::to_string(lat.hist.quantile(0.5)) + "}";

    const auto op_q = [&](Op op, double q) {
      return q_us(lat.per_op[static_cast<std::size_t>(op)], q);
    };
    const auto op_n = [&](Op op) {
      return "n=" +
             std::to_string(lat.per_op[static_cast<std::size_t>(op)].size());
    };
    rep.add(tag(v, "p99_us"), q_us(lat.lat, 0.99), "us",
            "n=" + std::to_string(lat.lat.size()));
    rep.add(tag(v, "gen.lateness_p99_us"), q_us(lat.lateness, 0.99), "us",
            "n=" + std::to_string(lat.lateness.size()));
    rep.add(tag(v, "server.submit_ns_p50"), q_us(lat.submit, 0.5) * 1e3, "ns");
    rep.add(tag(v, "server.backlog_max"),
            static_cast<double>(lat.backlog_max), "count");
    rep.add(tag(v, "op.get_p50_us"), op_q(Op::kGet, 0.5), "us", op_n(Op::kGet));
    rep.add(tag(v, "op.put_p50_us"), op_q(Op::kPut, 0.5), "us", op_n(Op::kPut));
    rep.add(tag(v, "op.transfer_p50_us"), op_q(Op::kTransfer, 0.5), "us",
            op_n(Op::kTransfer));
    rep.add(tag(v, "op.multi_get_p99_us"), op_q(Op::kMultiGet, 0.99), "us",
            op_n(Op::kMultiGet));
    rep.add(tag(v, "op.scan_p99_us"), op_q(Op::kScan, 0.99), "us",
            op_n(Op::kScan));
    const auto op_ns = [&](Op op) {
      return st.ns[static_cast<std::size_t>(op)];
    };
    rep.add(tag(v, "store.get_ns"), op_ns(Op::kGet), "ns");
    rep.add(tag(v, "store.put_ns"), op_ns(Op::kPut), "ns");
    rep.add(tag(v, "store.transfer_ns"), op_ns(Op::kTransfer), "ns");
    rep.add(tag(v, "store.multi_get_us"), op_ns(Op::kMultiGet) * 1e-3, "us",
            std::to_string(kStoreFanout) + " keys");
    rep.add(tag(v, "store.scan_us"), op_ns(Op::kScan) * 1e-3, "us");
    rep.add(tag(v, "stm.attempts_per_commit"),
            probe.commits > 0 ? static_cast<double>(probe.attempts) /
                                    static_cast<double>(probe.commits)
                              : 0.0,
            "ratio",
            std::to_string(probe.commits) + " prober commits beside " +
                fmt("%.0f", interquartile_mean(cap_cont.cap_rates)) +
                " ops/s closed loop");
    rep.add(tag(v, "stm.validation_fails"), d.per_k(Counter::kValidationFails),
            "1/kcommit");
    rep.add(tag(v, "stm.extensions"), d.per_k(Counter::kExtensions),
            "1/kcommit");
    rep.add(tag(v, "stm.zone_conflicts"), d.per_k(Counter::kZoneConflicts),
            "1/kcommit");
    rep.add(tag(v, "stm.long_aborts"), d.per_k(Counter::kLongAborts),
            "1/kcommit");
    rep.add(tag(v, "stm.cm_waits"), d.per_k(Counter::kCmWaits), "1/kcommit");
    const double commits = static_cast<double>(d.b[Counter::kCommits] -
                                               d.a[Counter::kCommits]);
    rep.add(tag(v, "stm.serial_entries"),
            commits > 0 ? static_cast<double>(d.serial_b - d.serial_a) *
                              1000.0 / commits
                        : 0.0,
            "1/kcommit");
    const double hits = static_cast<double>(d.b[Counter::kPoolHits] -
                                            d.a[Counter::kPoolHits]);
    const double misses = static_cast<double>(d.b[Counter::kPoolMisses] -
                                              d.a[Counter::kPoolMisses]);
    rep.add(tag(v, "pool.hit_ratio"),
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.add(tag(v, "net.shed"), static_cast<double>(net_shed), "count");
    if (w.net && vi == 0) {
      rep.add("net.ping_rtt_p50_us", ping.p50_ns * 1e-3, "us",
              "n=" + std::to_string(ping.n));
      rep.add("net.ping_rtt_p99_us", ping.p99_ns * 1e-3, "us",
              "n=" + std::to_string(ping.n));
    }
  }
  if (!w.net) {
    rep.add("net.ping_rtt_p50_us", 0.0, "us", "kv-net only");
    rep.add("net.ping_rtt_p99_us", 0.0, "us", "kv-net only");
  }
  side += "}, \"capacity_untraced_ops_s\": " + fmt("%.3f", cap_plain_sum) +
          ", \"capacity_traced_ops_s\": " + fmt("%.3f", cap_traced_sum) + "}\n";

  const std::string spans_path = o.trace_out + ".spans";
  const std::string side_path = o.trace_out + ".json";
  std::FILE* f = std::fopen(spans_path.c_str(), "wb");
  bool ok =
      f != nullptr && write_spans(f, gen_rec) && write_spans(f, probe_rec);
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  std::FILE* g = std::fopen(side_path.c_str(), "w");
  ok = g != nullptr && std::fputs(side.c_str(), g) >= 0 && ok;
  if (g != nullptr) ok = std::fclose(g) == 0 && ok;
  if (!ok) throw std::runtime_error("cannot write trace to " + o.trace_out);
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_val) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_val) {
      o.trace_out = argv[++i];
    } else if (a == "--sabotage") {
      o.sabotage = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0 &&
         (!o.trace || !o.trace_out.empty());
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  using namespace kvbench;
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: kvbench --workload kv-point|kv-long|kv-net --seed N "
                 "--seconds S [--trace 0|1 --trace-out PREFIX] [--sabotage]\n");
    return 2;
  }
  try {
    const Workload w = workload_by_name(o.workload);
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) < 0) load[0] = -1;
    std::printf("host nproc=%u loadavg_1m=%.2f workload=%s seed=%llu "
                "seconds=%g trace=%d variants=lsa,zl,cs-vc,tl2 workers=%d "
                "window=%llu rate=%.0f/s\n",
                std::thread::hardware_concurrency(), load[0], w.name.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, kWorkers,
                static_cast<unsigned long long>(kWindow), w.rate);
    const std::vector<Req> stream = make_stream(w, o.seed, kStreamLen);
    placement();  // pin this (the generator) thread before any service
    Report rep;
    if (o.trace) {
      run_traced(o, w, stream, rep);
    } else {
      run_untraced(o, w, stream, rep);
    }
    const bool correct = rep.failed == 0 && rep.audits_ok;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const Metric& m = rep.metrics[i];
      std::printf("metric %s %.6g %s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
              fmt("%.17g", m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n",
                rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 3;
  }
}
