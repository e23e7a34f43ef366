// Open-loop load generator for the networked KV front end (DESIGN.md
// §13.6): the same scheduled-arrival discipline as server/load_gen.hpp —
// same Zipfian key choice, same op mix, same LoadGenConfig — but driven
// across TCP, pipelined over `conns` connections, so BENCH_kv_net rows are
// directly comparable to the in-process BENCH_kv rows (identical knobs,
// one extra hop).
//
// Open-loop honesty across a socket:
//   * The pacer never blocks on the wire. Sends are MSG_DONTWAIT; a frame
//     the kernel won't take is buffered per-connection, and once a
//     connection's backlog passes kPendingCap the *new* frame is shed
//     client-side (never a partially-written one — that would corrupt the
//     stream) and counted, exactly like the service ring sheds.
//   * req_id carries the request's SCHEDULED arrival time; the server
//     echoes it, so a receiver computes latency as now − req_id with no
//     outstanding-request table, and every source of delay — pacer
//     lateness, client buffering, kernel queues, server queueing, STM
//     retries, the response path — lands in the recorded tail.
//   * The server responds to every request, including ones it sheds
//     (wire::Status::kShed), so server-side shedding is visible and
//     counted at the client rather than inferred from silence.
//
// One receiver thread per connection records into private histograms,
// merged after join — the LatencyHistogram threading contract.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/kv_client.hpp"
#include "net/wire.hpp"
#include "server/load_gen.hpp"
#include "util/latency_histogram.hpp"

namespace zstm::net {

struct NetLoadResult {
  std::uint64_t offered = 0;      ///< scheduled arrivals
  std::uint64_t sent = 0;         ///< handed to the kernel (or buffered+flushed)
  std::uint64_t client_shed = 0;  ///< dropped: connection backlog over cap
  std::uint64_t responses = 0;    ///< response frames received (all statuses)
  std::uint64_t server_shed = 0;  ///< wire::Status::kShed responses
  std::uint64_t io_errors = 0;    ///< connections that died mid-run
  std::uint64_t unflushed = 0;    ///< frames stuck in client buffers at end
  std::uint64_t elapsed_ns = 0;
  util::LatencyHistogram all;     ///< non-shed responses, scheduled→receipt
  util::LatencyHistogram per_op[static_cast<int>(wire::Op::kCount)];
};

namespace detail {

/// Per-connection pacer-side send state. `pending` holds bytes the kernel
/// would not take; a frame is either fully sent, fully buffered, or fully
/// shed — never split between sent and dropped.
struct ConnSend {
  int fd = -1;
  std::vector<std::uint8_t> pending;
  std::size_t off = 0;
  bool dead = false;
};

constexpr std::size_t kPendingCap = 64 * 1024;

inline void flush_pending(ConnSend& cs) {
  while (cs.off < cs.pending.size()) {
    ssize_t n;
    do {
      n = ::send(cs.fd, cs.pending.data() + cs.off,
                 cs.pending.size() - cs.off, MSG_DONTWAIT | MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) cs.dead = true;
      return;
    }
    cs.off += static_cast<std::size_t>(n);
  }
  cs.pending.clear();
  cs.off = 0;
}

/// True = the frame is on its way (sent or buffered); false = shed or dead.
inline bool submit_frame(ConnSend& cs, const std::uint8_t* buf,
                         std::size_t len) {
  if (cs.dead) return false;
  flush_pending(cs);
  if (cs.dead) return false;
  if (!cs.pending.empty()) {
    if (cs.pending.size() - cs.off > kPendingCap) return false;  // shed
    cs.pending.insert(cs.pending.end(), buf, buf + len);
    return true;
  }
  std::size_t sent = 0;
  while (sent < len) {
    ssize_t n;
    do {
      n = ::send(cs.fd, buf + sent, len - sent,
                 MSG_DONTWAIT | MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        cs.pending.assign(buf + sent, buf + len);  // keep the frame whole
        return true;
      }
      cs.dead = true;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace detail

/// Drives cfg's open-loop schedule against host:port over `conns`
/// pipelined connections. Blocks for ~cfg.duration plus drain.
inline NetLoadResult run_net_open_loop(const std::string& host,
                                       std::uint16_t port,
                                       const server::LoadGenConfig& cfg,
                                       int conns) {
  NetLoadResult res;
  if (cfg.rate <= 0.0 || cfg.keyspace == 0 || conns < 1) return res;

  std::vector<detail::ConnSend> senders(static_cast<std::size_t>(conns));
  for (auto& cs : senders) {
    cs.fd = connect_tcp(host, port);
    if (cs.fd < 0) {
      for (auto& c2 : senders) {
        if (c2.fd >= 0) ::close(c2.fd);
      }
      res.io_errors = static_cast<std::uint64_t>(conns);
      return res;
    }
  }

  // Receivers: blocking recv per connection (MSG_DONTWAIT on the send side
  // never flips the fd to non-blocking), private histograms, exit on EOF /
  // shutdown().
  struct RecvState {
    // The drain loop below polls this while the receiver is still running;
    // everything else in here is read only after join().
    std::atomic<std::uint64_t> responses{0};
    std::uint64_t server_shed = 0;
    util::LatencyHistogram all;
    util::LatencyHistogram per_op[static_cast<int>(wire::Op::kCount)];
  };
  std::vector<RecvState> rstates(static_cast<std::size_t>(conns));
  std::vector<std::thread> receivers;
  receivers.reserve(static_cast<std::size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    receivers.emplace_back([fd = senders[static_cast<std::size_t>(i)].fd,
                            st = &rstates[static_cast<std::size_t>(i)]] {
      std::vector<std::uint8_t> buf;
      std::size_t off = 0;
      for (;;) {
        wire::Response resp;
        std::size_t consumed = 0;
        const wire::Decode d = wire::decode_response(
            buf.data() + off, buf.size() - off, &resp, &consumed);
        if (d == wire::Decode::kFrame) {
          off += consumed;
          if (off == buf.size()) {
            buf.clear();
            off = 0;
          }
          st->responses.fetch_add(1, std::memory_order_relaxed);
          if (resp.status == wire::Status::kShed) {
            ++st->server_shed;
          } else {
            const std::uint64_t now = util::ProgressTracker::now_ns();
            const std::uint64_t lat = now > resp.req_id ? now - resp.req_id : 0;
            st->all.record(lat);
            st->per_op[static_cast<int>(resp.op)].record(lat);
          }
          continue;
        }
        if (d == wire::Decode::kBad) return;
        const std::size_t old = buf.size();
        buf.resize(old + 4096);
        ssize_t n;
        do {
          n = ::recv(fd, buf.data() + old, 4096, 0);
        } while (n < 0 && errno == EINTR);
        if (n <= 0) return;  // EOF or shutdown()
        buf.resize(old + static_cast<std::size_t>(n));
      }
    });
  }

  // The pacer: the same schedule/mix/key stream as run_open_loop. Service
  // and wire op codes are equal by construction (tcp_server.cpp asserts it).
  server::OpenLoopPacer pacer(cfg);
  std::size_t rr = 0;
  for (server::Request sreq; pacer.next(sreq);) {
    wire::Request req;
    req.op = static_cast<wire::Op>(sreq.op);
    req.req_id = sreq.arrival_ns;  // latency = receipt − req_id at receiver
    req.key = sreq.key;
    req.key2 = sreq.key2;
    req.value = sreq.value;
    req.fanout = sreq.fanout;

    ++res.offered;
    std::uint8_t buf[wire::kReqFrame];
    const std::size_t len = wire::encode_request(req, buf);
    detail::ConnSend& cs = senders[rr++ % senders.size()];
    if (detail::submit_frame(cs, buf, len)) {
      ++res.sent;
    } else if (cs.dead) {
      ++res.io_errors;
    } else {
      ++res.client_shed;
    }
  }

  // Flush client buffers (bounded), then wait for the responses to the
  // frames that actually went out, then release the receivers.
  const std::uint64_t flush_deadline =
      util::ProgressTracker::now_ns() + 1000000000ULL;
  for (;;) {
    bool left = false;
    for (auto& cs : senders) {
      if (cs.dead) continue;
      detail::flush_pending(cs);
      left = left || !cs.pending.empty();
    }
    if (!left || util::ProgressTracker::now_ns() > flush_deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& cs : senders) {
    const std::size_t stuck = cs.pending.size() - cs.off;
    res.unflushed += stuck / wire::kReqFrame;  // whole frames never delivered
  }

  const std::uint64_t expect = res.sent - res.unflushed;
  const std::uint64_t drain_deadline =
      util::ProgressTracker::now_ns() + 3000000000ULL;
  for (;;) {
    std::uint64_t got = 0;
    for (const auto& st : rstates) {
      got += st.responses.load(std::memory_order_relaxed);
    }
    if (got >= expect || util::ProgressTracker::now_ns() > drain_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& cs : senders) ::shutdown(cs.fd, SHUT_RDWR);
  for (auto& t : receivers) t.join();
  for (auto& cs : senders) ::close(cs.fd);

  for (int i = 0; i < conns; ++i) {
    const RecvState& st = rstates[static_cast<std::size_t>(i)];
    res.responses += st.responses.load(std::memory_order_relaxed);
    res.server_shed += st.server_shed;
    res.all.merge(st.all);
    for (int op = 0; op < static_cast<int>(wire::Op::kCount); ++op) {
      res.per_op[op].merge(st.per_op[op]);
    }
  }
  res.elapsed_ns = util::ProgressTracker::now_ns() - pacer.start_ns();
  return res;
}

}  // namespace zstm::net
