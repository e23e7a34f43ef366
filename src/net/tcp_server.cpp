// TcpServer implementation (DESIGN.md §13). Threading model in one line:
// every byte of per-connection state is owned by exactly one event-loop
// thread; KvService workers reach a loop only through its mutex-protected
// completion inbox + eventfd doorbell, and the acceptor only through the
// new-fd inbox. The subtle parts — the idle loop's doorbell rule and the
// graceful-drain handshake in stop() — are commented where they happen.
#include "net/tcp_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "fault/failpoint.hpp"
#include "net/wire.hpp"
#include "util/idle_ladder.hpp"

namespace zstm::net {
namespace {

// The wire op codes for service verbs are the service's own, by
// construction; dispatch() casts between them.
static_assert(static_cast<int>(wire::Op::kGet) ==
              static_cast<int>(server::Op::kGet));
static_assert(static_cast<int>(wire::Op::kPut) ==
              static_cast<int>(server::Op::kPut));
static_assert(static_cast<int>(wire::Op::kDel) ==
              static_cast<int>(server::Op::kDel));
static_assert(static_cast<int>(wire::Op::kMultiGet) ==
              static_cast<int>(server::Op::kMultiGet));
static_assert(static_cast<int>(wire::Op::kScan) ==
              static_cast<int>(server::Op::kScan));
static_assert(static_cast<int>(wire::Op::kTransfer) ==
              static_cast<int>(server::Op::kTransfer));

/// Widest multi_get the server will execute: a 4-byte field must not buy a
/// four-billion-iteration transaction (torture-tested).
constexpr std::uint32_t kMaxFanout = 1 << 16;

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct TcpServer::IoLoop {
  explicit IoLoop(TcpServer& s) : srv(s) {}

  TcpServer& srv;
  int epfd = -1;
  int evfd = -1;
  std::thread thread;

  std::atomic<bool> draining{false};    ///< stop parsing/submitting
  std::atomic<bool> drain_acked{false}; ///< loop has observed draining
  std::atomic<bool> stop_flag{false};   ///< exit, closing everything

  struct Completion {
    std::uint64_t conn_id;
    wire::Response resp;
  };
  std::mutex inbox_mu;
  std::vector<int> new_fds;
  std::vector<Completion> completions;
  /// "The inbox is non-empty": written only under inbox_mu, read without it
  /// so a spinning pass over an empty inbox costs no lock.
  std::atomic<bool> inbox_busy{false};

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool epollout = false;
    std::uint64_t last_active_ns = 0;
  };
  std::unordered_map<int, std::unique_ptr<Conn>> by_fd;
  std::unordered_map<std::uint64_t, Conn*> by_id;

  // Per-loop counters (owned by the loop thread; read via stats()).
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> slow_consumer_closed{0};
  std::atomic<std::uint64_t> killed_by_failpoint{0};
  std::atomic<std::uint64_t> shed_backpressure{0};
  std::atomic<std::uint64_t> shed_service{0};
  std::atomic<std::uint64_t> conns_closed{0};
  std::atomic<std::uint64_t> doorbells{0};   ///< bumped by posting threads
  std::atomic<std::uint64_t> loop_parks{0};
  /// Bytes sitting in out-buffers, not yet written to the kernel — the
  /// flush gauge stop()'s drain phase watches.
  std::atomic<std::uint64_t> out_pending_bytes{0};

  // Doorbell rule: a post writes the eventfd only when it turns an empty
  // inbox non-empty. That is enough because run() drains the eventfd BEFORE
  // it swaps the inbox out. A post that finds the inbox non-empty joins an
  // entry E whose poster rings (or has rung) after pushing E. If that ring
  // is still to come or still pending, the loop will wake, drain it and
  // then swap — taking both entries. If a drain has already consumed it,
  // the swap that follows that drain has not happened yet (the inbox still
  // holds E), so it takes this entry too. Either way no entry sits in the
  // inbox without a ring the loop has yet to act on; any post after the
  // swap sees an empty inbox and rings afresh. A ring landing between
  // drain and swap only costs one spurious pass.
  template <typename Push>
  void post(Push push) {
    bool ring;
    {
      std::lock_guard<std::mutex> lk(inbox_mu);
      ring = !inbox_busy.load(std::memory_order_relaxed);
      push();
      inbox_busy.store(true, std::memory_order_release);
    }
    if (ring) {
      doorbells.fetch_add(1, std::memory_order_relaxed);
      wake();
    }
  }

  void post_new_fd(int fd) {
    post([&] { new_fds.push_back(fd); });
  }

  void post_completion(std::uint64_t conn_id, const wire::Response& resp) {
    post([&] { completions.push_back(Completion{conn_id, resp}); });
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(evfd, &one, sizeof one);
  }

  void run();
  bool process_inbox(bool rang);
  void add_conn(int fd);
  void close_conn(Conn& c, std::atomic<std::uint64_t>* reason);
  void handle_readable(Conn& c);
  void parse(Conn& c);
  void dispatch(Conn& c, const wire::Request& req);
  void respond(Conn& c, const wire::Response& resp);
  bool try_flush(Conn& c);
  void idle_scan(std::uint64_t now);
};

void TcpServer::IoLoop::run() {
  // Parked, the loop sleeps until an event or the idle-scan tick (forever
  // when idle closing is off); idle_scan itself runs once per tick, not on
  // every spinning pass.
  int tick_ms = -1;
  if (srv.cfg_.idle_timeout.count() > 0) {
    const long t = srv.cfg_.idle_timeout.count() / 4;
    tick_ms = static_cast<int>(t < 10 ? 10 : (t > 500 ? 500 : t));
  }
  const std::uint64_t tick_ns =
      tick_ms > 0 ? static_cast<std::uint64_t>(tick_ms) * 1000000ULL : 0;
  std::uint64_t next_scan_ns = tick_ns != 0 ? mono_ns() + tick_ns : 0;

  // Spin → yield → park (util::IdleLadder), as the service workers do:
  // while traffic flows, neither an arriving frame nor a completion's
  // doorbell has to wake a sleeping thread.
  util::IdleLadder ladder;
  util::IdleLadder::Rung rung = util::IdleLadder::Rung::kSpin;
  epoll_event evs[64];
  for (;;) {
    int timeout = 0;
    if (rung == util::IdleLadder::Rung::kPark) {
      loop_parks.fetch_add(1, std::memory_order_relaxed);
      timeout = tick_ms;
    }
    const int n = ::epoll_wait(epfd, evs, 64, timeout);
    if (n < 0 && errno != EINTR) break;  // epoll fd gone — bail out

    // Drain the eventfd BEFORE the inbox: a wake() posted after this drain
    // but before (or during) process_inbox leaves the counter set, so the
    // next epoll_wait returns immediately. The other order loses wakes — a
    // post landing between process_inbox and a later drain would have its
    // signal swallowed with the inbox entry still queued, and a quiet loop
    // would sleep on it indefinitely.
    bool rang = false;
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == evfd) {
        std::uint64_t junk;
        while (::read(evfd, &junk, sizeof junk) > 0) {
        }
        rang = true;
      }
    }

    if (draining.load(std::memory_order_acquire)) {
      // Drain handshake, step 2: once acked, this loop will never start
      // another parse, so it will never submit to the service again —
      // stop() may then trust pending_responses_ to only count down.
      drain_acked.store(true, std::memory_order_release);
    }
    const bool took = process_inbox(rang);

    if (stop_flag.load(std::memory_order_acquire)) break;

    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == evfd) continue;
      auto it = by_fd.find(evs[i].data.fd);
      if (it == by_fd.end()) continue;  // closed earlier in this batch
      Conn& c = *it->second;
      const std::uint32_t flags = evs[i].events;
      if (flags & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        handle_readable(c);  // EOF/reset surfaces through recv()
        if (by_fd.find(evs[i].data.fd) == by_fd.end()) continue;
      }
      if (flags & EPOLLOUT) try_flush(c);
    }

    if (tick_ns != 0) {
      const std::uint64_t now = mono_ns();
      if (now >= next_scan_ns) {
        idle_scan(now);
        next_scan_ns = now + tick_ns;
      }
    }

    if (n > 0 || took) {
      ladder.reset();
      rung = util::IdleLadder::Rung::kSpin;
    } else {
      rung = ladder.idle();
      if (rung == util::IdleLadder::Rung::kYield) std::this_thread::yield();
    }
  }

  // Teardown: every remaining connection closes abruptly; completions
  // still queued are dropped (stop() only reaches this point once
  // pending_responses_ is 0, so inbox completions can only be stragglers
  // for already-dead connections — but account for them defensively).
  process_inbox(true);
  std::vector<Conn*> left;
  left.reserve(by_fd.size());
  for (auto& [fd, c] : by_fd) left.push_back(c.get());
  for (Conn* c : left) close_conn(*c, nullptr);
}

/// Takes and handles everything posted so far; false if there was nothing.
/// `rang` (the eventfd was just drained) forces the locked look: the
/// doorbell rule's argument runs through the mutex, not the flag.
bool TcpServer::IoLoop::process_inbox(bool rang) {
  if (!rang && !inbox_busy.load(std::memory_order_acquire)) return false;
  std::vector<int> fds;
  std::vector<Completion> comps;
  {
    std::lock_guard<std::mutex> lk(inbox_mu);
    fds.swap(new_fds);
    comps.swap(completions);
    inbox_busy.store(false, std::memory_order_relaxed);
  }
  for (int fd : fds) add_conn(fd);
  for (const Completion& comp : comps) {
    auto it = by_id.find(comp.conn_id);
    if (it != by_id.end()) {
      respond(*it->second, comp.resp);
    }
    // Dropped (dead connection) or delivered — either way the response has
    // reached its terminal state.
    srv.pending_responses_.fetch_sub(1, std::memory_order_release);
  }
  return !fds.empty() || !comps.empty();
}

void TcpServer::IoLoop::add_conn(int fd) {
  if (stop_flag.load(std::memory_order_relaxed) ||
      draining.load(std::memory_order_relaxed)) {
    ::close(fd);
    srv.conns_active_.fetch_sub(1, std::memory_order_relaxed);
    conns_closed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto c = std::make_unique<Conn>();
  c->fd = fd;
  static std::atomic<std::uint64_t> next_id{1};
  c->id = next_id.fetch_add(1, std::memory_order_relaxed);
  c->last_active_ns = mono_ns();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    srv.conns_active_.fetch_sub(1, std::memory_order_relaxed);
    conns_closed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  by_id.emplace(c->id, c.get());
  by_fd.emplace(fd, std::move(c));
}

void TcpServer::IoLoop::close_conn(Conn& c,
                                   std::atomic<std::uint64_t>* reason) {
  if (reason != nullptr) reason->fetch_add(1, std::memory_order_relaxed);
  out_pending_bytes.fetch_sub(c.out.size() - c.out_off,
                              std::memory_order_relaxed);
  ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  conns_closed.fetch_add(1, std::memory_order_relaxed);
  srv.conns_active_.fetch_sub(1, std::memory_order_relaxed);
  by_id.erase(c.id);
  by_fd.erase(c.fd);  // destroys c — must be last
}

void TcpServer::IoLoop::handle_readable(Conn& c) {
  // One recv per readiness event: level-triggered epoll re-signals while
  // bytes remain, which keeps one chatty peer from starving the loop.
  std::size_t want = 4096;
  if (fault::poke(fault::Site::kNetRead) == fault::Effect::kCasFail) {
    want = 1;  // short read: the rest stays in the kernel buffer
  }
  const std::size_t old = c.in.size();
  c.in.resize(old + want);
  ssize_t n;
  do {
    n = ::recv(c.fd, c.in.data() + old, want, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    c.in.resize(old);
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    close_conn(c, nullptr);  // ECONNRESET and friends: abrupt disconnect
    return;
  }
  if (n == 0) {
    c.in.resize(old);
    close_conn(c, nullptr);  // orderly EOF
    return;
  }
  c.in.resize(old + static_cast<std::size_t>(n));
  c.last_active_ns = mono_ns();
  parse(c);
}

void TcpServer::IoLoop::parse(Conn& c) {
  if (draining.load(std::memory_order_acquire)) return;  // bytes keep
  for (;;) {
    wire::Request req;
    std::size_t consumed = 0;
    const wire::Decode d = wire::decode_request(
        c.in.data() + c.in_off, c.in.size() - c.in_off, &req, &consumed);
    if (d == wire::Decode::kNeedMore) break;
    if (d == wire::Decode::kBad) {
      close_conn(c, &protocol_errors);
      return;
    }
    c.in_off += consumed;
    if (fault::poke(fault::Site::kNetConnKill) == fault::Effect::kAbort) {
      close_conn(c, &killed_by_failpoint);
      return;
    }
    requests.fetch_add(1, std::memory_order_relaxed);
    const int fd = c.fd;  // dispatch may close (and free) the connection
    dispatch(c, req);
    if (by_fd.find(fd) == by_fd.end()) return;
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > 4096) {
    c.in.erase(c.in.begin(),
               c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
    c.in_off = 0;
  }
}

void TcpServer::IoLoop::dispatch(Conn& c, const wire::Request& req) {
  wire::Response resp;
  resp.op = req.op;
  resp.req_id = req.req_id;

  // ping/stats answer on the loop thread: liveness must not queue behind
  // STM work.
  if (req.op == wire::Op::kPing) {
    resp.status = wire::Status::kOk;
    resp.value = req.value;
    respond(c, resp);
    return;
  }
  if (req.op == wire::Op::kStats) {
    resp.status = wire::Status::kOk;
    resp.value = static_cast<std::int64_t>(srv.svc_.completed());
    resp.count = srv.conns_active_.load(std::memory_order_relaxed);
    respond(c, resp);
    return;
  }
  if (req.op == wire::Op::kMultiGet && req.fanout > kMaxFanout) {
    resp.status = wire::Status::kError;
    respond(c, resp);
    return;
  }
  // Backpressure: a peer that is not draining responses does not get to
  // keep feeding the service (shed, never block — §13.3).
  if (c.out.size() - c.out_off > srv.cfg_.write_high_watermark) {
    shed_backpressure.fetch_add(1, std::memory_order_relaxed);
    resp.status = wire::Status::kShed;
    respond(c, resp);
    return;
  }

  server::Request s;
  s.op = static_cast<server::Op>(req.op);
  s.key = req.key;
  s.key2 = req.key2;
  s.value = req.value;
  s.fanout = req.fanout;
  IoLoop* loop = this;
  const std::uint64_t conn_id = c.id;
  const wire::Op op = req.op;
  const std::uint64_t rid = req.req_id;
  s.on_done = [loop, conn_id, op, rid](const server::Response& r) {
    wire::Response out;
    out.op = op;
    out.req_id = rid;
    out.status = r.ok ? wire::Status::kOk : wire::Status::kNotFound;
    out.value = r.value;
    out.count = r.count;
    loop->post_completion(conn_id, out);
  };
  srv.pending_responses_.fetch_add(1, std::memory_order_relaxed);
  if (!srv.svc_.submit(std::move(s))) {
    srv.pending_responses_.fetch_sub(1, std::memory_order_relaxed);
    shed_service.fetch_add(1, std::memory_order_relaxed);
    resp.status = wire::Status::kShed;
    respond(c, resp);
  }
}

void TcpServer::IoLoop::respond(Conn& c, const wire::Response& resp) {
  std::uint8_t buf[wire::kRespFrame];
  const std::size_t len = wire::encode_response(resp, buf);
  c.out.insert(c.out.end(), buf, buf + len);
  out_pending_bytes.fetch_add(len, std::memory_order_relaxed);
  responses.fetch_add(1, std::memory_order_relaxed);
  c.last_active_ns = mono_ns();
  try_flush(c);
}

bool TcpServer::IoLoop::try_flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    std::size_t want = c.out.size() - c.out_off;
    if (fault::poke(fault::Site::kNetWrite) == fault::Effect::kCasFail) {
      want = 1;  // short write: remainder stays buffered, EPOLLOUT re-arms
    }
    ssize_t n;
    do {
      n = ::send(c.fd, c.out.data() + c.out_off, want, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c, nullptr);  // peer vanished mid-response
      return false;
    }
    c.out_off += static_cast<std::size_t>(n);
    out_pending_bytes.fetch_sub(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
  }

  const std::size_t left = c.out.size() - c.out_off;
  if (left == 0) {
    c.out.clear();
    c.out_off = 0;
  } else if (left > 4 * srv.cfg_.write_high_watermark) {
    // The peer has stopped reading entirely; holding its megabytes hostage
    // helps no one.
    close_conn(c, &slow_consumer_closed);
    return false;
  } else if (c.out_off > (1u << 16)) {
    c.out.erase(c.out.begin(),
                c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }

  const bool want_out = c.out_off < c.out.size();
  if (want_out != c.epollout) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    if (::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
      c.epollout = want_out;
    }
  }
  return true;
}

void TcpServer::IoLoop::idle_scan(std::uint64_t now) {
  const std::uint64_t limit =
      static_cast<std::uint64_t>(srv.cfg_.idle_timeout.count()) * 1000000ULL;
  std::vector<Conn*> idle;
  for (auto& [fd, c] : by_fd) {
    if (now - c->last_active_ns > limit) idle.push_back(c.get());
  }
  for (Conn* c : idle) close_conn(*c, &idle_closed);
}

// ---------------------------------------------------------------------------
// TcpServer proper
// ---------------------------------------------------------------------------

TcpServer::TcpServer(server::KvService& svc, NetConfig cfg)
    : svc_(svc), cfg_(std::move(cfg)) {}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start() {
  if (running_) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("net: socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "net: bad bind address %s\n",
                 cfg_.bind_addr.c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, cfg_.listen_backlog) != 0) {
    std::perror("net: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  stop_event_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_event_fd_ < 0) {
    std::perror("net: eventfd");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  const int nloops = cfg_.io_threads < 1 ? 1 : cfg_.io_threads;
  loops_.clear();
  for (int i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<IoLoop>(*this);
    loop->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->evfd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->evfd;
    ::epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->evfd, &ev);
    loops_.push_back(std::move(loop));
  }
  pending_responses_.store(0, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    loop->thread = std::thread([l = loop.get()] { l->run(); });
  }
  accepting_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  running_ = true;
  return true;
}

void TcpServer::acceptor_loop() {
  std::size_t rr = 0;
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = stop_event_fd_;
  fds[1].events = POLLIN;
  while (accepting_.load(std::memory_order_acquire)) {
    fds[0].revents = fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() signalled
    for (;;) {
      const int cfd =
          ::accept4(listen_fd_, nullptr, nullptr,
                    SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        break;  // EMFILE etc: back to poll, do not spin
      }
      conns_accepted_.fetch_add(1, std::memory_order_relaxed);
      if (fault::poke(fault::Site::kNetAccept) == fault::Effect::kCasFail) {
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        ::close(cfd);
        continue;
      }
      if (conns_active_.load(std::memory_order_relaxed) >=
          cfg_.max_connections) {
        conns_rejected_.fetch_add(1, std::memory_order_relaxed);
        ::close(cfd);
        continue;
      }
      const int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns_active_.fetch_add(1, std::memory_order_relaxed);
      loops_[rr++ % loops_.size()]->post_new_fd(cfd);
    }
  }
}

void TcpServer::stop() {
  if (!running_) return;
  // 1. No new connections.
  accepting_.store(false, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(stop_event_fd_, &one, sizeof one);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain handshake, step 1: tell every loop to stop parsing, then wait
  //    for each to acknowledge. After the ack, a loop can never submit
  //    another request, so pending_responses_ only counts down — waiting
  //    for 0 is then race-free (KvService drains every accepted request,
  //    so every pending on_done WILL fire; see §13.4).
  for (auto& loop : loops_) {
    loop->draining.store(true, std::memory_order_release);
    loop->wake();
  }
  for (auto& loop : loops_) {
    while (!loop->drain_acked.load(std::memory_order_acquire)) {
      loop->wake();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  while (pending_responses_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // 3. Flush whatever peers are willing to read, bounded: a peer that
  //    stopped reading cannot hold shutdown hostage.
  const auto deadline = std::chrono::steady_clock::now() + cfg_.drain_timeout;
  for (;;) {
    std::uint64_t left = 0;
    for (auto& loop : loops_) {
      left += loop->out_pending_bytes.load(std::memory_order_relaxed);
    }
    if (left == 0 || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Tear the loops down (they close any remaining connections).
  for (auto& loop : loops_) {
    loop->stop_flag.store(true, std::memory_order_release);
    loop->wake();
  }
  for (auto& loop : loops_) {
    loop->thread.join();
    ::close(loop->epfd);
    ::close(loop->evfd);
  }
  // Fold the per-loop counters into retired_ so stats() keeps reporting
  // them after the loops are gone (kvbench reads them after shutdown).
  for (const auto& loop : loops_) {
    retired_.requests += loop->requests.load(std::memory_order_relaxed);
    retired_.responses += loop->responses.load(std::memory_order_relaxed);
    retired_.protocol_errors +=
        loop->protocol_errors.load(std::memory_order_relaxed);
    retired_.idle_closed += loop->idle_closed.load(std::memory_order_relaxed);
    retired_.slow_consumer_closed +=
        loop->slow_consumer_closed.load(std::memory_order_relaxed);
    retired_.killed_by_failpoint +=
        loop->killed_by_failpoint.load(std::memory_order_relaxed);
    retired_.shed_backpressure +=
        loop->shed_backpressure.load(std::memory_order_relaxed);
    retired_.shed_service +=
        loop->shed_service.load(std::memory_order_relaxed);
    retired_.conns_closed += loop->conns_closed.load(std::memory_order_relaxed);
    retired_.doorbells += loop->doorbells.load(std::memory_order_relaxed);
    retired_.loop_parks += loop->loop_parks.load(std::memory_order_relaxed);
  }
  loops_.clear();
  ::close(stop_event_fd_);
  stop_event_fd_ = -1;
  running_ = false;
}

NetStats TcpServer::stats() const {
  NetStats s = retired_;
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.conns_rejected = conns_rejected_.load(std::memory_order_relaxed);
  s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  s.conns_active = conns_active_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    s.requests += loop->requests.load(std::memory_order_relaxed);
    s.responses += loop->responses.load(std::memory_order_relaxed);
    s.protocol_errors +=
        loop->protocol_errors.load(std::memory_order_relaxed);
    s.idle_closed += loop->idle_closed.load(std::memory_order_relaxed);
    s.slow_consumer_closed +=
        loop->slow_consumer_closed.load(std::memory_order_relaxed);
    s.killed_by_failpoint +=
        loop->killed_by_failpoint.load(std::memory_order_relaxed);
    s.shed_backpressure +=
        loop->shed_backpressure.load(std::memory_order_relaxed);
    s.shed_service += loop->shed_service.load(std::memory_order_relaxed);
    s.conns_closed += loop->conns_closed.load(std::memory_order_relaxed);
    s.doorbells += loop->doorbells.load(std::memory_order_relaxed);
    s.loop_parks += loop->loop_parks.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace zstm::net
