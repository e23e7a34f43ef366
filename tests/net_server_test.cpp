// Networked KV front end battery (DESIGN.md §13): every protocol op over a
// real loopback socket for every runtime variant, pipelined concurrent
// clients, connection lifecycle (idle timeout, max-connections cap,
// graceful drain with in-flight requests), the idle loop's doorbell and
// parking behaviour, and the chaos recipe with the net.* failpoint sites
// armed.
//
// CTest label: `net`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "fault/failpoint.hpp"
#include "net/kv_client.hpp"
#include "net/tcp_server.hpp"
#include "net/wire.hpp"
#include "server/kv_service.hpp"
#include "stress_env.hpp"

namespace zstm::net {
namespace {

server::ServiceConfig small_config(const std::string& variant,
                                   int workers = 2) {
  server::ServiceConfig cfg;
  cfg.variant = variant;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 12;
  cfg.buckets = 64;
  cfg.stm.max_threads = workers + 6;
  return cfg;
}

/// Service + TCP server on an ephemeral loopback port, torn down in order.
struct Rig {
  server::KvService svc;
  TcpServer ts;

  explicit Rig(const std::string& variant, NetConfig ncfg = {},
               int workers = 2)
      : svc(small_config(variant, workers)), ts(svc, std::move(ncfg)) {
    svc.start();
    EXPECT_TRUE(ts.start());
  }
  ~Rig() {
    ts.stop();  // before the service: completions target live loops
    svc.stop();
  }
  KvClient client() {
    KvClient c;
    EXPECT_TRUE(c.connect("127.0.0.1", ts.port()));
    return c;
  }
};

void wait_active_conns(const TcpServer& ts, std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.stats().conns_active != want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ts.stats().conns_active, want);
}

TEST(NetServer, EveryOpEveryVariant) {
  for (const std::string& variant : api::variant_names()) {
    SCOPED_TRACE(variant);
    Rig rig(variant);
    rig.svc.preload(0, 64, 100);
    KvClient c = rig.client();

    EXPECT_TRUE(c.ping(12345));

    // get hit + miss
    auto v = c.get(7);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 100);
    EXPECT_FALSE(c.get(9999).has_value());

    // put then read back
    EXPECT_TRUE(c.put(200, -5));
    v = c.get(200);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, -5);

    // del hit + miss
    EXPECT_TRUE(c.del(200));
    EXPECT_FALSE(c.del(200));

    // multi_get over the preloaded window: every key found, sum exact
    KvClient::Result mg = c.multi_get(0, 16);
    EXPECT_TRUE(mg.ok());
    EXPECT_EQ(mg.count, 16u);
    EXPECT_EQ(mg.value, 1600);

    // transfer conserves the scan sum
    const KvClient::Result before = c.scan();
    EXPECT_TRUE(before.ok());
    EXPECT_EQ(before.count, 64u);
    EXPECT_TRUE(c.transfer(1, 2, 30));
    const KvClient::Result after = c.scan();
    EXPECT_TRUE(after.ok());
    EXPECT_EQ(after.value, before.value);
    v = c.get(2);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 130);

    // transfer from a missing key fails as kNotFound, not an error
    const KvClient::Result bad =
        c.call(wire::Op::kTransfer, 424242, 1, 5);
    EXPECT_TRUE(bad.transport_ok);
    EXPECT_EQ(bad.status, wire::Status::kNotFound);

    // stats: completed requests so far, one active connection
    const KvClient::Result st = c.stats();
    EXPECT_TRUE(st.ok());
    EXPECT_GT(st.value, 0);
    EXPECT_EQ(st.count, 1u);
  }
}

TEST(NetServer, ConcurrentClients) {
  Rig rig("lsa", {}, 3);
  rig.svc.preload(0, 256, 100);
  const int kClients = 6;
  const int rounds = test_env::stress_rounds(200);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      KvClient c;
      if (!c.connect("127.0.0.1", rig.ts.port())) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < rounds; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>((t * rounds + i) % 256);
        bool ok = true;
        switch (i % 5) {
          case 0: ok = c.put(key, i); break;
          case 1: ok = c.get(key).has_value() || true; break;
          case 2: ok = c.multi_get(key % 200, 8).transport_ok; break;
          case 3: ok = c.transfer(key, (key + 1) % 256, 1) || true; break;
          default: ok = c.ping(i); break;
        }
        if (!ok || !c.connected()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const NetStats ns = rig.ts.stats();
  EXPECT_EQ(ns.protocol_errors, 0u);
  // Every well-formed request got exactly one response (kShed responses
  // are responses too — the server never goes silent on a parsed frame).
  EXPECT_EQ(ns.requests, ns.responses);
}

TEST(NetServer, MultipleIoThreadsSpreadConnections) {
  NetConfig ncfg;
  ncfg.io_threads = 3;
  Rig rig("zl", ncfg);
  rig.svc.preload(0, 32, 1);
  std::vector<KvClient> clients;
  for (int i = 0; i < 9; ++i) clients.push_back(rig.client());
  for (auto& c : clients) EXPECT_TRUE(c.ping(7));
  wait_active_conns(rig.ts, 9);
  for (auto& c : clients) {
    auto v = c.get(3);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
  }
}

TEST(NetServer, IdleTimeoutClosesConnection) {
  NetConfig ncfg;
  ncfg.idle_timeout = std::chrono::milliseconds(50);
  Rig rig("lsa", ncfg);
  KvClient c = rig.client();
  EXPECT_TRUE(c.ping(1));
  // Go quiet: the loop's idle scan must close us. recv_response then sees
  // EOF and the client reports transport failure.
  wire::Response resp;
  EXPECT_FALSE(c.recv_response(&resp));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.ts.stats().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(rig.ts.stats().idle_closed, 1u);
  wait_active_conns(rig.ts, 0);
}

TEST(NetServer, MaxConnectionsCapRejectsExcess) {
  NetConfig ncfg;
  ncfg.max_connections = 2;
  Rig rig("lsa", ncfg);
  KvClient c1 = rig.client();
  EXPECT_TRUE(c1.ping(1));
  KvClient c2 = rig.client();
  EXPECT_TRUE(c2.ping(2));
  // Third connect is accepted then closed at once; the ping round trip
  // fails on EOF.
  KvClient c3;
  ASSERT_TRUE(c3.connect("127.0.0.1", rig.ts.port()));
  EXPECT_FALSE(c3.ping(3));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.ts.stats().conns_rejected == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rig.ts.stats().conns_rejected, 1u);
  // Survivors are unaffected.
  EXPECT_TRUE(c1.ping(4));
  EXPECT_TRUE(c2.ping(5));
}

TEST(NetServer, GracefulDrainFlushesInFlightResponses) {
  // Pipeline a burst, then stop() the server while responses are still in
  // flight: every request that reached the service must get its response
  // flushed before the close (the drain guarantee), then EOF.
  server::KvService svc(small_config("cs-vc"));
  svc.preload(0, 64, 1);
  svc.start();
  TcpServer ts(svc, {});
  ASSERT_TRUE(ts.start());

  KvClient c;
  ASSERT_TRUE(c.connect("127.0.0.1", ts.port()));
  const int kBurst = 64;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kBurst; ++i) {
    wire::Request req;
    req.op = wire::Op::kGet;
    req.req_id = static_cast<std::uint64_t>(i) + 1;
    req.key = static_cast<std::uint64_t>(i % 64);
    std::uint8_t buf[wire::kReqFrame];
    wire::encode_request(req, buf);
    burst.insert(burst.end(), buf, buf + wire::kReqFrame);
  }
  ASSERT_TRUE(c.send_raw(burst.data(), burst.size()));

  // Wait until the server has parsed the whole burst (bytes that reach the
  // drain point unparsed are legitimately dropped), then stop: the drain
  // guarantee is that every parsed-and-submitted request answers before
  // the close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ts.stats().requests <
             static_cast<std::uint64_t>(kBurst) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ts.stats().requests, static_cast<std::uint64_t>(kBurst));

  ts.stop();

  int got = 0;
  wire::Response resp;
  while (c.recv_response(&resp)) {
    EXPECT_NE(resp.status, wire::Status::kError);
    ++got;
  }
  EXPECT_EQ(got, kBurst);
  EXPECT_EQ(ts.stats().conns_active, 0u);
  svc.stop();
}

TEST(NetServer, PipelinedBurstBatchesDoorbellsAndIdleLoopParks) {
  // The doorbell rule (§13.2): completions landing in a non-empty inbox do
  // not write the eventfd again, so a pipelined burst answers with fewer
  // doorbells than responses. Once the traffic stops, the loop must climb
  // its ladder to the parked rung instead of spinning on.
  Rig rig("tl2");
  rig.svc.preload(0, 64, 5);
  KvClient c = rig.client();
  ASSERT_TRUE(c.ping(1));  // the connection is registered with its loop
  const NetStats before = rig.ts.stats();

  const int kBurst = 64;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kBurst; ++i) {
    wire::Request req;
    req.op = i % 4 == 3 ? wire::Op::kPut : wire::Op::kGet;
    req.req_id = static_cast<std::uint64_t>(i) + 1;
    req.key = static_cast<std::uint64_t>(i);
    req.value = 5;
    std::uint8_t buf[wire::kReqFrame];
    wire::encode_request(req, buf);
    burst.insert(burst.end(), buf, buf + wire::kReqFrame);
  }
  ASSERT_TRUE(c.send_raw(burst.data(), burst.size()));
  for (int i = 0; i < kBurst; ++i) {
    wire::Response resp;
    ASSERT_TRUE(c.recv_response(&resp));
    EXPECT_EQ(resp.status, wire::Status::kOk);
  }

  const NetStats after = rig.ts.stats();
  EXPECT_EQ(after.requests, after.responses);
  EXPECT_EQ(after.responses - before.responses,
            static_cast<std::uint64_t>(kBurst));
  EXPECT_LT(after.doorbells, after.responses);

  // `before` was taken ahead of the burst, which knocked the loop off the
  // parked rung; quiet must bring it back there. How long the climb takes
  // depends on how busy the host is, so poll for up to a second.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (rig.ts.stats().loop_parks <= before.loop_parks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(rig.ts.stats().loop_parks, before.loop_parks);
}

TEST(NetServer, SequentialRoundTripsAcrossParkThreshold) {
  // Lost-wakeup regression for the idle loop (§13.2). One request at a
  // time, separated by gaps that catch the loop on every rung of its
  // ladder: spinning (0, 20 µs), yielding (100 µs) and parked (500 µs,
  // 2 ms). A doorbell the loop missed would strand a completion in its
  // inbox while it sleeps in epoll_wait; the watchdog below turns that
  // hang into a failure instead of a stuck suite.
  Rig rig("lsa");
  rig.svc.preload(0, 64, 7);
  constexpr int kTrips = 2000;
  constexpr int kGapsUs[] = {0, 20, 100, 500, 2000};
  constexpr auto kDeadline = std::chrono::seconds(1);
  using Clock = std::chrono::steady_clock;

  std::atomic<int> done{0};
  std::atomic<bool> finished{false};
  std::atomic<Clock::rep> in_flight_since{0};  // 0 = no call outstanding
  std::thread client([&] {
    KvClient c = rig.client();
    for (int i = 0; i < kTrips; ++i) {
      const int gap = kGapsUs[i % 5];
      if (gap > 0) std::this_thread::sleep_for(std::chrono::microseconds(gap));
      in_flight_since.store(Clock::now().time_since_epoch().count());
      const std::optional<std::int64_t> v =
          c.get(static_cast<std::uint64_t>(i % 64));
      in_flight_since.store(0);
      if (v != 7) break;  // transport failure or a wrong answer
      done.fetch_add(1);
    }
    finished.store(true);
  });

  bool stuck = false;
  while (!finished.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const Clock::rep since = in_flight_since.load();
    if (since != 0 &&
        Clock::now() - Clock::time_point(Clock::duration(since)) > kDeadline) {
      stuck = true;
      break;
    }
  }
  // stop()'s unconditional wake releases a stranded completion; the
  // client then sees its connection close and leaves the loop.
  if (stuck) rig.ts.stop();
  client.join();
  EXPECT_FALSE(stuck) << "round trip " << done.load()
                      << " got no answer within 1 s";
  EXPECT_EQ(done.load(), kTrips);
}

TEST(NetServer, StopWithNoClientsAndRestartPort) {
  // stop() is idempotent and a second server can bind a fresh port.
  server::KvService svc(small_config("sstm"));
  svc.start();
  {
    TcpServer ts(svc, {});
    ASSERT_TRUE(ts.start());
    EXPECT_NE(ts.port(), 0);
    ts.stop();
    ts.stop();
  }
  {
    TcpServer ts2(svc, {});
    ASSERT_TRUE(ts2.start());
    KvClient c;
    ASSERT_TRUE(c.connect("127.0.0.1", ts2.port()));
    EXPECT_TRUE(c.ping(9));
    ts2.stop();
  }
  svc.stop();
}

TEST(NetServer, AbruptClientDisconnectReclaimsSlot) {
  Rig rig("tl2");
  rig.svc.preload(0, 32, 1);
  const int rounds = test_env::stress_rounds(50);
  for (int i = 0; i < rounds; ++i) {
    KvClient c = rig.client();
    EXPECT_TRUE(c.put(static_cast<std::uint64_t>(i % 32), i));
    c.close();  // no goodbye — server must reclaim on EOF
  }
  wait_active_conns(rig.ts, 0);
  const NetStats ns = rig.ts.stats();
  EXPECT_EQ(ns.conns_accepted, ns.conns_closed);
  // The service is fully healthy afterwards.
  KvClient c = rig.client();
  EXPECT_TRUE(c.ping(1));
}

TEST(NetServer, ChaosNetFailpointsStayCorrect) {
  // The PR 8 chaos rail extended to the wire: short reads and short writes
  // are pure slowdowns (no request may be lost or corrupted); accept drops
  // and connection kills lose connections but never the server. Run the
  // full verb battery under all four sites and check exact semantics on
  // every successfully transported call.
  fault::registry().disarm_all();
  fault::registry().set_seed(0xC0FFEE);
  ASSERT_TRUE(fault::registry().arm(fault::Site::kNetRead, 0.2, 0,
                                    fault::Effect::kCasFail));
  ASSERT_TRUE(fault::registry().arm(fault::Site::kNetWrite, 0.2, 0,
                                    fault::Effect::kCasFail));
  ASSERT_TRUE(fault::registry().arm(fault::Site::kNetAccept, 0.2, 0,
                                    fault::Effect::kCasFail));
  ASSERT_TRUE(fault::registry().arm(fault::Site::kNetConnKill, 0.02, 0,
                                    fault::Effect::kAbort));

  {
    Rig rig("lsa");
    rig.svc.preload(0, 64, 100);
    const int rounds = test_env::stress_rounds(300);
    int transported = 0;
    KvClient c;
    for (int i = 0; i < rounds; ++i) {
      if (!c.connected() && !c.connect("127.0.0.1", rig.ts.port())) {
        continue;  // accept failpoint dropped us; try again
      }
      const std::uint64_t key = static_cast<std::uint64_t>(i % 64);
      switch (i % 4) {
        case 0: {
          const KvClient::Result r = c.call(wire::Op::kGet, key);
          if (r.transport_ok) {
            ++transported;
            EXPECT_EQ(r.status, wire::Status::kOk);
            EXPECT_EQ(r.value, 100);
          }
          break;
        }
        case 1: {
          const KvClient::Result r =
              c.call(wire::Op::kMultiGet, 0, 0, 0, 8);
          if (r.transport_ok) {
            ++transported;
            EXPECT_EQ(r.status, wire::Status::kOk);
            EXPECT_EQ(r.count, 8u);
            EXPECT_EQ(r.value, 800);
          }
          break;
        }
        case 2: {
          const KvClient::Result r =
              c.call(wire::Op::kTransfer, key, (key + 1) % 64, 0);
          if (r.transport_ok) {
            ++transported;
            EXPECT_EQ(r.status, wire::Status::kOk);
          }
          break;
        }
        default: {
          const KvClient::Result r = c.call(wire::Op::kPing, 0, 0, i);
          if (r.transport_ok) {
            ++transported;
            EXPECT_EQ(r.value, i);
          }
          break;
        }
      }
    }
    EXPECT_GT(transported, 0);

    fault::registry().disarm_all();
    // Post-chaos: sum conserved, server fully live.
    KvClient fresh = rig.client();
    const KvClient::Result scan = fresh.scan();
    EXPECT_TRUE(scan.ok());
    EXPECT_EQ(scan.count, 64u);
    EXPECT_EQ(scan.value, 64 * 100);
  }
  fault::registry().disarm_all();
}

}  // namespace
}  // namespace zstm::net
