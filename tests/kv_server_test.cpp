// KV service battery (DESIGN.md §12): every runtime variant behind the
// same service, value conservation under concurrent transfers, scan
// snapshot consistency while updates race, clean shutdown with in-flight
// requests, registry-slot reclamation across service restarts (thread
// churn), failpoint chaos recovery, the bounded-descriptor guarantee the
// sstm housekeeping exists for, and the open-loop pacer's schedule and
// seed determinism.
//
// CTest label: `server`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/failpoint.hpp"
#include "server/kv_service.hpp"
#include "server/load_gen.hpp"
#include "server/mpmc_queue.hpp"
#include "stress_env.hpp"

namespace zstm::server {
namespace {

ServiceConfig small_config(const std::string& variant, int workers = 2) {
  ServiceConfig cfg;
  cfg.variant = variant;
  cfg.workers = workers;
  cfg.queue_capacity = 1 << 12;
  cfg.buckets = 64;
  cfg.maintain_interval = std::chrono::milliseconds(2);
  cfg.stm.max_threads = workers + 6;
  return cfg;
}

/// Submit-and-wait helper: runs one request synchronously through the
/// service queue (so it exercises the worker path, not the store directly).
Response call(KvService& svc, Request req) {
  std::atomic<bool> done{false};
  Response out;
  req.on_done = [&](const Response& r) {
    out = r;
    done.store(true, std::memory_order_release);
  };
  EXPECT_TRUE(svc.submit(std::move(req)));
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  return out;
}

Request make(Op op, Key key = 0, Value value = 0, Key key2 = 0,
             std::uint32_t fanout = 0) {
  Request r;
  r.op = op;
  r.key = key;
  r.key2 = key2;
  r.value = value;
  r.fanout = fanout;
  return r;
}

TEST(KvServer, BasicOpsEveryVariant) {
  for (const std::string& variant : api::variant_names()) {
    SCOPED_TRACE(variant);
    KvService svc(small_config(variant));
    svc.preload(0, 8, 10);
    svc.start();

    Response r = call(svc, make(Op::kGet, 3));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 10);

    r = call(svc, make(Op::kGet, 99));
    EXPECT_FALSE(r.ok);  // absent key

    r = call(svc, make(Op::kPut, 99, 70));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.count, 1u);  // fresh insert
    r = call(svc, make(Op::kPut, 99, 77));
    EXPECT_EQ(r.count, 0u);  // overwrite

    r = call(svc, make(Op::kMultiGet, 0, 0, 0, 8));
    EXPECT_EQ(r.count, 8u);
    EXPECT_EQ(r.value, 80);  // 8 keys x 10

    r = call(svc, make(Op::kTransfer, /*key=*/1, /*value=*/4, /*key2=*/2));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(call(svc, make(Op::kGet, 1)).value, 6);
    EXPECT_EQ(call(svc, make(Op::kGet, 2)).value, 14);

    r = call(svc, make(Op::kScan));
    EXPECT_EQ(r.count, 9u);          // 8 preloaded + key 99
    EXPECT_EQ(r.value, 80 + 77);     // transfer conserved the sum

    r = call(svc, make(Op::kDel, 99));
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(call(svc, make(Op::kDel, 99)).ok);

    svc.stop();
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, m.accepted);
    EXPECT_GT(m.all.count(), 0u);
    const auto audit = svc.store().audit();
    EXPECT_TRUE(audit.sorted);
    EXPECT_EQ(audit.size, 8u);
  }
}

TEST(KvServer, TransferConservationAndScanSnapshots) {
  // Transfers race long scans; every scan — concurrent or final — must see
  // the preloaded sum (conservation) and the full key population (no key
  // ever vanishes mid-transfer, because the two writes are one tx).
  constexpr Key kKeys = 48;
  constexpr Value kInit = 100;
  for (const std::string& variant : {std::string("zl"), std::string("sstm"),
                                     std::string("tl2")}) {
    SCOPED_TRACE(variant);
    KvService svc(small_config(variant, 3));
    svc.preload(0, kKeys, kInit);
    svc.start();

    std::atomic<std::uint64_t> scans_checked{0};
    std::atomic<std::uint64_t> scan_violations{0};
    const int rounds = test_env::stress_rounds(400);
    util::Xorshift rng(42);
    std::atomic<std::uint64_t> pending{0};
    for (int i = 0; i < rounds; ++i) {
      if (i % 16 == 0) {
        Request scan = make(Op::kScan);
        pending.fetch_add(1);
        scan.on_done = [&](const Response& r) {
          scans_checked.fetch_add(1, std::memory_order_relaxed);
          if (r.count != kKeys ||
              r.value != static_cast<Value>(kKeys) * kInit) {
            scan_violations.fetch_add(1, std::memory_order_relaxed);
          }
          pending.fetch_sub(1, std::memory_order_release);
        };
        ASSERT_TRUE(svc.submit(std::move(scan)));
      }
      const Key from = rng.next_below(kKeys);
      Key to = rng.next_below(kKeys);
      if (to == from) to = (to + 1) % kKeys;
      ASSERT_TRUE(svc.submit(make(Op::kTransfer, from,
                                  static_cast<Value>(rng.next_below(5)), to)));
    }
    svc.stop();
    EXPECT_EQ(pending.load(), 0u);  // stop() drained every callback
    EXPECT_GT(scans_checked.load(), 0u);
    EXPECT_EQ(scan_violations.load(), 0u);

    const KvStore::ScanResult fin = svc.store().scan();
    EXPECT_EQ(fin.count, kKeys);
    EXPECT_EQ(fin.sum, static_cast<Value>(kKeys) * kInit);
  }
}

TEST(KvServer, MultiGetWindowIsOneSnapshot) {
  // Transfers confined to the window [0, 16) make the window sum an
  // invariant that only a torn (multi-transaction) read could violate.
  constexpr Key kWin = 16;
  KvService svc(small_config("lsa", 3));
  svc.preload(0, kWin, 50);
  svc.start();
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> pending{0};
  util::Xorshift rng(7);
  const int rounds = test_env::stress_rounds(600);
  for (int i = 0; i < rounds; ++i) {
    if (i % 8 == 0) {
      Request mg = make(Op::kMultiGet, 0, 0, 0, kWin);
      pending.fetch_add(1);
      mg.on_done = [&](const Response& r) {
        if (r.count != kWin || r.value != static_cast<Value>(kWin) * 50) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        pending.fetch_sub(1, std::memory_order_release);
      };
      ASSERT_TRUE(svc.submit(std::move(mg)));
    }
    const Key from = rng.next_below(kWin);
    ASSERT_TRUE(svc.submit(
        make(Op::kTransfer, from, 1, (from + 1 + rng.next_below(kWin - 1)) % kWin)));
  }
  svc.stop();
  EXPECT_EQ(pending.load(), 0u);
  EXPECT_EQ(violations.load(), 0u);
}

TEST(KvServer, CleanShutdownDrainsInflightBurst) {
  // A burst far larger than the workers can instantly absorb, then an
  // immediate stop(): every ACCEPTED request must still execute (drain
  // semantics), and accepted + shed must account for every submit.
  KvService svc(small_config("cs-vc", 2));
  svc.preload(0, 32, 5);
  svc.start();
  std::atomic<std::uint64_t> callbacks{0};
  const int burst = test_env::stress_rounds(3000);
  std::uint64_t accepted = 0;
  for (int i = 0; i < burst; ++i) {
    Request r = make(Op::kPut, static_cast<Key>(i % 512),
                     static_cast<Value>(i));
    r.on_done = [&](const Response&) {
      callbacks.fetch_add(1, std::memory_order_relaxed);
    };
    if (svc.submit(std::move(r))) ++accepted;
  }
  svc.stop();
  EXPECT_EQ(svc.completed(), accepted);
  EXPECT_EQ(callbacks.load(), accepted);
  // After stop, submits shed cleanly.
  EXPECT_FALSE(svc.submit(make(Op::kGet, 0)));
}

TEST(KvServer, RestartChurnReclaimsRegistrySlots) {
  // Each start() spawns a fresh worker pool; with max_threads barely above
  // the per-run need, 12 restarts only work if thread-exit hands registry
  // slots back every round.
  ServiceConfig cfg = small_config("zl", 3);
  cfg.stm.max_threads = 6;  // 3 workers + main + housekeeping slack
  KvService svc(cfg);
  svc.preload(0, 16, 1);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    svc.start();
    EXPECT_TRUE(svc.running());
    const Response r = call(svc, make(Op::kScan));
    EXPECT_EQ(r.count, 16u);
    svc.stop();
    EXPECT_FALSE(svc.running());
  }
  EXPECT_EQ(svc.store().scan().sum, 16);
}

TEST(KvServer, ChaosFailpointsRecover) {
  // Arm every abort-capable failpoint at low probability while a paced load
  // runs against lsa: the retry ladder must absorb the induced aborts and
  // the final state must still audit clean. SuppressGuard protects the
  // preload/teardown phases.
  fault::registry().disarm_all();
  fault::registry().set_seed(0x9e3779b9ULL);
  KvService svc(small_config("lsa", 2));
  {
    fault::SuppressGuard quiet;
    svc.preload(0, 64, 100);
  }
  svc.start();
  ASSERT_TRUE(fault::registry().arm(fault::Site::kLsaAcquire, 0.05));
  ASSERT_TRUE(fault::registry().arm(fault::Site::kStoreSettleCas, 0.05,
                                    /*after=*/0, fault::Effect::kCasFail));

  LoadGenConfig lcfg;
  lcfg.rate = 4000.0;
  lcfg.duration = std::chrono::milliseconds(test_env::stress_rounds(250));
  lcfg.keyspace = 64;
  lcfg.zipf_theta = 0.9;
  lcfg.mix.del = 0.0;  // keep the population stable for the final audit
  lcfg.mix.put = 0.0;  // transfers + reads only: the sum is pinned
  lcfg.seed = 3;
  const LoadGenResult load = run_open_loop(svc, lcfg);
  const std::uint64_t fired = fault::registry().triggers_total();
  fault::registry().disarm_all();  // also zeroes the counts — read first
  svc.stop();

  EXPECT_GT(load.accepted, 0u);
  EXPECT_EQ(svc.completed(), load.accepted);
  EXPECT_GT(fired, 0u)
      << "failpoints armed but never fired — chaos did not happen";
  const KvStore::ScanResult fin = svc.store().scan();
  EXPECT_EQ(fin.count, 64u);
  EXPECT_EQ(fin.sum, 64 * 100);
  fault::registry().reset_counts();
}

TEST(KvServer, SstmDescriptorCountStaysBounded) {
  // The regression the housekeeping + maintain_every plumbing exists for:
  // under sustained update load, sstm's retained descriptor count must stay
  // bounded (trims keep up) instead of growing with total commits, and a
  // stopped service holds zero.
  ServiceConfig cfg = small_config("sstm", 2);
  cfg.maintain_interval = std::chrono::milliseconds(1);
  cfg.stm.maintain_every = 64;
  KvService svc(cfg);
  svc.preload(0, 32, 10);
  svc.start();
  LoadGenConfig lcfg;
  lcfg.rate = 6000.0;
  lcfg.duration = std::chrono::milliseconds(test_env::stress_rounds(400));
  lcfg.keyspace = 32;
  lcfg.mix.put = 0.5;  // update-heavy: every commit retires a descriptor
  lcfg.mix.del = 0.0;
  lcfg.seed = 5;
  const LoadGenResult load = run_open_loop(svc, lcfg);
  svc.stop();

  const ServiceMetrics m = svc.metrics();
  EXPECT_GT(load.accepted, 100u);
  EXPECT_GT(m.reclaimed_total, 0u);
  EXPECT_EQ(m.retained_last, 0u);  // final quiescent trim got everything
  // Bounded: the high-water mark must be far below "every commit retained".
  EXPECT_LT(m.retained_high_water, m.completed)
      << "descriptor count grew with commit count — trims are not keeping up";
  EXPECT_EQ(svc.stm().maintain().retained, 0u);
}

/// 20 ms at 20k/s: 400 scheduled arrivals, ~20 ms of wall time.
LoadGenConfig pacer_config(std::uint64_t seed) {
  LoadGenConfig cfg;
  cfg.rate = 20000.0;
  cfg.duration = std::chrono::milliseconds(20);
  cfg.keyspace = 256;
  cfg.seed = seed;
  return cfg;
}

using Drawn = std::tuple<Op, Key, Key, Value, std::uint32_t>;

std::vector<Drawn> draw_all(const LoadGenConfig& cfg) {
  std::vector<Drawn> seq;
  OpenLoopPacer pacer(cfg);
  for (Request r; pacer.next(r);) {
    seq.emplace_back(r.op, r.key, r.key2, r.value, r.fanout);
  }
  return seq;
}

TEST(OpenLoopPacer, SequenceIsAFunctionOfTheSeed) {
  const std::vector<Drawn> a = draw_all(pacer_config(7));
  const std::vector<Drawn> b = draw_all(pacer_config(7));
  const std::vector<Drawn> c = draw_all(pacer_config(8));
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(c.size(), a.size());  // the schedule does not depend on the seed
  EXPECT_NE(a, c);
}

TEST(OpenLoopPacer, ScheduleStartsAtStartAndEndsAtDuration) {
  const LoadGenConfig cfg = pacer_config(1);
  const std::uint64_t duration_ns = 20'000'000;
  const std::uint64_t interval_ns = 50'000;
  OpenLoopPacer pacer(cfg);
  std::uint64_t prev = pacer.start_ns();
  std::uint64_t count = 0;
  for (Request r; pacer.next(r); ++count) {
    EXPECT_GE(r.arrival_ns, prev);
    EXPECT_LT(r.arrival_ns, pacer.start_ns() + duration_ns);
    // Fixed 1/rate spacing (a few ns of double rounding on a long uptime).
    EXPECT_NEAR(static_cast<double>(r.arrival_ns - pacer.start_ns()),
                static_cast<double>(count * interval_ns), 8.0);
    prev = r.arrival_ns;
  }
  EXPECT_EQ(count, duration_ns / interval_ns);
  Request r;
  EXPECT_FALSE(pacer.next(r));  // stays finished
}

TEST(MpmcQueue, FullSheddingAndDrainAfterClose) {
  MpmcQueue<int> q(4);  // capacity rounds to 4
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(99));  // full: shed, never block
  q.close();
  EXPECT_FALSE(q.try_push(5));  // closed: rejected
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.pop(v));  // closed but not drained: still delivers
    EXPECT_EQ(v, i);        // FIFO
  }
  EXPECT_FALSE(q.pop(v));  // closed AND drained
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  MpmcQueue<std::uint64_t> q(64);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  const std::uint64_t per = test_env::stress_rounds(20000);
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<std::uint64_t> produced_sum{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      std::uint64_t local = 0;
      while (q.pop(v)) local += v;
      consumed_sum.fetch_add(local);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < per; ++i) {
        const std::uint64_t v = p * per + i + 1;
        while (!q.try_push(std::uint64_t(v))) std::this_thread::yield();
        local += v;
      }
      produced_sum.fetch_add(local);
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed_sum.load(), produced_sum.load());
}

}  // namespace
}  // namespace zstm::server
