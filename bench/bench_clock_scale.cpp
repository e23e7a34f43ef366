// bench_clock_scale: commit-timebase scalability sweep (DESIGN.md §10).
//
// Two sections, both emitted into BENCH_clock_scale.json with --json:
//
//  * "stamp" — raw commit-stamp acquisition throughput for the three
//    timebase schemes, threads × scheme:
//      global      GlobalCounter::acquire_commit_time (one fetch_add on a
//                  single shared line — the §2 baseline every runtime
//                  defaults to)
//      batched     BatchedCounter: leases of k ticks, common case one CAS
//                  on the slot's OWN padded line (lsa Config::time_base)
//      sharded     ShardedClock exclusive layout: one single-writer lane
//                  per slot — plain load + release store, no atomic RMW
//                  at all (the runtimes' id generator)
//    Each row also reports shared_rmws_per_op: atomic RMWs issued on
//    SHARED cache lines per stamp. That is the host-independent signal —
//    on a 1-CPU/1-group box (see the host stanza) wall-clock contention
//    never materializes, so the uncontended instruction cost dominates;
//    on multi-core parts the shared-line RMW rate is what serializes.
//
//  * "bank" — the paper's §5.5 bank across all façade variants, baseline
//    config vs "scaled" (batched timebase for the scalar runtimes, sharded
//    ids everywhere), to show the options do not regress end-to-end
//    behavior where the criterion forbids exploiting them fully.
//
// CLI: --json, --threads=1,2,4 (comma list), --duration-ms=150 (bank
// cells), --skip-bank (stamp section only; CI uses the full run).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bank_harness.hpp"
#include "bench_json.hpp"
#include "timebase/batched_counter.hpp"
#include "timebase/global_counter.hpp"
#include "timebase/sharded_clock.hpp"

namespace zstm::bench {
namespace {

constexpr int kBatch = 64;
constexpr std::uint64_t kOpsPerThread = 4'000'000;

struct StampResult {
  double mops = 0;
  double shared_rmws_per_op = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
};

/// Runs `threads` workers, each performing kOpsPerThread stamp
/// acquisitions through `op(thread_index)`; `op` returns the stamp (folded
/// into a checksum so the loop cannot be optimized away).
template <typename Op>
StampResult run_stamp_loop(int threads, Op op) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {}
      std::uint64_t sum = 0;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) sum += op(t);
      checksum.fetch_add(sum, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {}
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  StampResult r;
  r.ops = kOpsPerThread * static_cast<std::uint64_t>(threads);
  r.seconds = secs;
  r.mops = static_cast<double>(r.ops) / secs / 1e6;
  // Keep the checksum observable.
  if (checksum.load() == 0) std::fprintf(stderr, "checksum zero?\n");
  return r;
}

std::vector<int> parse_threads(int argc, char** argv) {
  std::vector<int> out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const char* p = argv[i] + 10;
      while (*p != '\0') {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) out.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }
  if (out.empty()) out = {1, 2, 4};
  return out;
}

int parse_duration_ms(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--duration-ms=", 14) == 0) {
      const int v = std::atoi(argv[i] + 14);
      if (v > 0) return v;
    }
  }
  return 150;
}

bool flag_present(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int run(int argc, char** argv) {
  const bool json = benchjson::json_requested(argc, argv);
  const std::vector<int> thread_counts = parse_threads(argc, argv);
  const int bank_ms = parse_duration_ms(argc, argv);
  const bool skip_bank = flag_present(argc, argv, "--skip-bank");
  benchjson::Doc doc("clock_scale");

  std::printf("Commit-timebase scalability (stamp acquisition)\n");
  std::printf("%8s %-12s %10s %8s %20s\n", "threads", "timebase", "Mops/s",
              "ops", "shared RMWs per op");

  for (int threads : thread_counts) {
    // --- global: one fetch_add on THE shared line per stamp.
    {
      timebase::GlobalCounter gc;
      StampResult r =
          run_stamp_loop(threads, [&](int) { return gc.acquire_commit_time(); });
      r.shared_rmws_per_op = 1.0;
      std::printf("%8d %-12s %10.1f %8llu %20.4f\n", threads, "global", r.mops,
                  static_cast<unsigned long long>(r.ops), r.shared_rmws_per_op);
      doc.row()
          .str("section", "stamp")
          .str("timebase", "global")
          .num("threads", threads)
          .num("batch", 0)
          .num("shards", 0)
          .num("ops", r.ops)
          .num("seconds", r.seconds)
          .num("mops", r.mops)
          .num("shared_rmws_per_op", r.shared_rmws_per_op);
    }
    // --- batched: one CAS on the slot's OWN line per stamp; the SHARED
    // block counter is touched once per k stamps. provisioned()/k counts
    // exactly those shared fetch_adds.
    {
      timebase::BatchedCounter bc(threads, kBatch);
      StampResult r =
          run_stamp_loop(threads, [&](int t) { return bc.acquire(t); });
      const double shared_rmws =
          static_cast<double>(bc.provisioned()) / kBatch;
      r.shared_rmws_per_op = shared_rmws / static_cast<double>(r.ops);
      std::printf("%8d %-12s %10.1f %8llu %20.4f\n", threads, "batched",
                  r.mops, static_cast<unsigned long long>(r.ops),
                  r.shared_rmws_per_op);
      doc.row()
          .str("section", "stamp")
          .str("timebase", "batched")
          .num("threads", threads)
          .num("batch", kBatch)
          .num("shards", 0)
          .num("ops", r.ops)
          .num("seconds", r.seconds)
          .num("mops", r.mops)
          .num("shared_rmws_per_op", r.shared_rmws_per_op);
    }
    // --- sharded (exclusive): single-writer lane per thread — no atomic
    // RMW anywhere, no shared line ever written by two threads.
    {
      timebase::ShardedClock clk(threads, threads);
      StampResult r =
          run_stamp_loop(threads, [&](int t) { return clk.tick(t).tick; });
      r.shared_rmws_per_op = 0.0;
      std::printf("%8d %-12s %10.1f %8llu %20.4f\n", threads, "sharded",
                  r.mops, static_cast<unsigned long long>(r.ops),
                  r.shared_rmws_per_op);
      doc.row()
          .str("section", "stamp")
          .str("timebase", "sharded")
          .num("threads", threads)
          .num("batch", 0)
          .num("shards", clk.shards())
          .num("ops", r.ops)
          .num("seconds", r.seconds)
          .num("mops", r.mops)
          .num("shared_rmws_per_op", r.shared_rmws_per_op);
    }
  }

  if (!skip_bank) {
    std::printf("\nBank end-to-end, baseline vs scaled timebase options\n");
    std::printf("%8s %-10s %-9s %14s %14s\n", "threads", "system", "config",
                "transfer/s", "compute-tot/s");
    for (int threads : thread_counts) {
      BankParams p;
      p.threads = threads;
      p.duration = std::chrono::milliseconds(bank_ms);
      for (const std::string& name : api::variant_names()) {
        for (const bool scaled : {false, true}) {
          api::CommonConfig cfg = bank_config(p);
          if (scaled) {
            cfg.time_base = timebase::TimeBaseKind::kBatchedCounter;
            cfg.timebase_batch = kBatch;
            cfg.sharded_tx_ids = true;
          } else {
            cfg.sharded_tx_ids = false;  // pre-§10 behavior end to end
          }
          long conserved = 0;
          const BankResult b = api::visit_variant(
              name, cfg,
              [&](auto tag, const char*, const api::CommonConfig& c) {
                using S = typename decltype(tag)::type;
                return run_stm_bank(S(c), p, &conserved);
              });
          if (conserved != static_cast<long>(p.accounts) * 1000L) {
            std::fprintf(stderr, "conservation violated: %s\n", name.c_str());
            return 1;
          }
          const char* label = scaled ? "scaled" : "baseline";
          std::printf("%8d %-10s %-9s %14.0f %14.1f\n", threads, name.c_str(),
                      label, b.transfer_per_s, b.compute_total_per_s);
          doc.row()
              .str("section", "bank")
              .str("system", name)
              .str("config", label)
              .num("threads", threads)
              .num("batch", scaled ? kBatch : 0)
              .num("shards", 0)
              .num("transfer_per_s", b.transfer_per_s)
              .num("compute_total_per_s", b.compute_total_per_s)
              .num("compute_total_failures", b.compute_total_failures);
        }
      }
    }
  }

  if (json && !doc.write()) return 1;
  return 0;
}

}  // namespace
}  // namespace zstm::bench

int main(int argc, char** argv) { return zstm::bench::run(argc, argv); }
