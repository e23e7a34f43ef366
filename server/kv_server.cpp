// kv_server — the STM-backed KV service under open-loop load (DESIGN.md
// §12): for each requested runtime variant, stand the service up, preload
// the keyspace, drive a paced Zipfian request mix at a fixed arrival rate,
// and print throughput plus the latency tail (p50/p99/p999, measured from
// scheduled arrival, so queueing delay is in the numbers).
//
//   ./kv_server [--variants=lsa,zl,...] [--rate=2000] [--duration-ms=1000]
//               [--workers=2] [--keys=4096] [--zipf=0.99]
//               [--put=0.15] [--del=0.02] [--multi=0.05] [--scan=0.01]
//               [--transfer=0.07] [--multi-fanout=16] [--queue=16384]
//               [--seed=1]
//
// The pacer sleeps to its schedule, so the printed latencies include the
// pacer's oversleep: this binary is a runnable smoke load, not a
// measurement. The KV measurement rail is kvbench (kvbench/README.md),
// which spin-paces, checks every answer, and also covers the TCP front end.
//
// A malformed or out-of-range flag value exits 2 with a message. Exit
// status is 1 if any variant completes zero requests.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "server/kv_service.hpp"
#include "server/load_gen.hpp"

namespace {

using namespace zstm;

struct Args {
  std::vector<std::string> variants;
  int rate = 2000;
  int duration_ms = 1000;
  int workers = 2;
  std::uint64_t keys = 4096;
  double zipf = 0.99;
  server::LoadMix mix;
  std::uint32_t multi_fanout = 16;
  std::size_t queue = 1 << 14;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage_error(const std::string& flag, const char* value,
                              const char* expected) {
  std::fprintf(stderr, "kv_server: %s=%s: expected %s\n", flag.c_str(), value,
               expected);
  std::exit(2);
}

/// A decimal integer in [lo, hi]; anything else exits 2.
std::uint64_t parse_uint(const std::string& flag, const char* v,
                         std::uint64_t lo, std::uint64_t hi,
                         const char* expected) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t x = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE || x < lo ||
      x > hi) {
    usage_error(flag, v, expected);
  }
  return x;
}

/// A real number in [0, 1]; anything else (NaN included) exits 2.
double parse_fraction(const std::string& flag, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x >= 0.0 && x <= 1.0)) {
    usage_error(flag, v, "a number in [0, 1]");
  }
  return x;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += *p;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Args parse_args(int argc, char** argv) {
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr const char* kPositive = "a positive integer";
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const char* v = eq != std::string::npos ? argv[i] + eq + 1 : "";
    if (flag == "--variants") {
      a.variants = split_csv(v);
      for (const std::string& name : a.variants) {
        if (std::ranges::find(api::variant_names(), name) ==
            api::variant_names().end()) {
          usage_error(flag, v, "known variant names");
        }
      }
    } else if (flag == "--rate") {
      a.rate = static_cast<int>(parse_uint(flag, v, 1, kIntMax, kPositive));
    } else if (flag == "--duration-ms") {
      a.duration_ms =
          static_cast<int>(parse_uint(flag, v, 1, kIntMax, kPositive));
    } else if (flag == "--workers") {
      a.workers = static_cast<int>(parse_uint(flag, v, 1, 64, "1 to 64"));
    } else if (flag == "--keys") {
      a.keys = parse_uint(flag, v, 1, kU64Max, kPositive);
    } else if (flag == "--zipf") {
      a.zipf = parse_fraction(flag, v);
    } else if (flag == "--put") {
      a.mix.put = parse_fraction(flag, v);
    } else if (flag == "--del") {
      a.mix.del = parse_fraction(flag, v);
    } else if (flag == "--multi") {
      a.mix.multi_get = parse_fraction(flag, v);
    } else if (flag == "--scan") {
      a.mix.scan = parse_fraction(flag, v);
    } else if (flag == "--transfer") {
      a.mix.transfer = parse_fraction(flag, v);
    } else if (flag == "--multi-fanout") {
      a.multi_fanout = static_cast<std::uint32_t>(
          parse_uint(flag, v, 1, kIntMax, kPositive));
    } else if (flag == "--queue") {
      a.queue = parse_uint(flag, v, 1, kIntMax, kPositive);
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v, 0, kU64Max, "an integer");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (a.variants.empty()) {
    a.variants = api::variant_names();
  }
  return a;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// One in-process run; false if it completed zero requests.
bool run_variant(const Args& args, const std::string& variant) {
  server::ServiceConfig scfg;
  scfg.variant = variant;
  scfg.workers = args.workers;
  scfg.queue_capacity = args.queue;
  scfg.buckets = 256;
  scfg.stm.max_threads = args.workers + 4;  // workers + pacer/main/hk slack

  server::LoadGenConfig lcfg;
  lcfg.rate = static_cast<double>(args.rate);
  lcfg.duration = std::chrono::milliseconds(args.duration_ms);
  lcfg.keyspace = args.keys;
  lcfg.zipf_theta = args.zipf;
  lcfg.mix = args.mix;
  lcfg.multi_fanout = args.multi_fanout;
  lcfg.seed = args.seed;

  server::KvService svc(scfg);
  svc.preload(0, args.keys, 100);

  svc.start();
  const server::LoadGenResult load = server::run_open_loop(svc, lcfg);
  svc.stop();

  server::ServiceMetrics m = svc.metrics();
  const double secs = static_cast<double>(load.elapsed_ns) / 1e9;
  const double thruput =
      secs > 0 ? static_cast<double>(m.completed) / secs : 0.0;

  std::printf("%-8s %8d %10.0f %8llu %8llu %8.1f %9.1f %9.1f %9.1f %7llu %6llu\n",
              variant.c_str(), args.rate, thruput,
              static_cast<unsigned long long>(load.accepted),
              static_cast<unsigned long long>(load.shed),
              us(m.all.quantile(0.50)), us(m.all.quantile(0.99)),
              us(m.all.quantile(0.999)), us(m.all.max()),
              static_cast<unsigned long long>(m.progress.serial_entries),
              static_cast<unsigned long long>(m.reclaimed_total));
  return m.completed > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::printf(
      "kv_server: open-loop %d req/s for %d ms, %d workers, %llu keys, "
      "zipf %.2f\n",
      args.rate, args.duration_ms, args.workers,
      static_cast<unsigned long long>(args.keys), args.zipf);
  std::printf("%-8s %8s %10s %8s %8s %8s %9s %9s %9s %7s %6s\n", "system",
              "rate", "thruput/s", "accepted", "shed", "p50us", "p99us",
              "p999us", "maxus", "serial", "trims");

  bool failed = false;
  for (const std::string& variant : args.variants) {
    if (!run_variant(args, variant)) failed = true;
  }
  if (failed) {
    std::fprintf(stderr, "kv_server: a variant completed zero requests\n");
    return 1;
  }
  return 0;
}
