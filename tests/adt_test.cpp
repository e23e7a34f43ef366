// adt::TMap / adt::TSet unit tests: sequential semantics over a typed
// façade and over AnyStm for every variant name, a seeded model test that
// drives every inline-head branch, plus a small concurrent invariant run
// (the heavy service-level battery lives in kv_server_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adt/tmap.hpp"
#include "api/stm_api.hpp"
#include "util/rng.hpp"

namespace {

using zstm::api::AnyStm;
using zstm::api::CommonConfig;
using zstm::api::TxKind;

template <typename S>
void sequential_map_checks(S& stm) {
  zstm::adt::TMap<S> map(stm, 8);

  // Insert + lookup + overwrite.
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; ++k) {
      EXPECT_TRUE(map.put(tx, k, static_cast<std::int64_t>(k * 10)));
    }
  });
  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; ++k) {
      auto v = map.get(tx, k);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, static_cast<std::int64_t>(k * 10));
    }
    EXPECT_FALSE(map.get(tx, 100).has_value());
  });
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    EXPECT_FALSE(map.put(tx, 7, -1));  // overwrite, not insert
  });

  // Erase half, audit the rest.
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    for (std::uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(map.erase(tx, k));
    EXPECT_FALSE(map.erase(tx, 0));  // already gone
  });
  stm.run(TxKind::kLong, [&](auto& tx) {
    auto a = map.audit(tx);
    EXPECT_EQ(a.size, 50u);
    EXPECT_TRUE(a.sorted);
    std::set<std::uint64_t> seen;
    map.for_each(tx, [&](std::uint64_t k, std::int64_t v) {
      seen.insert(k);
      EXPECT_EQ(k % 2, 1u);
      EXPECT_EQ(v, k == 7 ? -1 : static_cast<std::int64_t>(k * 10));
    });
    EXPECT_EQ(seen.size(), 50u);
  });
}

TEST(Adt, SequentialMapTypedFacade) {
  zstm::api::LsaStm stm;
  sequential_map_checks(stm);
}

TEST(Adt, SequentialMapEveryVariant) {
  for (const std::string& name : zstm::api::variant_names()) {
    SCOPED_TRACE(name);
    AnyStm stm = AnyStm::make(name);
    sequential_map_checks(stm);
  }
}

TEST(Adt, InsertScratchReusedAcrossRetries) {
  // A body that deliberately aborts once must not leak one node per
  // attempt when given a scratch: the retry writes the same node. The
  // one-bucket map already holds a larger key, so inserting 42 moves the
  // head entry into a node (an insert into an empty head allocates none).
  using Map = zstm::adt::TMap<AnyStm>;
  AnyStm stm = AnyStm::make("lsa");
  Map map(stm, 1);
  stm.run(TxKind::kUpdate, [&](auto& tx) { EXPECT_TRUE(map.put(tx, 100, 5)); });
  Map::Scratch scratch;
  Map::NodeVar first_node{};
  int attempts = 0;
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    ++attempts;
    const bool inserted = map.put(tx, 42, 1, &scratch);
    EXPECT_TRUE(inserted);
    ASSERT_TRUE(scratch.allocated);
    if (attempts == 1) {
      first_node = scratch.node;
      tx.abort();
    }
    EXPECT_EQ(std::memcmp(&first_node, &scratch.node, sizeof first_node), 0)
        << "retry allocated a second node";
  });
  EXPECT_GE(attempts, 2);
  stm.run(TxKind::kReadOnly, [&](auto& tx) {
    EXPECT_EQ(map.get(tx, 42).value_or(-1), 1);
    EXPECT_EQ(map.get(tx, 100).value_or(-1), 5);
  });
  stm.run(TxKind::kLong, [&](auto& tx) {
    const auto a = map.audit(tx);
    EXPECT_EQ(a.size, 2u);
    EXPECT_TRUE(a.sorted);
  });
}

/// How often model_checks hit each head-layout branch (counted on
/// one-bucket maps, where the model knows which key heads the bucket).
struct LayoutHits {
  int insert_empty_head = 0;
  int insert_below_head = 0;
  int erase_head_with_successor = 0;
  int erase_head_alone = 0;
  int reinsert_after_empty = 0;
};

/// Seeded random put/erase/get against std::map, on a map small enough
/// that every head-layout branch is hit.
template <typename S>
LayoutHits model_checks(S& stm, std::size_t buckets, std::uint64_t seed) {
  using Map = zstm::adt::TMap<S>;
  Map map(stm, buckets);
  std::map<std::uint64_t, std::int64_t> model;
  const bool one_bucket = buckets == 1;
  bool emptied = false;
  LayoutHits hits;
  zstm::util::Xorshift rng(seed);
  for (int op = 0; op < 800; ++op) {
    // Alternate fill and drain phases so buckets both grow long chains and
    // empty out again.
    const bool filling = (op / 100) % 2 == 0;
    const std::uint64_t key = rng.next_below(10);
    const auto value = static_cast<std::int64_t>(rng.next_below(1000));
    const std::uint64_t choice = rng.next_below(10);
    if (choice < (filling ? 6u : 2u)) {
      if (one_bucket && model.count(key) == 0) {
        if (model.empty()) {
          ++hits.insert_empty_head;
          if (emptied) ++hits.reinsert_after_empty;
        } else if (key < model.begin()->first) {
          ++hits.insert_below_head;
        }
      }
      typename Map::Scratch scratch;
      bool inserted = false;
      stm.run(TxKind::kUpdate, [&](auto& tx) {
        inserted = map.put(tx, key, value, &scratch);
      });
      EXPECT_EQ(inserted, model.count(key) == 0) << "put " << key;
      model[key] = value;
    } else if (choice < 8) {  // erase: 2 in 10 filling, 6 in 10 draining
      if (one_bucket && !model.empty() && model.begin()->first == key) {
        if (model.size() > 1) {
          ++hits.erase_head_with_successor;
        } else {
          ++hits.erase_head_alone;
          emptied = true;
        }
      }
      bool erased = false;
      stm.run(TxKind::kUpdate, [&](auto& tx) { erased = map.erase(tx, key); });
      EXPECT_EQ(erased, model.erase(key) == 1) << "erase " << key;
    } else {
      std::optional<std::int64_t> got;
      stm.run(TxKind::kReadOnly, [&](auto& tx) { got = map.get(tx, key); });
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << "get " << key;
      } else {
        EXPECT_EQ(got.value_or(-1), it->second) << "get " << key;
      }
    }
    if (op % 25 == 0) {
      std::map<std::uint64_t, std::int64_t> seen;
      typename Map::AuditResult a;
      stm.run(TxKind::kLong, [&](auto& tx) {
        seen.clear();
        map.for_each(tx, [&](std::uint64_t k, std::int64_t v) {
          EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
        });
        a = map.audit(tx);
      });
      EXPECT_EQ(seen, model);
      EXPECT_EQ(a.size, model.size());
      EXPECT_TRUE(a.sorted);
    }
  }
  return hits;
}

TEST(Adt, RandomizedModelEveryVariant) {
  for (const std::string& name : zstm::api::variant_names()) {
    for (const std::size_t buckets : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(name + " buckets=" + std::to_string(buckets));
      AnyStm stm = AnyStm::make(name);
      const LayoutHits hits = model_checks(stm, buckets, 0x5eed + buckets);
      if (buckets == 1) {
        EXPECT_GT(hits.insert_empty_head, 0);
        EXPECT_GT(hits.insert_below_head, 0);
        EXPECT_GT(hits.erase_head_with_successor, 0);
        EXPECT_GT(hits.erase_head_alone, 0);
        EXPECT_GT(hits.reinsert_after_empty, 0);
      }
    }
  }
}

TEST(Adt, SetSemantics) {
  AnyStm stm = AnyStm::make("zl");
  zstm::adt::TSet<AnyStm> set(stm, 4);
  stm.run(TxKind::kUpdate, [&](auto& tx) {
    EXPECT_TRUE(set.insert(tx, 3));
    EXPECT_TRUE(set.insert(tx, 1));
    EXPECT_FALSE(set.insert(tx, 3));  // duplicate
    EXPECT_TRUE(set.contains(tx, 1));
    EXPECT_FALSE(set.contains(tx, 2));
    EXPECT_TRUE(set.erase(tx, 1));
    EXPECT_FALSE(set.erase(tx, 1));
  });
  stm.run(TxKind::kLong, [&](auto& tx) {
    auto a = set.audit(tx);
    EXPECT_EQ(a.size, 1u);
    EXPECT_TRUE(a.sorted);
  });
}

TEST(Adt, ConcurrentNetInsertsMatchSize) {
  // 4 mutator threads over a small keyrange. Exercises bucket-level
  // conflicts, including racing head moves and pull-ups, on every variant.
  // The final audited size must equal the net successful inserts wherever
  // the criterion is a serializability one. Causal serializability lets two
  // concurrent inserts of one key both see it absent (each thread's order
  // need only include the other's writes), so for cs-vc/cs-r only the
  // structure is checked: sorted, every key in range, size == visited.
  for (const std::string& name : zstm::api::variant_names()) {
    SCOPED_TRACE(name);
    const bool causal = name == "cs-vc" || name == "cs-r";
    AnyStm stm = AnyStm::make(name);
    zstm::adt::TSet<AnyStm> set(stm, 8);
    constexpr int kThreads = 4;
    constexpr int kOpsPerThread = 400;
    std::atomic<long> net{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        zstm::util::Xorshift rng(static_cast<std::uint64_t>(t) + 99);
        long my_net = 0;
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t key = rng.next_below(64);
          if (rng.chance(0.5)) {
            bool ins = false;
            zstm::adt::TSet<AnyStm>::Scratch scratch;
            stm.run(TxKind::kUpdate,
                    [&](auto& tx) { ins = set.insert(tx, key, &scratch); });
            my_net += ins ? 1 : 0;
          } else {
            bool rm = false;
            stm.run(TxKind::kUpdate,
                    [&](auto& tx) { rm = set.erase(tx, key); });
            my_net -= rm ? 1 : 0;
          }
        }
        net.fetch_add(my_net);
      });
    }
    for (auto& w : workers) w.join();
    zstm::adt::TSet<AnyStm>::AuditResult a;
    std::set<std::uint64_t> seen;
    stm.run(TxKind::kLong, [&](auto& tx) {
      a = set.audit(tx);
      seen.clear();
      set.for_each(tx, [&](std::uint64_t k) { seen.insert(k); });
    });
    EXPECT_TRUE(a.sorted);
    EXPECT_EQ(a.size, seen.size());
    if (!seen.empty()) {
      EXPECT_LT(*seen.rbegin(), 64u);
    }
    if (!causal) {
      EXPECT_EQ(static_cast<long>(a.size), net.load());
    }
  }
}

}  // namespace
