//===- tests/FlatMapTest.cpp - FlatMap properties ----------------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// Property suite for the swiss-table FlatMap on the detector's hot path:
/// model-checked against std::unordered_map through randomized
/// insert/find/erase interleavings, collision chains, tombstone-avoiding
/// erase, rehash behavior, control-byte invariants, group wraparound, and
/// a SIMD-vs-scalar probe differential.
///
//===----------------------------------------------------------------------===//

#include "support/FlatMap.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

using namespace crd;

namespace {

TEST(FlatMapTest, BasicInsertFindErase) {
  FlatMap<int, std::string> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(1), nullptr);

  M[1] = "one";
  M[2] = "two";
  EXPECT_EQ(M.size(), 2u);
  ASSERT_NE(M.find(1), nullptr);
  EXPECT_EQ(*M.find(1), "one");
  EXPECT_TRUE(M.contains(2));
  EXPECT_FALSE(M.contains(3));

  auto [Slot, Inserted] = M.tryEmplace(1);
  EXPECT_FALSE(Inserted);
  EXPECT_EQ(*Slot, "one");

  EXPECT_TRUE(M.erase(1));
  EXPECT_FALSE(M.erase(1));
  EXPECT_EQ(M.find(1), nullptr);
  EXPECT_EQ(M.size(), 1u);
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomInterleavings) {
  std::mt19937_64 Rng(2014);
  FlatMap<uint32_t, uint64_t> M;
  std::unordered_map<uint32_t, uint64_t> Model;
  for (unsigned Step = 0; Step != 200000; ++Step) {
    uint32_t Key = static_cast<uint32_t>(Rng() % 512);
    switch (Rng() % 4) {
    case 0:
    case 1: { // Insert-or-assign.
      uint64_t V = Rng();
      M[Key] = V;
      Model[Key] = V;
      break;
    }
    case 2: { // Lookup.
      uint64_t *Found = M.find(Key);
      auto It = Model.find(Key);
      ASSERT_EQ(Found != nullptr, It != Model.end()) << "key " << Key;
      if (Found) {
        ASSERT_EQ(*Found, It->second) << "key " << Key;
      }
      break;
    }
    case 3: // Erase.
      ASSERT_EQ(M.erase(Key), Model.erase(Key) != 0) << "key " << Key;
      break;
    }
    ASSERT_EQ(M.size(), Model.size());
  }
  // Full-content check via iteration.
  size_t Visited = 0;
  for (const auto &[K, V] : M) {
    auto It = Model.find(K);
    ASSERT_NE(It, Model.end());
    EXPECT_EQ(V, It->second);
    ++Visited;
  }
  EXPECT_EQ(Visited, Model.size());
}

/// Forces every key into the same home slot AND the same 7-bit control
/// fragment, turning the table into one long probe chain where every
/// group match is a false positive — the worst case for the control-byte
/// filter.
struct CollidingHash {
  size_t operator()(uint32_t) const { return 42; }
};

TEST(FlatMapTest, CollidingKeysStillBehave) {
  FlatMap<uint32_t, uint32_t, CollidingHash> M;
  for (uint32_t K = 0; K != 64; ++K)
    M[K] = K * 10;
  EXPECT_EQ(M.size(), 64u);
  for (uint32_t K = 0; K != 64; ++K) {
    ASSERT_NE(M.find(K), nullptr) << "key " << K;
    EXPECT_EQ(*M.find(K), K * 10);
  }
  // Erase from the middle of the chain: whether a slot becomes a
  // tombstone or re-empties, every remaining key must stay reachable.
  for (uint32_t K = 0; K != 64; K += 2)
    EXPECT_TRUE(M.erase(K));
  for (uint32_t K = 0; K != 64; ++K)
    EXPECT_EQ(M.find(K) != nullptr, K % 2 == 1) << "key " << K;
}

TEST(FlatMapTest, EraseIsTombstoneFree) {
  // Insert/erase cycling at a fixed live size must not grow the table:
  // the "was never full" erase re-empties slots whose probe window still
  // has empties, so churn at moderate load never accretes tombstones and
  // the load factor the growth policy sees stays at the live count.
  FlatMap<uint64_t, uint64_t> M;
  for (uint64_t K = 0; K != 8; ++K)
    M[K] = K;
  size_t CapAfterWarmup = M.capacity();
  for (uint64_t Round = 0; Round != 10000; ++Round) {
    uint64_t Key = 8 + Round;
    M[Key] = Round;
    EXPECT_TRUE(M.erase(Key));
  }
  EXPECT_EQ(M.size(), 8u);
  EXPECT_EQ(M.capacity(), CapAfterWarmup)
      << "erase left tombstones that forced growth";
}

TEST(FlatMapTest, RehashPreservesContents) {
  FlatMap<uint32_t, uint32_t> M;
  size_t Rehashes = 0;
  size_t LastCap = M.capacity();
  for (uint32_t K = 0; K != 10000; ++K) {
    M[K] = ~K;
    if (M.capacity() != LastCap) {
      ++Rehashes;
      LastCap = M.capacity();
    }
  }
  EXPECT_GE(Rehashes, 8u); // 16 → ≥4096 takes ≥8 doublings.
  for (uint32_t K = 0; K != 10000; ++K) {
    ASSERT_NE(M.find(K), nullptr) << "key " << K << " lost in rehash";
    EXPECT_EQ(*M.find(K), ~K);
  }
}

TEST(FlatMapTest, ReserveAvoidsRehash) {
  // reserve() pre-sizes so the insertion run never rehashes. (Entries only
  // move on rehash in the swiss layout, but any unreserved insertion may
  // rehash, which is why the engine holds pointer-stable state behind
  // unique_ptr.)
  FlatMap<uint32_t, uint32_t> M;
  M.reserve(1000);
  size_t Cap = M.capacity();
  for (uint32_t K = 0; K != 1000; ++K)
    M[K] = K;
  EXPECT_EQ(M.capacity(), Cap) << "reserve(1000) did not pre-size";
  for (uint32_t K = 0; K != 1000; ++K) {
    ASSERT_NE(M.find(K), nullptr);
    EXPECT_EQ(*M.find(K), K);
  }
}

TEST(FlatMapTest, IteratorSurvivesEraseOfVisitedKeys) {
  // The engine pattern: iterate, then erase what was visited. Collect
  // first (iteration order is unspecified), erase after.
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t K = 0; K != 100; ++K)
    M[K] = K;
  std::vector<uint32_t> Keys;
  for (const auto &[K, V] : M)
    Keys.push_back(K);
  EXPECT_EQ(Keys.size(), 100u);
  for (uint32_t K : Keys)
    EXPECT_TRUE(M.erase(K));
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.begin(), M.end());
}

TEST(FlatMapTest, MoveOnlyValues) {
  FlatMap<uint32_t, std::unique_ptr<uint32_t>> M;
  for (uint32_t K = 0; K != 100; ++K)
    M[K] = std::make_unique<uint32_t>(K);
  EXPECT_EQ(M.size(), 100u);
  for (uint32_t K = 0; K != 100; ++K) {
    ASSERT_NE(M.find(K), nullptr);
    EXPECT_EQ(**M.find(K), K);
  }
  EXPECT_TRUE(M.erase(50));
  EXPECT_EQ(M.find(50), nullptr);
  M.clear();
  EXPECT_TRUE(M.empty());
}

TEST(FlatMapTest, ClearRetainsCapacity) {
  FlatMap<uint32_t, uint32_t> M;
  for (uint32_t K = 0; K != 1000; ++K)
    M[K] = K;
  size_t Cap = M.capacity();
  M.clear();
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.capacity(), Cap);
  M[7] = 7;
  EXPECT_EQ(M.size(), 1u);
}

TEST(FlatMapTest, ControlBytesMatchFragmentsAfterRehash) {
  // Drive the table through every rehash trigger — growth doublings, the
  // in-place tombstone purge, and clear-then-refill — and verify the
  // swiss-table invariants each time: every occupied control byte holds
  // its key's 7-bit fragment, the cloned tail mirrors the head, and every
  // key is reachable through both the SIMD and scalar probe paths.
  FlatMap<uint32_t, uint32_t> M;
  ASSERT_TRUE(M.verifyControlInvariants());
  size_t LastCap = M.capacity();
  for (uint32_t K = 0; K != 5000; ++K) {
    M[K] = K ^ 0xabcd;
    if (M.capacity() != LastCap) {
      LastCap = M.capacity();
      ASSERT_TRUE(M.verifyControlInvariants()) << "after growth to " << LastCap;
    }
  }
  ASSERT_TRUE(M.verifyControlInvariants());
  // Erase most keys, then churn until a tombstone purge rehashes in place.
  for (uint32_t K = 0; K != 5000; ++K) {
    if (K % 8 != 0) {
      ASSERT_TRUE(M.erase(K));
    }
  }
  for (uint32_t K = 5000; K != 30000; ++K) {
    M[K] = K;
    ASSERT_TRUE(M.erase(K));
  }
  EXPECT_TRUE(M.verifyControlInvariants());
  M.clear();
  EXPECT_TRUE(M.verifyControlInvariants());
  M[3] = 9;
  EXPECT_TRUE(M.verifyControlInvariants());
}

/// Identity hash: the key IS the pre-mix hash, so tests can pick keys
/// whose post-mix home slot lands anywhere they like.
struct IdentityHash {
  size_t operator()(uint64_t K) const { return K; }
};

TEST(FlatMapTest, GroupBoundaryWraparoundProbing) {
  // Pin the capacity at 16 (one group covers the whole table) and insert
  // only keys whose home slot is in the last group-width bytes, so every
  // probe window runs off the end of the control array and reads the
  // cloned tail. Finds, erases, and reinserts must all agree across the
  // wraparound.
  FlatMap<uint64_t, uint32_t, IdentityHash> M;
  M.reserve(8);
  ASSERT_EQ(M.capacity(), 16u);
  std::vector<uint64_t> Keys;
  for (uint64_t Seed = 0; Keys.size() != 10; ++Seed)
    if ((hashMix64(Seed) & 15) >= 12) // Home slot in the last 4 bytes.
      Keys.push_back(Seed);
  for (size_t I = 0; I != Keys.size(); ++I)
    M[Keys[I]] = static_cast<uint32_t>(I);
  ASSERT_EQ(M.capacity(), 16u) << "10 keys must fit the 7/8 load of 16";
  ASSERT_TRUE(M.verifyControlInvariants());
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_NE(M.find(Keys[I]), nullptr) << "key " << Keys[I];
    EXPECT_EQ(*M.find(Keys[I]), I);
    ASSERT_EQ(M.findScalar(Keys[I]), M.find(Keys[I]));
  }
  // Erase every other key across the boundary, then verify the rest are
  // still reachable and the erased ones are not.
  for (size_t I = 0; I < Keys.size(); I += 2)
    EXPECT_TRUE(M.erase(Keys[I]));
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(M.find(Keys[I]) != nullptr, I % 2 == 1) << "key " << Keys[I];
  EXPECT_TRUE(M.verifyControlInvariants());
  for (size_t I = 0; I < Keys.size(); I += 2)
    M[Keys[I]] = static_cast<uint32_t>(I + 100);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_NE(M.find(Keys[I]), nullptr) << "key " << Keys[I];
  EXPECT_TRUE(M.verifyControlInvariants());
}

TEST(FlatMapTest, EraseReinsertChurnAtHighLoadFactor) {
  // Hold the table within a few slots of max load and churn erase/insert
  // pairs. At this load most erases must leave tombstones (their probe
  // windows are full), so the churn exercises tombstone reuse on insert
  // and the in-place purge rehash when the growth budget runs out —
  // without the capacity running away.
  FlatMap<uint32_t, uint32_t> M;
  std::unordered_map<uint32_t, uint32_t> Model;
  M.reserve(110);
  ASSERT_EQ(M.capacity(), 128u);
  for (uint32_t K = 0; K != 110; ++K) { // maxLoad(128) = 112.
    M[K] = K;
    Model[K] = K;
  }
  ASSERT_EQ(M.capacity(), 128u);
  std::mt19937_64 Rng(4242);
  for (uint32_t Round = 0; Round != 20000; ++Round) {
    uint32_t Victim = static_cast<uint32_t>(Rng() % Model.size());
    auto It = Model.begin();
    std::advance(It, Victim);
    uint32_t Key = It->first;
    ASSERT_TRUE(M.erase(Key));
    Model.erase(It);
    uint32_t Fresh = 110 + Round;
    M[Fresh] = Fresh;
    Model[Fresh] = Fresh;
    ASSERT_EQ(M.size(), Model.size());
  }
  // Live count never exceeded 110, so growth rehashes at most double once
  // before the purge policy (live*2 <= capacity) takes over.
  EXPECT_LE(M.capacity(), 256u) << "tombstone churn grew the table unboundedly";
  EXPECT_TRUE(M.verifyControlInvariants());
  for (const auto &[K, V] : Model) {
    ASSERT_NE(M.find(K), nullptr) << "key " << K;
    EXPECT_EQ(*M.find(K), V);
  }
}

TEST(FlatMapTest, SimdAndScalarProbePathsAgree) {
  // Differential check: on the same table state, find() (SIMD when the
  // build has SSE2) and findScalar() must return the same slot for hits
  // and the same nullptr for misses — across normal keys, a fully
  // colliding table, and a churned table with tombstones.
  std::mt19937_64 Rng(77);
  FlatMap<uint64_t, uint64_t> M;
  std::vector<uint64_t> Inserted;
  for (unsigned Step = 0; Step != 30000; ++Step) {
    uint64_t K = Rng() % 4096;
    switch (Rng() % 3) {
    case 0:
      M[K] = Step;
      Inserted.push_back(K);
      break;
    case 1:
      M.erase(K);
      break;
    case 2: {
      const uint64_t *Simd = M.find(K);
      ASSERT_EQ(Simd, M.findScalar(K)) << "key " << K;
      break;
    }
    }
  }
  for (uint64_t K = 0; K != 4096; ++K)
    ASSERT_EQ(M.find(K), M.findScalar(K)) << "key " << K;

  FlatMap<uint32_t, uint32_t, CollidingHash> C;
  for (uint32_t K = 0; K != 48; ++K)
    C[K] = K;
  for (uint32_t K = 0; K != 48; K += 3)
    C.erase(K);
  for (uint32_t K = 0; K != 96; ++K)
    ASSERT_EQ(C.find(K), C.findScalar(K)) << "colliding key " << K;
}

} // namespace
