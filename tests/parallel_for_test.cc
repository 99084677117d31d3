#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace poe {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  int64_t sum = 0;  // no synchronization: must run on the calling thread
  ParallelFor(
      100, [&](int64_t begin, int64_t end) { sum += end - begin; },
      /*min_chunk=*/1024);
  EXPECT_EQ(sum, 100);
}

TEST(ParallelForTest, ZeroAndNegativeAreNoops) {
  bool called = false;
  ParallelFor(0, [&](int64_t, int64_t) { called = true; });
  ParallelFor(-5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ComputesParallelSum) {
  const int64_t n = 1 << 20;
  std::vector<int64_t> data(n);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<int64_t> total{0};
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += data[i];
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

TEST(ParallelForTest, RepeatedInvocationsAreStable) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> count{0};
    ParallelFor(
        5000, [&](int64_t begin, int64_t end) { count += end - begin; },
        /*min_chunk=*/16);
    ASSERT_EQ(count.load(), 5000);
  }
}

// Many threads share one pool: each caller's job must run its own body
// over its own range, every index exactly once, and nothing may hang.
// Caller t covers a range of its own length with a body that writes t + 1,
// so a chunk run with another caller's body or bounds shows as a wrong or
// missing count.
TEST(ParallelForTest, ConcurrentCallersEachCoverTheirOwnRangeOnce) {
  constexpr int kCallers = 8;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([t, &failures] {
      const int64_t n = 2000 + 97 * t;
      std::vector<std::atomic<int>> hits(n);
      for (int round = 0; round < kRounds; ++round) {
        for (auto& h : hits) h.store(0);
        ParallelFor(
            n,
            [&](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(t + 1);
            },
            /*min_chunk=*/16);
        for (const auto& h : hits) {
          if (h.load() != t + 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(failures.load(), 0);
}

// A ParallelFor issued from inside a running chunk (on a worker or on the
// caller) runs inline instead of waiting for the pool its own job holds.
TEST(ParallelForTest, NestedCallRunsToCompletion) {
  constexpr int64_t kOuter = 64, kInner = 4096;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(
      kOuter,
      [&](int64_t begin, int64_t end) {
        for (int64_t o = begin; o < end; ++o) {
          ParallelFor(
              kInner,
              [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i) {
                  hits[o * kInner + i].fetch_add(1);
                }
              },
              /*min_chunk=*/16);
        }
      },
      /*min_chunk=*/1);
  for (int64_t i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, NumThreadsIsPositive) {
  EXPECT_GE(NumThreads(), 1);
}

}  // namespace
}  // namespace poe
