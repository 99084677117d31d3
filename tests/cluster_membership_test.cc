// The pool-membership state machine and consistent-hash placement: legal
// transitions, epoch monotonicity, wholesale view adoption with the
// equal-epoch tie-break, and the placement invariants fetch routing
// relies on (determinism, distinct owners, state-independence).
#include <gtest/gtest.h>

#include <set>

#include "cluster/membership.h"
#include "cluster/placement.h"

namespace poe {
namespace {

MembershipView TwoNodeView() {
  MembershipView view;
  view.nodes.push_back({0, "127.0.0.1", 9100, NodeState::kOnline});
  view.nodes.push_back({1, "127.0.0.1", 9101, NodeState::kOnline});
  return view;
}

TEST(PoolMembershipTest, LegalTransitionsBumpTheEpoch) {
  PoolMembership membership(TwoNodeView());
  EXPECT_EQ(membership.epoch(), 1u);

  ASSERT_TRUE(membership.Transition(1, NodeState::kDraining).ok());
  EXPECT_EQ(membership.epoch(), 2u);
  ASSERT_TRUE(membership.Transition(1, NodeState::kOffline).ok());
  ASSERT_TRUE(membership.Transition(1, NodeState::kReintegrating).ok());
  ASSERT_TRUE(membership.Transition(1, NodeState::kOnline).ok());
  EXPECT_EQ(membership.epoch(), 5u);
  EXPECT_EQ(membership.transitions(), 4);
  EXPECT_EQ(membership.View().Find(1)->state, NodeState::kOnline);
}

TEST(PoolMembershipTest, IllegalTransitionsAreRejectedWithoutAnEpochBurn) {
  PoolMembership membership(TwoNodeView());

  // OFFLINE must pass through REINTEGRATING to come back.
  ASSERT_TRUE(membership.Transition(1, NodeState::kOffline).ok());
  const uint64_t epoch = membership.epoch();
  Status s = membership.Transition(1, NodeState::kOnline);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Self-transitions are not legal either (they would burn an epoch for
  // no view change).
  EXPECT_EQ(membership.Transition(1, NodeState::kOffline).code(),
            StatusCode::kFailedPrecondition);
  // Unknown nodes are a caller bug, not a precondition.
  EXPECT_EQ(membership.Transition(7, NodeState::kOffline).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(membership.epoch(), epoch);
}

TEST(PoolMembershipTest, AddNodeRejectsDuplicatesAndKeepsIdsSorted) {
  PoolMembership membership(TwoNodeView());
  ASSERT_TRUE(
      membership.AddNode({2, "127.0.0.1", 9102, NodeState::kOffline})
          .ok());
  EXPECT_EQ(membership.AddNode({2, "x", 1, NodeState::kOnline}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(membership.View().NodeIds(), (std::vector<int>{0, 1, 2}));
}

TEST(PoolMembershipTest, MergeAdoptsOnlyStrictlyNewerViews) {
  PoolMembership a(TwoNodeView());
  PoolMembership b(TwoNodeView());
  ASSERT_TRUE(b.Transition(1, NodeState::kOffline).ok());  // b at epoch 2

  // Older/equal views from a are ignored by b; b's newer view wins in a.
  EXPECT_FALSE(b.MergeView(a.View()));
  EXPECT_TRUE(a.MergeView(b.View()));
  EXPECT_EQ(a.epoch(), 2u);
  EXPECT_EQ(a.View().Find(1)->state, NodeState::kOffline);
  // Merges are not local transitions.
  EXPECT_EQ(a.transitions(), 0);
}

TEST(PoolMembershipTest, EpochZeroViewsAreProbesAndNeverAdopted) {
  PoolMembership membership(TwoNodeView());
  MembershipView probe;  // epoch 0, no nodes
  EXPECT_FALSE(membership.MergeView(probe));
  EXPECT_EQ(membership.View().nodes.size(), 2u);
}

TEST(PoolMembershipTest, EqualEpochDivergenceConvergesByFingerprint) {
  // Two nodes transition concurrently: same epoch, different content.
  PoolMembership a(TwoNodeView());
  PoolMembership b(TwoNodeView());
  ASSERT_TRUE(a.Transition(0, NodeState::kDraining).ok());
  ASSERT_TRUE(b.Transition(1, NodeState::kDraining).ok());
  ASSERT_EQ(a.epoch(), b.epoch());
  ASSERT_NE(a.View().Fingerprint(), b.View().Fingerprint());

  // Exactly one side adopts (the one holding the larger fingerprint), so
  // one gossip exchange converges both on the same view.
  const MembershipView view_a = a.View();
  const MembershipView view_b = b.View();
  const bool a_adopted = a.MergeView(view_b);
  const bool b_adopted = b.MergeView(view_a);
  EXPECT_NE(a_adopted, b_adopted);
  EXPECT_EQ(a.View().Fingerprint(), b.View().Fingerprint());
}

TEST(PlacementTest, DeterministicDistinctOwnersRegardlessOfInputOrder) {
  const PlacementConfig config;  // replication = 2
  for (int expert = 0; expert < 32; ++expert) {
    const auto owners = ExpertOwners(expert, {0, 1, 2}, config);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
    // Node-id order must not matter: the ring position of a node depends
    // only on its id.
    EXPECT_EQ(owners, ExpertOwners(expert, {2, 0, 1}, config));
    EXPECT_EQ(owners, ExpertOwners(expert, {0, 1, 2}, config));
  }
}

TEST(PlacementTest, ReplicationIsClampedToThePoolSize) {
  PlacementConfig config;
  config.replication = 5;
  const auto owners = ExpertOwners(3, {0, 1}, config);
  EXPECT_EQ(owners.size(), 2u);
  EXPECT_TRUE(ExpertOwners(3, {}, config).empty());
}

TEST(PlacementTest, EveryNodeOwnsASliceOfALargePool) {
  PlacementConfig config;
  config.replication = 1;
  std::set<int> primaries;
  for (int expert = 0; expert < 256; ++expert) {
    const auto owners = ExpertOwners(expert, {0, 1, 2, 3}, config);
    ASSERT_EQ(owners.size(), 1u);
    primaries.insert(owners[0]);
  }
  // With 16 vnodes per node, 256 experts cannot all land on a strict
  // subset of 4 nodes.
  EXPECT_EQ(primaries.size(), 4u);
}

}  // namespace
}  // namespace poe
