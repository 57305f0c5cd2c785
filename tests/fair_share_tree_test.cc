// admit::FairShareTree — the hierarchical pool tree behind admission.
//
// Covers the four behaviors DESIGN.md §16 promises: min-share guarantees
// hold under demand skew (funded before the weighted pour, scaled when
// oversubscribed, released when idle), preemption only ever cancels
// best-effort work outside every guarantee, pool-path parsing handles
// the edge cases (empty segments, depth cap, empty-path fallback,
// unknown-pool materialization), and the accounting entry points are
// safe under concurrent admit/complete/charge-back (run under -L tsan).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "admit/admit.h"
#include "admit/fair_share_tree.h"
#include "common/time.h"
#include "exec/cancel.h"

namespace scalewall::admit {
namespace {

// --- pool-path parsing / normalization ---

TEST(PoolPathTest, StripsEmptySegments) {
  EXPECT_EQ((std::vector<std::string>{"a", "b"}), ParsePoolPath("a//b"));
  EXPECT_EQ((std::vector<std::string>{"a", "b"}), ParsePoolPath("/a/b/"));
  EXPECT_EQ("a/b", NormalizePoolPath("a//b"));
  EXPECT_EQ("a/b", NormalizePoolPath("//a///b//"));
}

TEST(PoolPathTest, EmptyPathFallsBackToDefaultPool) {
  EXPECT_TRUE(ParsePoolPath("").empty());
  EXPECT_TRUE(ParsePoolPath("///").empty());
  EXPECT_EQ("default", NormalizePoolPath(""));
  EXPECT_EQ("default", NormalizePoolPath("/"));
  EXPECT_EQ("default", NormalizePoolPath("//"));

  FairShareTree tree;
  const FairShareTree::PoolId blank = tree.Resolve("");
  EXPECT_EQ(blank, tree.Resolve("default"));
  EXPECT_EQ(blank, tree.Resolve("//"));
  EXPECT_EQ("default", tree.PoolPath(blank));
}

TEST(PoolPathTest, DepthCappedAtMaxPoolDepth) {
  EXPECT_EQ(static_cast<size_t>(kMaxPoolDepth),
            ParsePoolPath("a/b/c/d/e/f").size());
  EXPECT_EQ("a/b/c/d", NormalizePoolPath("a/b/c/d/e/f"));

  // A too-deep path resolves to the same pool as its truncation: the
  // extra segments are query-class noise, not distinct pools.
  FairShareTree tree;
  EXPECT_EQ(tree.Resolve("a/b/c/d"), tree.Resolve("a/b/c/d/e/f"));
}

TEST(PoolPathTest, EquivalentSpellingsResolveToOnePool) {
  FairShareTree tree;
  const FairShareTree::PoolId pool = tree.Resolve("org/tenant");
  EXPECT_EQ(pool, tree.Resolve("org//tenant"));
  EXPECT_EQ(pool, tree.Resolve("/org/tenant/"));
  EXPECT_EQ("org/tenant", tree.PoolPath(pool));
  EXPECT_EQ(3u, tree.num_pools());  // root + org + org/tenant
}

TEST(PoolPathTest, UnknownPoolMaterializedWithHintButConfigWins) {
  FairShareTree tree(/*default_weight=*/2.0);

  // No hint: the default weight.
  const FairShareTree::PoolId plain = tree.Resolve("adhoc");
  EXPECT_DOUBLE_EQ(2.0, tree.Config(plain).weight);

  // A positive hint seeds the weight at materialization...
  const FairShareTree::PoolId hinted = tree.Resolve("burst", 3.5);
  EXPECT_DOUBLE_EQ(3.5, tree.Config(hinted).weight);
  // ...but only at materialization: later hints never overwrite.
  EXPECT_EQ(hinted, tree.Resolve("burst", 9.9));
  EXPECT_DOUBLE_EQ(3.5, tree.Config(hinted).weight);

  // Explicit configuration always wins and is never hinted over.
  PoolConfig config;
  config.weight = 7.0;
  tree.ConfigurePool("burst", config);
  EXPECT_DOUBLE_EQ(7.0, tree.Config(hinted).weight);
  tree.Resolve("burst", 1.25);
  EXPECT_DOUBLE_EQ(7.0, tree.Config(hinted).weight);
}

TEST(PoolPathTest, MaterializedPoolsCappedAgainstDistinctPaths) {
  // A client cycling through distinct pool paths cannot grow the tree
  // past kMaxPools: new paths beyond the cap charge the default pool.
  FairShareTree tree;
  const FairShareTree::PoolId early = tree.Resolve("tenant/early");
  for (int i = 0; i < 5000; ++i) {
    tree.Resolve("tenant/p" + std::to_string(i));
  }
  EXPECT_LE(tree.num_pools(), kMaxPools + 2);  // + root + default
  const FairShareTree::PoolId late = tree.Resolve("tenant/p4999");
  EXPECT_EQ(std::string(kDefaultPool), tree.PoolPath(late));
  // Pools materialized before the cap keep resolving to themselves.
  EXPECT_EQ(early, tree.Resolve("tenant/early"));
  EXPECT_EQ(tree.Resolve("tenant/p0"), tree.Resolve("tenant/p0"));
  EXPECT_EQ("tenant/p0", tree.PoolPath(tree.Resolve("tenant/p0")));
  // Configured pools are always materialized.
  tree.ConfigurePool("ops/guaranteed", PoolConfig{.min_share = 0.2});
  EXPECT_EQ("ops/guaranteed", tree.PoolPath(tree.Resolve("ops/guaranteed")));
}

// --- min-share guarantees under demand skew ---

TEST(FairShareTreeTest, MinShareHeldAgainstHeavyweightSibling) {
  // acme/interactive holds a 30% guarantee; acme/batch floods at 10x
  // the weight. Without the guarantee the batch pool would take ~10/11
  // of the capacity; with it, interactive's full (small) demand is
  // funded first.
  FairShareTree tree;
  PoolConfig interactive;
  interactive.min_share = 0.3;
  tree.ConfigurePool("acme/interactive", interactive);
  PoolConfig batch;
  batch.weight = 10.0;
  tree.ConfigurePool("acme/batch", batch);

  const FairShareTree::PoolId fg = tree.Resolve("acme/interactive");
  const FairShareTree::PoolId bg = tree.Resolve("acme/batch");

  tree.Recompute(10.0, {{fg, 3.0}, {bg, 100.0}});
  EXPECT_DOUBLE_EQ(3.0, tree.FairShare(fg));   // full demand, inside 0.3*10
  EXPECT_DOUBLE_EQ(7.0, tree.FairShare(bg));   // the remainder
  EXPECT_DOUBLE_EQ(3.0, tree.MinShareSlots(fg, 10.0));

  // The same skew without the guarantee: the weighted pour alone leaves
  // interactive under one slot — the collapse the guarantee exists for.
  FairShareTree flat;
  flat.ConfigurePool("acme/batch", batch);
  const FairShareTree::PoolId fg2 = flat.Resolve("acme/interactive");
  const FairShareTree::PoolId bg2 = flat.Resolve("acme/batch");
  flat.Recompute(10.0, {{fg2, 3.0}, {bg2, 100.0}});
  EXPECT_LT(flat.FairShare(fg2), 1.0);
  EXPECT_GT(flat.FairShare(bg2), 9.0);
}

TEST(FairShareTreeTest, OversubscribedGuaranteesScaleProportionally) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.8;
  tree.ConfigurePool("a", guaranteed);
  tree.ConfigurePool("b", guaranteed);
  const FairShareTree::PoolId a = tree.Resolve("a");
  const FairShareTree::PoolId b = tree.Resolve("b");

  // 0.8 + 0.8 of the root cannot both be met: each scales to half.
  tree.Recompute(10.0, {{a, 10.0}, {b, 10.0}});
  EXPECT_DOUBLE_EQ(5.0, tree.FairShare(a));
  EXPECT_DOUBLE_EQ(5.0, tree.FairShare(b));
}

TEST(FairShareTreeTest, IdleGuaranteedPoolReleasesItsSlots) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.5;
  tree.ConfigurePool("prod", guaranteed);
  const FairShareTree::PoolId prod = tree.Resolve("prod");
  const FairShareTree::PoolId free_pool = tree.Resolve("free");

  // A guarantee never exceeds demand: a half-idle guaranteed pool only
  // reserves what it wants and the rest flows to its sibling.
  tree.Recompute(10.0, {{prod, 1.0}, {free_pool, 100.0}});
  EXPECT_DOUBLE_EQ(1.0, tree.FairShare(prod));
  EXPECT_DOUBLE_EQ(9.0, tree.FairShare(free_pool));

  // Fully idle: everything goes to the sibling.
  tree.Recompute(10.0, {{free_pool, 100.0}});
  EXPECT_DOUBLE_EQ(0.0, tree.FairShare(prod));
  EXPECT_DOUBLE_EQ(10.0, tree.FairShare(free_pool));
}

TEST(FairShareTreeTest, MaxShareCapsThePourAndFreedCapacityFlowsOn) {
  FairShareTree tree;
  PoolConfig capped;
  capped.max_share = 0.2;
  tree.ConfigurePool("capped", capped);
  const FairShareTree::PoolId c = tree.Resolve("capped");
  const FairShareTree::PoolId open = tree.Resolve("open");

  tree.Recompute(10.0, {{c, 10.0}, {open, 10.0}});
  EXPECT_DOUBLE_EQ(2.0, tree.FairShare(c));   // capped at 0.2 * 10
  EXPECT_DOUBLE_EQ(8.0, tree.FairShare(open));
}

TEST(FairShareTreeTest, StarvedTracksRunningAgainstGuarantee) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.5;
  tree.ConfigurePool("prod", guaranteed);
  const FairShareTree::PoolId prod = tree.Resolve("prod");
  const FairShareTree::PoolId free_pool = tree.Resolve("free");

  // An unguaranteed pool is never "starved", whatever it runs.
  EXPECT_FALSE(tree.Starved(free_pool, 10.0));

  EXPECT_TRUE(tree.Starved(prod, 10.0));  // 0 running < 5 guaranteed
  for (int i = 0; i < 5; ++i) tree.OnAdmit(prod, 0);
  EXPECT_FALSE(tree.Starved(prod, 10.0));  // at entitlement
  tree.OnRelease(prod, 0);
  EXPECT_TRUE(tree.Starved(prod, 10.0));  // 4 running < 5
}

TEST(FairShareTreeTest, HasGuaranteeSeesAncestors) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.4;
  tree.ConfigurePool("prod", guaranteed);

  EXPECT_TRUE(tree.HasGuarantee(tree.Resolve("prod")));
  // The guarantee shields the whole subtree, not just the node.
  EXPECT_TRUE(tree.HasGuarantee(tree.Resolve("prod/scratch")));
  EXPECT_FALSE(tree.HasGuarantee(tree.Resolve("free/scratch")));
  EXPECT_FALSE(tree.HasGuarantee(0));  // the root itself
}

TEST(FairShareTreeTest, QueueSliceFlooredByGuaranteeCappedByAncestors) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.5;
  tree.ConfigurePool("guar", guaranteed);
  const FairShareTree::PoolId guar = tree.Resolve("guar");
  // Three active siblings shrink the strict weighted slice to 1/4...
  for (const char* name : {"s1", "s2", "s3"}) {
    tree.OnAdmit(tree.Resolve(name), 0);
  }
  // ...but the guarantee floors it at half the capacity.
  EXPECT_DOUBLE_EQ(5.0, tree.QueueSlice(guar, 10.0));

  // An ancestor's max-share caps a leaf's slice even when the leaf's
  // own strict share is larger.
  FairShareTree capped_tree;
  PoolConfig org;
  org.max_share = 0.4;
  capped_tree.ConfigurePool("acme", org);
  const FairShareTree::PoolId leaf = capped_tree.Resolve("acme/x");
  capped_tree.OnAdmit(capped_tree.Resolve("other"), 0);
  // Strict share: 1/2 of 10 = 5; the acme subtree caps it at 4.
  EXPECT_DOUBLE_EQ(4.0, capped_tree.QueueSlice(leaf, 10.0));
}

TEST(FairShareTreeTest, SnapshotIsDeterministicPreOrder) {
  FairShareTree tree;
  tree.Resolve("b/x");
  tree.Resolve("a");
  const std::vector<FairShareTree::PoolSnapshot> pools = tree.Snapshot();
  ASSERT_EQ(4u, pools.size());
  EXPECT_EQ("", pools[0].path);  // root first
  EXPECT_EQ(0, pools[0].depth);
  EXPECT_EQ("a", pools[1].path);  // children in name order
  EXPECT_TRUE(pools[1].is_leaf);
  EXPECT_EQ("b", pools[2].path);
  EXPECT_FALSE(pools[2].is_leaf);
  EXPECT_EQ("b/x", pools[3].path);
  EXPECT_EQ(2, pools[3].depth);
}

// --- preemption only touches best-effort work outside guarantees ---

TEST(FairShareTreePreemptionTest, StarvedGuaranteeCancelsNewestBestEffort) {
  AdmitOptions options;
  options.max_concurrency = 4;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.5;
  options.pools["prod/dash"] = guaranteed;
  AdmissionController admit(options);

  std::vector<std::shared_ptr<exec::CancelToken>> tokens;
  for (int i = 0; i < 4; ++i) {
    RequestInfo info;
    info.now = kSecond;
    info.pool_path = "free/scratch";
    info.priority = Priority::kBestEffort;
    const Decision scratch = admit.Admit(info);
    ASSERT_TRUE(scratch.admitted);
    auto token = std::make_shared<exec::CancelToken>();
    admit.AttachCancel(scratch.ticket, token);
    tokens.push_back(std::move(token));
  }

  // Every slot busy with best-effort work; the guaranteed pool's
  // arrival does not queue behind it — it takes a slot immediately.
  RequestInfo info;
  info.now = kSecond;
  info.pool_path = "prod/dash";
  const Decision decision = admit.Admit(info);
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(1, decision.preempted);
  EXPECT_EQ(0, decision.queue_wait);
  EXPECT_EQ(1, admit.preemptions());

  // The newest (least-invested) victim loses; everyone else keeps
  // running.
  EXPECT_TRUE(tokens.back()->cancelled());
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_FALSE(tokens[i]->cancelled()) << "token " << i;
  }

  // The victim's pool keeps the charge-back.
  for (const auto& pool : admit.Pools()) {
    if (pool.path == "free/scratch") {
      EXPECT_EQ(1, pool.preempted);
    }
    if (pool.path == "prod/dash") {
      EXPECT_EQ(0, pool.preempted);
    }
  }
}

TEST(FairShareTreePreemptionTest, HigherTiersAreNeverVictims) {
  AdmitOptions options;
  options.max_concurrency = 2;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.5;
  options.pools["prod/dash"] = guaranteed;
  AdmissionController admit(options);

  std::vector<std::shared_ptr<exec::CancelToken>> tokens;
  for (int i = 0; i < 2; ++i) {
    RequestInfo info;
    info.now = kSecond;
    info.pool_path = "free/reports";
    info.priority = Priority::kBatch;  // latency-tolerant, NOT best-effort
    const Decision batch = admit.Admit(info);
    ASSERT_TRUE(batch.admitted);
    auto token = std::make_shared<exec::CancelToken>();
    admit.AttachCancel(batch.ticket, token);
    tokens.push_back(std::move(token));
  }

  // Starved guarantee, but no preemptable victim: the arrival queues
  // like anyone else instead of cancelling batch work.
  RequestInfo info;
  info.now = kSecond;
  info.pool_path = "prod/dash";
  const Decision decision = admit.Admit(info);
  EXPECT_TRUE(decision.admitted);
  EXPECT_EQ(0, decision.preempted);
  EXPECT_GT(decision.queue_wait, 0);
  EXPECT_EQ(0, admit.preemptions());
  for (const auto& token : tokens) EXPECT_FALSE(token->cancelled());
}

TEST(FairShareTreePreemptionTest, GuaranteedSubtreesShieldTheirBestEffort) {
  AdmitOptions options;
  options.max_concurrency = 2;
  PoolConfig org_guarantee;
  org_guarantee.min_share = 0.4;
  options.pools["prod"] = org_guarantee;  // guarantee on the PARENT
  PoolConfig critical;
  critical.min_share = 0.5;
  options.pools["crit"] = critical;
  AdmissionController admit(options);

  std::vector<std::shared_ptr<exec::CancelToken>> tokens;
  for (int i = 0; i < 2; ++i) {
    RequestInfo info;
    info.now = kSecond;
    info.pool_path = "prod/scratch";  // best-effort, but under prod's
    info.priority = Priority::kBestEffort;  // min-share umbrella
    const Decision scratch = admit.Admit(info);
    ASSERT_TRUE(scratch.admitted);
    auto token = std::make_shared<exec::CancelToken>();
    admit.AttachCancel(scratch.ticket, token);
    tokens.push_back(std::move(token));
  }

  RequestInfo info;
  info.now = kSecond;
  info.pool_path = "crit";
  const Decision decision = admit.Admit(info);
  EXPECT_EQ(0, decision.preempted);
  EXPECT_EQ(0, admit.preemptions());
  for (const auto& token : tokens) EXPECT_FALSE(token->cancelled());
}

TEST(FairShareTreePreemptionTest, DisabledPreemptionNeverCancels) {
  AdmitOptions options;
  options.max_concurrency = 2;
  options.enable_preemption = false;
  PoolConfig guaranteed;
  guaranteed.min_share = 1.0;
  options.pools["prod"] = guaranteed;
  AdmissionController admit(options);

  for (int i = 0; i < 2; ++i) {
    RequestInfo info;
    info.now = kSecond;
    info.pool_path = "free";
    info.priority = Priority::kBestEffort;
    ASSERT_TRUE(admit.Admit(info).admitted);
  }
  RequestInfo info;
  info.now = kSecond;
  info.pool_path = "prod";
  const Decision decision = admit.Admit(info);
  EXPECT_EQ(0, decision.preempted);
  EXPECT_EQ(0, admit.preemptions());
}

// --- concurrent admit/complete/charge-back (run under -L tsan) ---

TEST(FairShareTreeTest, ConcurrentAccountingAndSnapshotsAreSafe) {
  FairShareTree tree;
  PoolConfig guaranteed;
  guaranteed.min_share = 0.25;
  tree.ConfigurePool("org/t0", guaranteed);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      const std::string path = "org/t" + std::to_string(t);
      const FairShareTree::PoolId pool = tree.Resolve(path);
      for (int i = 0; i < kOpsPerThread; ++i) {
        tree.OnAdmit(pool, 64);
        tree.ChargeScanMicros(pool, 5);
        tree.ChargeService(pool, kMillisecond);
        tree.OnRelease(pool, 64);
      }
    });
  }
  // A reader races snapshots, share recomputes and slice queries
  // against the accounting above.
  threads.emplace_back([&tree] {
    const FairShareTree::PoolId pool = tree.Resolve("org/t0");
    for (int i = 0; i < 200; ++i) {
      tree.Recompute(8.0, {{pool, 4.0}});
      (void)tree.QueueSlice(pool, 8.0);
      (void)tree.FairShare(pool);
      for (const auto& snapshot : tree.Snapshot()) {
        EXPECT_GE(snapshot.running, 0);
      }
    }
  });
  for (auto& thread : threads) thread.join();

  for (const auto& pool : tree.Snapshot()) {
    if (pool.path.rfind("org/t", 0) != 0) continue;
    EXPECT_EQ(0, pool.running) << pool.path;
    EXPECT_EQ(0u, pool.inflight_bytes) << pool.path;
    EXPECT_EQ(kOpsPerThread, pool.admitted) << pool.path;
    EXPECT_EQ(kOpsPerThread, pool.completed) << pool.path;
    EXPECT_EQ(5 * kOpsPerThread, pool.scan_micros) << pool.path;
  }
}

}  // namespace
}  // namespace scalewall::admit
