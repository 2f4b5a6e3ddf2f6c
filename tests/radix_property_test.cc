// RadixTree property tests against a naive reference model.
//
// The reference for Match is the *coverage set*: every prefix of every
// root-to-node string the tree currently stores. Match(q) must return the
// longest prefix of q in that set — true whether the match ends on a node
// boundary or partway through a compressed edge, and it stays true across
// edge splits and leaf evictions. Structural invariants (edge keys, depth
// bookkeeping, parent pointers, compression) are re-audited after every
// mutation.
//
// The reference for the LRU index is the original full scan: visit every
// leaf in ascending key order and keep the first strict minimum of last
// access. Victim sequences must agree with it under equal-timestamp ties,
// evictability filters, touches of interior and partially matched nodes,
// leaf-edge splits and removals that turn a parent into a leaf; the index
// and NodeCount() are re-derived from a full Visit after every mutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "rtc/radix_tree.h"

namespace deepserve::rtc {
namespace {

// Minimal payload satisfying the SplitTail contract.
struct Span {
  Span SplitTail(size_t) { return Span{}; }
};

using Tree = RadixTree<Span>;
using Key = BlockKey;
using Seq = std::vector<Key>;

// Coverage-set reference: longest prefix of `q` present in `coverage`.
size_t NaiveMatch(const std::set<Seq>& coverage, const Seq& q) {
  for (size_t len = q.size(); len > 0; --len) {
    if (coverage.count(Seq(q.begin(), q.begin() + static_cast<ptrdiff_t>(len))) > 0) {
      return len;
    }
  }
  return 0;
}

void AddCoverage(std::set<Seq>* coverage, const Seq& seq) {
  for (size_t len = 1; len <= seq.size(); ++len) {
    coverage->insert(Seq(seq.begin(), seq.begin() + static_cast<ptrdiff_t>(len)));
  }
}

// The full root-to-end string of `node`.
Seq FullString(const Tree::Node* node) {
  std::vector<const Tree::Node*> chain;
  for (const Tree::Node* n = node; n != nullptr && n->parent != nullptr; n = n->parent) {
    chain.push_back(n);
  }
  Seq out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out.insert(out.end(), (*it)->edge.begin(), (*it)->edge.end());
  }
  return out;
}

// Random sequence over a tiny alphabet so prefixes collide and force splits.
Seq RandomSeq(Rng& rng, size_t max_len) {
  Seq seq(static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(max_len))));
  for (Key& k : seq) {
    k = static_cast<Key>(rng.UniformInt(1, 5));
  }
  return seq;
}

void AuditStructure(Tree& tree) {
  size_t visited = 0;
  tree.Visit([&](Tree::Node* node) {
    ++visited;
    ASSERT_FALSE(node->edge.empty()) << "non-root node with empty edge";
    ASSERT_NE(node->parent, nullptr);
    // The child is keyed by its first edge symbol in the parent's map.
    Tree::Node* found = node->parent->children.Find(node->edge.front());
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found, node) << "child map key does not lead back to the node";
    // Depth bookkeeping survives splits.
    EXPECT_EQ(node->depth, node->parent->depth + node->edge.size());
    node->children.ForEach([&](Key key, Tree::Node* child) {
      EXPECT_EQ(child->parent, node);
      EXPECT_EQ(key, child->edge.front());
    });
  });
  EXPECT_EQ(tree.NodeCount(), visited);
}

TEST(RadixPropertyTest, MatchAgreesWithNaiveReferenceUnderRandomInserts) {
  for (uint64_t seed : {3ull, 17ull, 91ull}) {
    Rng rng(seed);
    Tree tree;
    std::set<Seq> coverage;
    std::vector<Seq> inserted;
    for (int round = 0; round < 200; ++round) {
      Seq seq = RandomSeq(rng, 12);
      tree.Insert(seq, /*now=*/round);
      AddCoverage(&coverage, seq);
      inserted.push_back(seq);
      AuditStructure(tree);

      // An inserted sequence always fully matches.
      EXPECT_EQ(tree.Match(seq).matched, seq.size()) << "seed " << seed;
      // Random probes agree with the reference, including partial-edge hits.
      for (int probe = 0; probe < 10; ++probe) {
        Seq q = RandomSeq(rng, 14);
        EXPECT_EQ(tree.Match(q).matched, NaiveMatch(coverage, q))
            << "seed " << seed << " round " << round;
      }
      // A previously inserted sequence stays fully matched (splits must not
      // lose coverage).
      const Seq& old = inserted[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(inserted.size()) - 1))];
      EXPECT_EQ(tree.Match(old).matched, old.size()) << "seed " << seed;
    }
  }
}

TEST(RadixPropertyTest, MatchResultPathIsConsistent) {
  Rng rng(7);
  Tree tree;
  for (int round = 0; round < 100; ++round) {
    tree.Insert(RandomSeq(rng, 10), round);
  }
  for (int probe = 0; probe < 200; ++probe) {
    Seq q = RandomSeq(rng, 12);
    Tree::MatchResult m = tree.Match(q);
    ASSERT_LE(m.matched, q.size());
    // Fully-matched path nodes chain root-most first and sum to the match
    // minus any partial tail.
    size_t covered = 0;
    const Tree::Node* prev = nullptr;
    for (const Tree::Node* node : m.path) {
      covered += node->edge.size();
      if (prev != nullptr) {
        EXPECT_EQ(node->parent, prev);
      }
      prev = node;
    }
    if (m.partial != nullptr) {
      EXPECT_GT(m.partial_len, 0u);
      EXPECT_LT(m.partial_len, m.partial->edge.size());
      covered += m.partial_len;
    }
    EXPECT_EQ(covered, m.matched);
    // The matched symbols really are a prefix of q spelled by the tree.
    if (!m.path.empty() || m.partial != nullptr) {
      const Tree::Node* deepest = m.partial != nullptr ? m.partial : m.path.back();
      Seq spelled = FullString(deepest);
      spelled.resize(m.matched);
      EXPECT_TRUE(std::equal(spelled.begin(), spelled.end(), q.begin()));
    }
  }
}

TEST(RadixPropertyTest, LruEvictionKeepsMatchConsistent) {
  for (uint64_t seed : {5ull, 23ull}) {
    Rng rng(seed);
    Tree tree;
    std::set<Seq> coverage;
    TimeNs now = 0;
    for (int round = 0; round < 150; ++round) {
      ++now;
      if (round < 30 || rng.NextDouble() < 0.6) {
        Seq seq = RandomSeq(rng, 10);
        tree.Insert(seq, now);
        AddCoverage(&coverage, seq);
      } else {
        // Evict the least-recently-used leaf, mirroring in the reference:
        // the leaf's exclusive span (strings longer than its parent's depth
        // along its full string) disappears.
        Tree::Node* leaf = tree.FindLruLeaf([](const Tree::Node&) { return true; });
        if (leaf == nullptr) {
          continue;
        }
        // FindLruLeaf returns a minimal-last_access leaf.
        tree.Visit([&](Tree::Node* node) {
          if (node->is_leaf()) {
            EXPECT_LE(leaf->last_access(), node->last_access());
          }
        });
        Seq full = FullString(leaf);
        size_t keep = leaf->parent->depth;
        for (size_t len = keep + 1; len <= full.size(); ++len) {
          coverage.erase(Seq(full.begin(), full.begin() + static_cast<ptrdiff_t>(len)));
        }
        tree.RemoveLeaf(leaf);
      }
      AuditStructure(tree);
      for (int probe = 0; probe < 8; ++probe) {
        Seq q = RandomSeq(rng, 12);
        EXPECT_EQ(tree.Match(q).matched, NaiveMatch(coverage, q))
            << "seed " << seed << " round " << round;
      }
    }
  }
}

// The original FindLruLeaf over the owner-evictable leaves.
template <typename Pred>
Tree::Node* NaiveLru(Tree& tree, const Pred& pred) {
  Tree::Node* best = nullptr;
  tree.Visit([&](Tree::Node* node) {
    if (node->is_leaf() && node->evictable() && pred(*node) &&
        (best == nullptr || node->last_access() < best->last_access())) {
      best = node;
    }
  });
  return best;
}

// The index holds exactly the evictable leaves, in (last access, key order)
// order.
void AuditIndex(Tree& tree) {
  std::vector<Tree::Node*> expected;
  tree.Visit([&](Tree::Node* node) {
    EXPECT_EQ(node->indexed(), node->is_leaf() && node->evictable());
    if (node->is_leaf() && node->evictable()) {
      expected.push_back(node);  // ascending key order
    }
  });
  std::stable_sort(expected.begin(), expected.end(), [](const Tree::Node* a, const Tree::Node* b) {
    return a->last_access() < b->last_access();
  });
  std::vector<Tree::Node*> indexed;
  for (Tree::Node* leaf = tree.LruFront(); leaf != nullptr; leaf = Tree::LruNext(leaf)) {
    indexed.push_back(leaf);
  }
  EXPECT_EQ(indexed, expected);
}

// A random node (or nullptr): an interior or leaf node on a random query's
// path, or the node it matches only partially.
Tree::Node* RandomNode(Tree& tree, Rng& rng) {
  Tree::MatchResult m = tree.Match(RandomSeq(rng, 12));
  if (m.partial != nullptr && (m.path.empty() || rng.Bernoulli(0.5))) {
    return m.partial;
  }
  if (m.path.empty()) {
    return nullptr;
  }
  return m.path[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(m.path.size()) - 1))];
}

TEST(RadixPropertyTest, LruVictimSequenceMatchesFullScanReference) {
  for (uint64_t seed : {2ull, 13ull, 77ull, 404ull}) {
    Rng rng(seed);
    Tree tree;
    TimeNs now = 100;
    int64_t victims = 0;
    for (int round = 0; round < 600; ++round) {
      // Time moves on only now and then, so most operations tie.
      if (rng.Bernoulli(0.2)) {
        now += rng.UniformInt(1, 3);
      }
      // Random evictability filter on the query side, keyed by the node.
      const Key skip = static_cast<Key>(rng.UniformInt(0, 5));
      auto pred = [skip](const Tree::Node& node) { return node.edge.back() != skip; };
      int op = static_cast<int>(rng.UniformInt(0, 9));
      if (op <= 3 || tree.NodeCount() < 8) {
        tree.Insert(RandomSeq(rng, 10), now);  // splits leaf and interior edges
      } else if (op <= 5) {
        // Touch an interior, leaf or partially matched node, now and then
        // into the past (the index must re-position either way).
        if (Tree::Node* node = RandomNode(tree, rng)) {
          tree.Touch(node, rng.Bernoulli(0.2) ? now - rng.UniformInt(1, 20) : now);
        }
      } else if (op == 6) {
        if (Tree::Node* node = RandomNode(tree, rng)) {
          tree.SetEvictable(node, rng.Bernoulli(0.7));
        }
      } else {
        // Take a few victims, walking the index once as RtcMaster's passes
        // do; the reference restarts its full scan for every victim.
        Tree::Node* cursor = tree.LruFront();
        for (int64_t k = rng.UniformInt(1, 4); k > 0; --k) {
          Tree::Node* victim = tree.FindLruLeafFrom(cursor, pred);
          ASSERT_EQ(victim, NaiveLru(tree, pred)) << "seed " << seed << " round " << round;
          ASSERT_EQ(tree.FindLruLeaf(pred), victim);
          if (victim == nullptr) {
            break;
          }
          ++victims;
          Tree::Node* next = Tree::LruNext(victim);
          Tree::Node* parent = tree.RemoveLeaf(victim);
          cursor = parent != nullptr && (next == nullptr || Tree::LruBefore(parent, next))
                       ? parent
                       : next;
          AuditStructure(tree);
          AuditIndex(tree);
        }
      }
      AuditStructure(tree);
      AuditIndex(tree);
      if (HasFailure()) {
        FAIL() << "seed " << seed << " round " << round;
      }
    }
    EXPECT_GT(victims, 100) << "seed " << seed;
  }
}

TEST(RadixPropertyTest, EqualTimestampsEvictInKeyOrder) {
  Tree tree;
  tree.Insert(Seq{5, 1}, 7);
  tree.Insert(Seq{3, 9}, 7);
  tree.Insert(Seq{4}, 7);
  tree.Insert(Seq{3, 2}, 7);  // splits [3, 9]: the tail keeps its slot
  tree.Insert(Seq{8}, 6);
  auto all = [](const Tree::Node&) { return true; };
  std::vector<Seq> order;
  while (Tree::Node* leaf = tree.FindLruLeaf(all)) {
    order.push_back(FullString(leaf));
    tree.RemoveLeaf(leaf);
    AuditStructure(tree);
    AuditIndex(tree);
  }
  // [8] is older; then key order, and [3] once both its children are gone.
  EXPECT_EQ(order, (std::vector<Seq>{{8}, {3, 2}, {3, 9}, {3}, {4}, {5, 1}}));
  EXPECT_EQ(tree.NodeCount(), 0u);
}

TEST(RadixPropertyTest, RemoveLeafIndexesAParentThatBecameALeaf) {
  Tree tree;
  tree.Insert(Seq{1, 2}, 1);
  Tree::Node* child = tree.Insert(Seq{1, 2, 3}, 2);
  Tree::Node* parent = child->parent;
  EXPECT_FALSE(parent->indexed());
  EXPECT_EQ(tree.RemoveLeaf(child), parent);
  EXPECT_TRUE(parent->indexed());
  EXPECT_EQ(tree.LruFront(), parent);
  // A parent the owner marked unevictable stays out of the index.
  child = tree.Insert(Seq{1, 2, 4}, 3);
  tree.SetEvictable(parent, false);
  EXPECT_EQ(tree.RemoveLeaf(child), nullptr);
  EXPECT_FALSE(parent->indexed());
  EXPECT_EQ(tree.LruFront(), nullptr);
}

TEST(RadixPropertyTest, LruWorkCounterCountsExaminedLeaves) {
  int64_t owner_counter = 0;
  Tree tree(&owner_counter);
  tree.Insert(Seq{1}, 1);  // first leaf: nothing to compare against
  tree.Insert(Seq{2}, 2);  // one comparison with the tail
  tree.Insert(Seq{3}, 3);
  EXPECT_EQ(owner_counter, 2);
  Tree::Node* found = tree.FindLruLeaf([](const Tree::Node& n) { return n.edge.front() == 3; });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(owner_counter, 5);  // the walk stepped over all three leaves
  EXPECT_EQ(tree.lru_leaves_examined(), 5);

  Tree own;  // no owner counter: the tree keeps its own
  own.Insert(Seq{1}, 1);
  own.Insert(Seq{2}, 2);
  EXPECT_EQ(own.lru_leaves_examined(), 1);
}

TEST(RadixPropertyTest, TokensToBlockKeysDropsPartialTailAndChains) {
  std::vector<TokenId> tokens;
  for (int i = 0; i < 70; ++i) {
    tokens.push_back(1000 + i);
  }
  auto keys = TokensToBlockKeys(tokens, /*block_size=*/16);
  ASSERT_EQ(keys.size(), 4u) << "70 tokens / 16 = 4 full blocks";
  // Chain property: a prefix of tokens yields a prefix of keys.
  auto prefix_keys =
      TokensToBlockKeys(std::span<const TokenId>(tokens.data(), 32), /*block_size=*/16);
  ASSERT_EQ(prefix_keys.size(), 2u);
  EXPECT_EQ(prefix_keys[0], keys[0]);
  EXPECT_EQ(prefix_keys[1], keys[1]);
  // Divergence in the last block of a prefix changes that key only from
  // there on (chain hashing).
  std::vector<TokenId> fork = tokens;
  fork[40] = 9;
  auto fork_keys = TokensToBlockKeys(fork, /*block_size=*/16);
  EXPECT_EQ(fork_keys[0], keys[0]);
  EXPECT_EQ(fork_keys[1], keys[1]);
  EXPECT_NE(fork_keys[2], keys[2]);
  EXPECT_NE(fork_keys[3], keys[3]);
}

}  // namespace
}  // namespace deepserve::rtc
