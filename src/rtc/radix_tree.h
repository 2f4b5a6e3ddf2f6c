// Compressed radix (prefix) tree over symbol sequences.
//
// RTC indexes KV cache by *block keys* — a chain hash per full KV block — so
// every divergence between two prompts lands on a block boundary and edge
// splits never cut a block in half. The same structure, instantiated with a
// different payload, backs the Job Executor's global prompt trees (§5.2): the
// paper notes the TE-local tree "shares an index with its corresponding
// global tree", which here is literal — both are RadixTree<V> over the same
// BlockKey stream.
//
// Node children live in a ChildMap: a sorted inline array for the common
// low-fanout case (radix nodes overwhelmingly have a handful of children),
// spilling to a std::map only past kInlineChildren — the root of a global
// prompt tree can fan out to one child per distinct opening block. Both modes
// look up by exact key and iterate in ascending key order, so traversal order
// (and with it eviction tie-breaking and replay determinism) is identical to
// the previous pure-std::map representation.
//
// LRU index. Every non-root leaf the owner marks evictable sits in an
// intrusive doubly linked list ordered by (last_access, key order): older
// first, and among equal last accesses the leaf earlier in ascending
// key-path (pre-order) order first. That is exactly the order a full
// left-to-right leaf scan keeping the first strict minimum would pick
// victims in, and ties are common (many sequences commit at the same
// sim-ns). The list is kept current on every mutation, so FindLruLeaf
// costs the leaves it steps over rather than a tree walk:
//   * last_access is private; Insert and Touch re-position an indexed leaf;
//   * Insert unlinks a leaf that gains a child and links the fresh leaf;
//   * a split hands the leaf's slot to its tail (same key string, same
//     last access, so the same position);
//   * RemoveLeaf links a parent that has become an evictable leaf;
//   * SetEvictable adds or drops an owner-chosen leaf (RTC keeps pinned,
//     referenced and off-NPU runs out of the list).
// NodeCount() is a counter maintained by the same mutations.
//
// V is the per-node payload covering that node's span. It must be default-
// constructible and provide:
//   V SplitTail(size_t offset)  — split at `offset` symbols into this node's
//                                 span, keep the head in-place, return the
//                                 tail payload for the new child.
#ifndef DEEPSERVE_RTC_RADIX_TREE_H_
#define DEEPSERVE_RTC_RADIX_TREE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace deepserve::rtc {

// Chain hash over token blocks: key(i) = H(key(i-1), tokens in block i).
using BlockKey = uint64_t;

inline BlockKey ChainHash(BlockKey prev, std::span<const TokenId> tokens) {
  uint64_t h = prev * 0x100000001b3ull + 0x9ae16a3b2f90404full;
  for (TokenId t : tokens) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(t));
    h *= 0x100000001b3ull;
  }
  h ^= h >> 29;
  return h;
}

// Converts a token sequence into its full-block key chain (drops the partial
// tail block — only complete blocks are cacheable).
std::vector<BlockKey> TokensToBlockKeys(std::span<const TokenId> tokens, int block_size);

inline std::vector<BlockKey> TokensToBlockKeys(std::span<const TokenId> tokens, int block_size) {
  DS_CHECK_GT(block_size, 0);
  std::vector<BlockKey> keys;
  size_t full = tokens.size() / static_cast<size_t>(block_size);
  keys.reserve(full);
  BlockKey prev = 0;
  for (size_t b = 0; b < full; ++b) {
    prev = ChainHash(prev, tokens.subspan(b * static_cast<size_t>(block_size),
                                          static_cast<size_t>(block_size)));
    keys.push_back(prev);
  }
  return keys;
}

// A prompt's key chain, tagged with the block size it was cut at, so a
// consumer with another block size knows to recompute instead of trusting
// it. The JE hashes each dispatched prompt once into one of these and every
// layer below shares it.
struct BlockKeyChain {
  int block_size = 0;
  std::vector<BlockKey> keys;
};
using SharedBlockKeys = std::shared_ptr<const BlockKeyChain>;

inline SharedBlockKeys HashPrompt(std::span<const TokenId> tokens, int block_size) {
  return std::make_shared<const BlockKeyChain>(
      BlockKeyChain{block_size, TokensToBlockKeys(tokens, block_size)});
}

template <typename V>
class RadixTree {
 public:
  struct Node;

  // Children of one node, keyed by first edge symbol. Inline-sorted up to
  // kInlineChildren entries (find = short linear scan, insert = memmove of a
  // few 16-byte entries); larger fanouts migrate wholesale to a std::map and
  // stay there. Iteration is ascending by key in both modes.
  class ChildMap {
   public:
    static constexpr size_t kInlineChildren = 8;

    ChildMap() = default;
    ChildMap(ChildMap&&) noexcept = default;
    ChildMap& operator=(ChildMap&&) noexcept = default;
    ChildMap(const ChildMap&) = delete;
    ChildMap& operator=(const ChildMap&) = delete;

    size_t size() const { return spill_ != nullptr ? spill_->size() : inline_count_; }
    bool empty() const { return size() == 0; }

    Node* Find(BlockKey key) const {
      if (spill_ != nullptr) {
        auto it = spill_->find(key);
        return it != spill_->end() ? it->second.get() : nullptr;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        if (inline_[i].key == key) {
          return inline_[i].node.get();
        }
      }
      return nullptr;
    }

    // Inserts a child under `key` (which must be absent) and returns it.
    Node* Emplace(BlockKey key, std::unique_ptr<Node> child) {
      DS_CHECK(Find(key) == nullptr) << "duplicate child key";
      Node* raw = child.get();
      if (spill_ == nullptr && inline_count_ == kInlineChildren) {
        Spill();
      }
      if (spill_ != nullptr) {
        spill_->emplace(key, std::move(child));
        return raw;
      }
      size_t pos = inline_count_;
      while (pos > 0 && inline_[pos - 1].key > key) {
        inline_[pos] = std::move(inline_[pos - 1]);
        --pos;
      }
      inline_[pos] = Entry{key, std::move(child)};
      ++inline_count_;
      return raw;
    }

    // Detaches and returns the child under `key`; the key must be present.
    std::unique_ptr<Node> Remove(BlockKey key) {
      if (spill_ != nullptr) {
        auto it = spill_->find(key);
        DS_CHECK(it != spill_->end()) << "removing absent child key";
        std::unique_ptr<Node> out = std::move(it->second);
        spill_->erase(it);
        return out;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        if (inline_[i].key == key) {
          std::unique_ptr<Node> out = std::move(inline_[i].node);
          for (size_t j = i + 1; j < inline_count_; ++j) {
            inline_[j - 1] = std::move(inline_[j]);
          }
          --inline_count_;
          inline_[inline_count_] = Entry{};
          return out;
        }
      }
      DS_CHECK(false) << "removing absent child key";
      return nullptr;
    }

    // Visits (key, child) pairs in ascending key order.
    template <typename Fn>
    void ForEach(const Fn& fn) const {
      if (spill_ != nullptr) {
        for (const auto& [key, child] : *spill_) {
          fn(key, child.get());
        }
        return;
      }
      for (size_t i = 0; i < inline_count_; ++i) {
        fn(inline_[i].key, inline_[i].node.get());
      }
    }

    bool spilled() const { return spill_ != nullptr; }

   private:
    struct Entry {
      BlockKey key = 0;
      std::unique_ptr<Node> node;
    };

    void Spill() {
      spill_ = std::make_unique<std::map<BlockKey, std::unique_ptr<Node>>>();
      for (size_t i = 0; i < inline_count_; ++i) {
        spill_->emplace(inline_[i].key, std::move(inline_[i].node));
        inline_[i] = Entry{};
      }
      inline_count_ = 0;
    }

    std::array<Entry, kInlineChildren> inline_{};
    size_t inline_count_ = 0;
    std::unique_ptr<std::map<BlockKey, std::unique_ptr<Node>>> spill_;
  };

  struct Node {
    std::vector<BlockKey> edge;  // symbols on the edge from the parent
    V value{};                   // payload covering this node's edge span
    Node* parent = nullptr;
    ChildMap children;  // keyed by first edge symbol
    // Depth in symbols from the root to the END of this node's edge.
    size_t depth = 0;

    bool is_leaf() const { return children.empty(); }
    // Time of the last Insert/Touch through this node. Written only by the
    // tree, so no caller can reorder a leaf behind the LRU index's back.
    TimeNs last_access() const { return last_access_; }
    // Owner-maintained eviction candidacy (see SetEvictable).
    bool evictable() const { return evictable_; }
    // Whether the node is in the LRU index: a non-root evictable leaf.
    bool indexed() const { return indexed_; }

   private:
    friend class RadixTree;
    TimeNs last_access_ = 0;
    Node* lru_prev_ = nullptr;  // older neighbour in the LRU index
    Node* lru_next_ = nullptr;  // newer neighbour in the LRU index
    bool evictable_ = true;
    bool indexed_ = false;
  };

  struct MatchResult {
    size_t matched = 0;               // symbols matched from the root
    std::vector<Node*> path;          // fully-matched nodes, root-most first
    Node* partial = nullptr;          // node matched only partially (if any)
    size_t partial_len = 0;           // symbols matched inside `partial`
  };

  // Default for Insert's optional hooks.
  struct NoHook {
    template <typename... Args>
    void operator()(Args&&...) const {}
  };

  // LRU work is counted into `examined_counter` when given (an owner's stats
  // field), else into the tree's own counter; see lru_leaves_examined().
  explicit RadixTree(int64_t* examined_counter = nullptr)
      : root_(std::make_unique<Node>()),
        examined_(examined_counter != nullptr ? examined_counter : &own_examined_) {}
  // Nodes and the counter pointer are tied to this object.
  RadixTree(const RadixTree&) = delete;
  RadixTree& operator=(const RadixTree&) = delete;

  // Longest-prefix match; touches nothing.
  MatchResult Match(std::span<const BlockKey> keys) const {
    MatchResult result;
    const Node* node = root_.get();
    size_t pos = 0;
    while (pos < keys.size()) {
      Node* child = node->children.Find(keys[pos]);
      if (child == nullptr) {
        break;
      }
      size_t i = 0;
      while (i < child->edge.size() && pos + i < keys.size() && child->edge[i] == keys[pos + i]) {
        ++i;
      }
      if (i == child->edge.size()) {
        result.path.push_back(child);
        pos += i;
        node = child;
      } else {
        result.partial = child;
        result.partial_len = i;
        pos += i;
        break;
      }
    }
    result.matched = pos;
    return result;
  }

  // Ensures a path spelling exactly `keys` exists, splitting edges as needed.
  // `on_new(node, begin, end)` runs once for the node whose span is newly
  // created, with the [begin, end) symbol range it covers, so the caller can
  // attach payload; `on_split(head, tail)` runs after every edge split, once
  // the tail holds the moved payload (and the head's LRU slot). Either may
  // call SetEvictable on the nodes it is handed. Returns the deepest node and
  // touches every node on the path.
  template <typename OnNew = NoHook, typename OnSplit = NoHook>
  Node* Insert(std::span<const BlockKey> keys, TimeNs now, OnNew&& on_new = {},
               OnSplit&& on_split = {}) {
    Node* node = root_.get();
    size_t pos = 0;
    Touch(node, now);
    while (pos < keys.size()) {
      Node* child = node->children.Find(keys[pos]);
      if (child == nullptr) {
        auto fresh = std::make_unique<Node>();
        fresh->edge.assign(keys.begin() + static_cast<ptrdiff_t>(pos), keys.end());
        fresh->parent = node;
        fresh->depth = node->depth + fresh->edge.size();
        fresh->last_access_ = now;
        Node* raw = node->children.Emplace(keys[pos], std::move(fresh));
        ++node_count_;
        Sync(node);  // gained a child: no longer a leaf
        on_new(*raw, pos, keys.size());
        Sync(raw);
        return raw;
      }
      size_t i = 0;
      while (i < child->edge.size() && pos + i < keys.size() && child->edge[i] == keys[pos + i]) {
        ++i;
      }
      if (i < child->edge.size()) {
        on_split(*child, *SplitChild(child, i));
      }
      Touch(child, now);
      pos += i;
      node = child;
    }
    return node;
  }

  // Sets `node`'s last access to `now`, moving it within the LRU index.
  void Touch(Node* node, TimeNs now) {
    node->last_access_ = now;
    if (node->indexed_) {
      Unlink(node);
      Link(node);
    }
  }

  // Marks whether `node` may be returned by FindLruLeaf. The owner keeps
  // this current for every node (interior ones too: a node becomes a leaf
  // when its last child is removed). Default: every node is evictable.
  void SetEvictable(Node* node, bool evictable) {
    node->evictable_ = evictable;
    Sync(node);
  }

  // Removes a leaf node entirely (merging is skipped: keeps bookkeeping
  // simple and harms nothing but a little pointer depth). Returns the parent
  // when the removal made it an indexed leaf, otherwise nullptr.
  Node* RemoveLeaf(Node* node) {
    DS_CHECK(node != nullptr);
    DS_CHECK(node->is_leaf());
    DS_CHECK(node->parent != nullptr) << "cannot remove the root";
    Node* parent = node->parent;
    DS_CHECK_EQ(parent->children.Find(node->edge.front()), node)
        << "child map key does not lead back to the node";
    if (node->indexed_) {
      Unlink(node);
    }
    parent->children.Remove(node->edge.front());
    --node_count_;
    Sync(parent);
    return parent->indexed_ ? parent : nullptr;
  }

  // The least-recently-used indexed leaf for which `pred` holds, or nullptr.
  // Among leaves with equal last access, the first in ascending key order.
  template <typename Pred>
  Node* FindLruLeaf(const Pred& pred) {
    return FindLruLeafFrom(lru_head_, pred);
  }

  // The oldest indexed leaf, or nullptr.
  Node* LruFront() const { return lru_head_; }

  // FindLruLeaf restricted to `from` (which must be indexed) and the leaves
  // after it in LRU order; nullptr `from` finds nothing. Lets a caller that
  // takes several victims walk the index once.
  template <typename Pred>
  Node* FindLruLeafFrom(Node* from, const Pred& pred) {
    for (Node* leaf = from; leaf != nullptr; leaf = leaf->lru_next_) {
      DS_CHECK(leaf->indexed_);
      ++*examined_;
      if (pred(*leaf)) {
        return leaf;
      }
    }
    return nullptr;
  }

  // The indexed leaf after `leaf` in LRU order, or nullptr.
  static Node* LruNext(const Node* leaf) { return leaf->lru_next_; }

  // The LRU index order: older last access first, ties in ascending key
  // order (pre-order position).
  static bool LruBefore(const Node* a, const Node* b) {
    if (a->last_access_ != b->last_access_) {
      return a->last_access_ < b->last_access_;
    }
    return KeyOrderLess(a, b);
  }

  // Pre-order traversal over all non-root nodes.
  template <typename Fn>
  void Visit(Fn&& fn) {
    VisitSubtree(root_.get(), fn);
  }

  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  // Non-root nodes.
  size_t NodeCount() const { return node_count_; }
  // Leaves the LRU index has examined: one per leaf a FindLruLeaf walk
  // steps over and one per comparison that positions a leaf in the index.
  // Deterministic, so it gates the index's cost exactly.
  int64_t lru_leaves_examined() const { return *examined_; }

 private:
  // Splits `child`'s edge at `offset`: the head stays in place, the tail
  // becomes its only child and takes over its children and its LRU slot.
  Node* SplitChild(Node* child, size_t offset) {
    DS_CHECK_GT(offset, 0u);
    DS_CHECK_LT(offset, child->edge.size());
    auto tail = std::make_unique<Node>();
    tail->edge.assign(child->edge.begin() + static_cast<ptrdiff_t>(offset), child->edge.end());
    tail->value = child->value.SplitTail(offset);
    tail->last_access_ = child->last_access_;
    tail->evictable_ = child->evictable_;
    tail->children = std::move(child->children);
    tail->depth = child->depth;
    tail->children.ForEach([&](BlockKey, Node* grandchild) { grandchild->parent = tail.get(); });
    child->edge.resize(offset);
    child->depth = child->depth - tail->edge.size();
    child->children = ChildMap{};
    tail->parent = child;
    if (child->indexed_) {
      // Same full key string and last access as the head had: same position.
      Replace(child, tail.get());
    }
    BlockKey tail_first = tail->edge.front();
    ++node_count_;
    return child->children.Emplace(tail_first, std::move(tail));
  }

  // Ascending key order of two nodes' full key strings; an ancestor sorts
  // before its descendants.
  static bool KeyOrderLess(const Node* a, const Node* b) {
    size_t depth_a = Hops(a);
    size_t depth_b = Hops(b);
    bool a_shallower = depth_a < depth_b;
    for (; depth_a > depth_b; --depth_a) {
      a = a->parent;
    }
    for (; depth_b > depth_a; --depth_b) {
      b = b->parent;
    }
    if (a == b) {
      return a_shallower;
    }
    while (a->parent != b->parent) {
      a = a->parent;
      b = b->parent;
    }
    return a->edge.front() < b->edge.front();
  }

  static size_t Hops(const Node* node) {
    size_t hops = 0;
    for (; node->parent != nullptr; node = node->parent) {
      ++hops;
    }
    return hops;
  }

  // Brings `node`'s index membership in line with its state.
  void Sync(Node* node) {
    bool want = node != root_.get() && node->evictable_ && node->is_leaf();
    if (want && !node->indexed_) {
      Link(node);
    } else if (!want && node->indexed_) {
      Unlink(node);
    }
  }

  // Inserts `node` at its LruBefore position, searching from whichever end
  // of the index is nearer its last access (the tail, for the usual touch
  // at the current time).
  void Link(Node* node) {
    Node* after = nullptr;  // node goes right after this one (nullptr: head)
    if (lru_head_ != nullptr) {
      TimeNs t = node->last_access_;
      TimeNs head_t = lru_head_->last_access_;
      TimeNs tail_t = lru_tail_->last_access_;
      if (t >= tail_t || (t > head_t && t - head_t > tail_t - t)) {
        after = lru_tail_;
        while (after != nullptr) {
          ++*examined_;
          if (!LruBefore(node, after)) {
            break;
          }
          after = after->lru_prev_;
        }
      } else {
        Node* before = lru_head_;
        while (before != nullptr) {
          ++*examined_;
          if (!LruBefore(before, node)) {
            break;
          }
          before = before->lru_next_;
        }
        after = before != nullptr ? before->lru_prev_ : lru_tail_;
      }
    }
    node->lru_prev_ = after;
    node->lru_next_ = after != nullptr ? after->lru_next_ : lru_head_;
    (node->lru_prev_ != nullptr ? node->lru_prev_->lru_next_ : lru_head_) = node;
    (node->lru_next_ != nullptr ? node->lru_next_->lru_prev_ : lru_tail_) = node;
    node->indexed_ = true;
  }

  void Unlink(Node* node) {
    (node->lru_prev_ != nullptr ? node->lru_prev_->lru_next_ : lru_head_) = node->lru_next_;
    (node->lru_next_ != nullptr ? node->lru_next_->lru_prev_ : lru_tail_) = node->lru_prev_;
    node->lru_prev_ = nullptr;
    node->lru_next_ = nullptr;
    node->indexed_ = false;
  }

  // Puts `to` into `from`'s index slot.
  void Replace(Node* from, Node* to) {
    to->lru_prev_ = from->lru_prev_;
    to->lru_next_ = from->lru_next_;
    (to->lru_prev_ != nullptr ? to->lru_prev_->lru_next_ : lru_head_) = to;
    (to->lru_next_ != nullptr ? to->lru_next_->lru_prev_ : lru_tail_) = to;
    to->indexed_ = true;
    from->lru_prev_ = nullptr;
    from->lru_next_ = nullptr;
    from->indexed_ = false;
  }

  template <typename Fn>
  static void VisitSubtree(Node* node, Fn& fn) {
    node->children.ForEach([&](BlockKey, Node* child) {
      fn(child);
      VisitSubtree(child, fn);
    });
  }

  std::unique_ptr<Node> root_;
  size_t node_count_ = 0;
  // Intrusive doubly linked list of indexed leaves in LruBefore order.
  Node* lru_head_ = nullptr;
  Node* lru_tail_ = nullptr;
  int64_t own_examined_ = 0;
  int64_t* examined_;
};

}  // namespace deepserve::rtc

#endif  // DEEPSERVE_RTC_RADIX_TREE_H_
