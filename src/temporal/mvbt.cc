#include "temporal/mvbt.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace tar::mvbt {

namespace {

/// Entries whose lifetime starts at the split version are invisible in the
/// historical node (which is only reachable for versions < v), so they move
/// to the copy rather than being duplicated.
bool MovesToCopy(const Entry& e, Version v) {
  return e.alive() && e.v_start == v;
}

}  // namespace

Mvbt::Mvbt(PageFile* file, BufferPool* pool, OwnerId owner)
    : pool_(pool), owner_(owner), file_(file),
      capacity_(NodeLayout::Capacity(file->page_size())) {
  TAR_CHECK(capacity_ >= 8 && "page size too small for an MVBT node");
  min_live_ = std::max<std::size_t>(2, capacity_ / 5);
  strong_low_ = min_live_ + std::max<std::size_t>(1, min_live_ / 2);
  strong_high_ = capacity_ - min_live_;
  // A key split of > strong_high_ live entries must leave both halves at or
  // above strong_low_, or splits could cascade forever.
  TAR_CHECK(strong_high_ + 1 >= 2 * strong_low_ &&
            strong_high_ > strong_low_);
}

void Mvbt::PutEntry(Page* page, std::size_t index, const Entry& e) {
  const std::size_t off =
      NodeLayout::kHeaderBytes + index * NodeLayout::kEntryBytes;
  page->WriteAt<Key>(off, e.key_lo);
  page->WriteAt<Key>(off + 8, e.key_hi);
  page->WriteAt<Version>(off + 16, e.v_start);
  page->WriteAt<Version>(off + 24, e.v_end);
  page->WriteAt<Value>(off + 32, e.value);
}

void Mvbt::Decode(PageView page, Node* node) {
  node->is_leaf = page.ReadAt<std::uint8_t>(0) != 0;
  const std::uint16_t count = page.ReadAt<std::uint16_t>(2);
  node->entries.resize(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    node->entries[i] = EntryAt(page, i);
  }
}

Status Mvbt::LoadForUpdate(PageId id, Node* node) const {
  TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(id));
  Decode(page->view(), node);
  return Status::OK();
}

Status Mvbt::Store(PageId id, const Node& node, const std::uint8_t** bytes) {
  if (node.entries.size() > capacity_) {
    return Status::Corruption("MVBT node exceeds block capacity");
  }
  TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(id));
  if (bytes != nullptr) *bytes = page->data();
  page->WriteAt<std::uint8_t>(0, node.is_leaf ? 1 : 0);
  page->WriteAt<std::uint16_t>(2, static_cast<std::uint16_t>(
                                      node.entries.size()));
  for (std::size_t i = 0; i < node.entries.size(); ++i) {
    PutEntry(page, i, node.entries[i]);
  }
  return Status::OK();
}

PageId Mvbt::AllocateNode(const Node& node, Status* st,
                          const std::uint8_t** bytes) {
  Result<PageId> id = file_->Allocate();
  if (!id.ok()) {
    if (st != nullptr) *st = id.status();
    return kInvalidPageId;
  }
  Status s = Store(id.ValueOrDie(), node, bytes);
  if (!s.ok() && st != nullptr) *st = s;
  return id.ValueOrDie();
}

void Mvbt::CloseRoot(Version v) {
  roots_.back().v_end = v;
  if (roots_.back().v_end == roots_.back().v_start) roots_.pop_back();
  live_root_ = LiveRoot{};
}

void Mvbt::OpenRoot(Version v, PageId page, bool is_leaf,
                    const std::uint8_t* bytes) {
  roots_.push_back(RootEntry{v, kVersionAlive, page});
  live_root_ = LiveRoot{page, is_leaf, bytes};
}

std::optional<Mvbt::RootEntry> Mvbt::RootAt(Version v) const {
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (it->v_start <= v && v < it->v_end) return *it;
    if (it->v_end <= v) break;  // roots_ is ordered by version
  }
  return std::nullopt;
}

Result<const Page*> Mvbt::FindLeafPath(Version v, Key key,
                                       Path* path) const {
  PageId page_id = RootPageAt(v);
  if (page_id == kInvalidPageId) {
    return Status::NotFound("empty tree at version");
  }
  for (;;) {
    if (path->height == Path::kMaxHeight) {
      return Status::Corruption("MVBT descent deeper than " +
                                std::to_string(Path::kMaxHeight) +
                                " levels: router cycle");
    }
    path->pages[path->height++] = page_id;
    TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(page_id));
    if (page->ReadAt<std::uint8_t>(0) != 0) return page;
    const std::uint16_t count = page->ReadAt<std::uint16_t>(2);
    PageId next = kInvalidPageId;
    for (std::uint16_t i = 0; i < count; ++i) {
      const Entry e = EntryAt(page->view(), i);
      if (e.alive() && e.key_lo <= key && key < e.key_hi) {
        next = static_cast<PageId>(e.value);
        break;
      }
    }
    if (next == kInvalidPageId) {
      return Status::Corruption("router gap: no live child covers key");
    }
    page_id = next;
  }
}

Status Mvbt::Insert(Version v, Key key, Value value) {
  if (v < last_version_) {
    return Status::InvalidArgument("versions must be non-decreasing");
  }
  if (key == kKeyMax) {
    return Status::InvalidArgument("kKeyMax is reserved as a sentinel");
  }
  last_version_ = v;
  Entry record{key, key, v, kVersionAlive, value};

  if (roots_.empty() || roots_.back().v_end != kVersionAlive) {
    Node root;
    root.is_leaf = true;
    root.entries.push_back(record);
    Status st = Status::OK();
    const std::uint8_t* bytes = nullptr;
    PageId page = AllocateNode(root, &st, &bytes);
    TAR_RETURN_NOT_OK(st);
    OpenRoot(v, page, true, bytes);
    return Status::OK();
  }

  Path path;
  TAR_ASSIGN_OR_RETURN(const Page* leaf, FindLeafPath(v, key, &path));
  const std::uint16_t count = leaf->ReadAt<std::uint16_t>(2);
  std::size_t live = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    const Entry e = EntryAt(leaf->view(), i);
    if (!e.alive()) continue;
    if (e.key_lo == key) {
      return Status::AlreadyExists("live key already present");
    }
    ++live;
  }
  if (count + 1u <= capacity_ && KeepsWeakCondition(path, live + 1)) {
    // What Restructure's Store of the grown leaf would change: the new
    // entry at the end and the entry count.
    TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(path.leaf()));
    PutEntry(page, count, record);
    page->WriteAt<std::uint16_t>(2, static_cast<std::uint16_t>(count + 1));
    return Status::OK();
  }
  Node node;
  Decode(leaf->view(), &node);
  node.entries.push_back(record);
  return Restructure(v, path, path.height - 1, std::move(node));
}

Status Mvbt::Erase(Version v, Key key) {
  if (v < last_version_) {
    return Status::InvalidArgument("versions must be non-decreasing");
  }
  if (roots_.empty() || roots_.back().v_end != kVersionAlive) {
    return Status::NotFound("key not alive");
  }
  last_version_ = v;
  Path path;
  TAR_ASSIGN_OR_RETURN(const Page* leaf, FindLeafPath(v, key, &path));
  const std::uint16_t count = leaf->ReadAt<std::uint16_t>(2);
  std::size_t live = 0;
  std::size_t slot = count;
  Entry erased;
  for (std::uint16_t i = 0; i < count; ++i) {
    const Entry e = EntryAt(leaf->view(), i);
    if (!e.alive()) continue;
    ++live;
    if (slot == count && e.key_lo == key) {
      slot = i;
      erased = e;
    }
  }
  if (slot == count) return Status::NotFound("key not alive");
  if (erased.v_start != v && KeepsWeakCondition(path, live - 1)) {
    // What Restructure's Store of the leaf would change: the entry's end.
    TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(path.leaf()));
    erased.v_end = v;
    PutEntry(page, slot, erased);
    return Status::OK();
  }
  Node node;
  Decode(leaf->view(), &node);
  if (erased.v_start == v) {
    // Inserted and deleted at the same version: never visible.
    node.entries.erase(node.entries.begin() +
                       static_cast<std::ptrdiff_t>(slot));
  } else {
    node.entries[slot].v_end = v;
  }
  return Restructure(v, path, path.height - 1, std::move(node));
}

Status Mvbt::Restructure(Version v, const Path& path, std::size_t level,
                         Node node) {
  PageId page = path.pages[level];
  bool is_root = (level == 0);
  std::size_t live = node.CountAliveEntries();

  bool overflow = node.entries.size() > capacity_;
  bool weak_underflow = !is_root && live < min_live_;
  // An empty live leaf root may simply persist (empty tree from v on) once
  // its historical entries are stored; the root directory stays as is.
  if (!overflow && !weak_underflow) {
    TAR_RETURN_NOT_OK(Store(page, node));
    if (is_root && !node.is_leaf && live == 1) {
      // Height decrease: the single live child becomes the root from v on.
      for (const Entry& e : node.entries) {
        if (e.alive()) {
          const auto child_id = static_cast<PageId>(e.value);
          TAR_ASSIGN_OR_RETURN(const Page* child, file_->ReadPage(child_id));
          CloseRoot(v);
          OpenRoot(v, child_id, child->ReadAt<std::uint8_t>(0) != 0,
                   child->data());
          break;
        }
      }
    }
    return Status::OK();
  }

  ParentOp op;
  if (!is_root) {
    Node parent;
    TAR_RETURN_NOT_OK(LoadForUpdate(path.pages[level - 1], &parent));
    TAR_RETURN_NOT_OK(VersionSplit(v, page, node, &parent, &op));
    // Apply the op to the parent: kill the replaced children, append the
    // new routers.
    for (PageId dead : op.dead_children) {
      for (std::size_t i = 0; i < parent.entries.size(); ++i) {
        Entry& e = parent.entries[i];
        if (e.alive() && static_cast<PageId>(e.value) == dead) {
          if (e.v_start == v) {
            parent.entries.erase(parent.entries.begin() + i);
          } else {
            e.v_end = v;
          }
          break;
        }
      }
    }
    for (const Entry& e : op.new_entries) parent.entries.push_back(e);
    return Restructure(v, path, level - 1, std::move(parent));
  }

  // Root-level structural change.
  TAR_RETURN_NOT_OK(VersionSplit(v, page, node, nullptr, &op));
  CloseRoot(v);
  if (op.new_entries.size() == 1) {
    OpenRoot(v, static_cast<PageId>(op.new_entries[0].value), node.is_leaf,
             op.copy_bytes);
  } else {
    Node new_root;
    new_root.is_leaf = false;
    new_root.entries = op.new_entries;
    Status st = Status::OK();
    const std::uint8_t* bytes = nullptr;
    PageId root_page = AllocateNode(new_root, &st, &bytes);
    TAR_RETURN_NOT_OK(st);
    OpenRoot(v, root_page, false, bytes);
  }
  return Status::OK();
}

Status Mvbt::VersionSplit(Version v, PageId page_id, const Node& node,
                          Node* parent, ParentOp* op) {
  // Partition entries: live ones move/copy into the new node; the
  // historical node keeps everything except entries born at v (which are
  // invisible during its lifetime [.., v)).
  Node copy;
  copy.is_leaf = node.is_leaf;
  Node historical;
  historical.is_leaf = node.is_leaf;
  for (const Entry& e : node.entries) {
    if (e.alive()) copy.entries.push_back(e);
    if (!MovesToCopy(e, v)) historical.entries.push_back(e);
  }
  TAR_RETURN_NOT_OK(Store(page_id, historical));
  op->dead_children.push_back(page_id);

  // Responsibility range of this node, read from the parent's live router
  // (the whole key space for the root).
  Key lo = kKeyMin;
  Key hi = kKeyMax;
  if (parent != nullptr) {
    for (const Entry& e : parent->entries) {
      if (e.alive() && static_cast<PageId>(e.value) == page_id) {
        lo = e.key_lo;
        hi = e.key_hi;
        break;
      }
    }
  }

  // Strong version condition, lower bound: merge with a key-adjacent
  // sibling (version-splitting it as well).
  if (parent != nullptr && copy.entries.size() < strong_low_) {
    const Entry* sibling = nullptr;
    for (const Entry& e : parent->entries) {
      if (!e.alive() || static_cast<PageId>(e.value) == page_id) continue;
      if (e.key_hi == lo || e.key_lo == hi) {
        sibling = &e;
        break;
      }
    }
    if (sibling != nullptr) {
      PageId sib_page = static_cast<PageId>(sibling->value);
      Node sib;
      TAR_RETURN_NOT_OK(LoadForUpdate(sib_page, &sib));
      Node sib_hist;
      sib_hist.is_leaf = sib.is_leaf;
      for (const Entry& e : sib.entries) {
        if (e.alive()) copy.entries.push_back(e);
        if (!MovesToCopy(e, v)) sib_hist.entries.push_back(e);
      }
      TAR_RETURN_NOT_OK(Store(sib_page, sib_hist));
      op->dead_children.push_back(sib_page);
      lo = std::min(lo, sibling->key_lo);
      hi = std::max(hi, sibling->key_hi);
    }
  }

  std::sort(copy.entries.begin(), copy.entries.end(),
            [](const Entry& a, const Entry& b) { return a.key_lo < b.key_lo; });

  // Strong version condition, upper bound: key split.
  if (copy.entries.size() > strong_high_) {
    std::size_t mid = copy.entries.size() / 2;
    // The split key must strictly separate the two halves.
    while (mid < copy.entries.size() &&
           copy.entries[mid].key_lo == copy.entries.front().key_lo) {
      ++mid;
    }
    if (mid == copy.entries.size()) {
      return Status::Corruption("cannot key-split: all keys equal");
    }
    Key split = copy.entries[mid].key_lo;
    Node left;
    left.is_leaf = copy.is_leaf;
    left.entries.assign(copy.entries.begin(), copy.entries.begin() + mid);
    Node right;
    right.is_leaf = copy.is_leaf;
    right.entries.assign(copy.entries.begin() + mid, copy.entries.end());
    Status st = Status::OK();
    PageId left_page = AllocateNode(left, &st);
    TAR_RETURN_NOT_OK(st);
    PageId right_page = AllocateNode(right, &st);
    TAR_RETURN_NOT_OK(st);
    op->new_entries.push_back(
        Entry{lo, split, v, kVersionAlive, static_cast<Value>(left_page)});
    op->new_entries.push_back(
        Entry{split, hi, v, kVersionAlive, static_cast<Value>(right_page)});
    return Status::OK();
  }

  Status st = Status::OK();
  PageId copy_page = AllocateNode(copy, &st, &op->copy_bytes);
  TAR_RETURN_NOT_OK(st);
  op->new_entries.push_back(
      Entry{lo, hi, v, kVersionAlive, static_cast<Value>(copy_page)});
  return Status::OK();
}

Result<std::optional<Value>> Mvbt::Lookup(Version v, Key key,
                                          AccessStats* stats) const {
  PageId page_id = RootPageAt(v);
  if (page_id == kInvalidPageId) return std::optional<Value>{};
  for (;;) {
    TAR_ASSIGN_OR_RETURN(const PageView page, FetchForQuery(page_id, stats));
    bool is_leaf = page.ReadAt<std::uint8_t>(0) != 0;
    std::uint16_t count = page.ReadAt<std::uint16_t>(2);
    if (is_leaf) {
      for (std::uint16_t i = 0; i < count; ++i) {
        Entry e = EntryAt(page, i);
        if (e.AliveAt(v) && e.key_lo == key) {
          return std::optional<Value>{e.value};
        }
      }
      return std::optional<Value>{};
    }
    PageId next = kInvalidPageId;
    for (std::uint16_t i = 0; i < count; ++i) {
      Entry e = EntryAt(page, i);
      if (e.AliveAt(v) && e.key_lo <= key && key < e.key_hi) {
        next = static_cast<PageId>(e.value);
        break;
      }
    }
    if (next == kInvalidPageId) {
      return Status::Corruption("router gap: no child covers key at version");
    }
    page_id = next;
  }
}

Status Mvbt::RangeScan(Version v, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>* out,
                       AccessStats* stats) const {
  out->clear();
  TAR_RETURN_NOT_OK(Scan(v, lo, hi, stats, [out](Key key, Value value) {
    out->emplace_back(key, value);
  }));
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Result<std::size_t> Mvbt::CountAlive(Version v) const {
  std::size_t n = 0;
  // [kKeyMin, kKeyMax] is closed on both ends, matching RangeScan's
  // inclusive bounds (kKeyMax - 1 would drop a record at the top key).
  TAR_RETURN_NOT_OK(
      Scan(v, kKeyMin, kKeyMax, nullptr, [&n](Key, Value) { ++n; }));
  return n;
}

Status Mvbt::CheckInvariants() const {
  // The live-root cache must name the root directory's open entry; the
  // walk at the latest version below checks its bytes and leaf flag
  // against the root page itself.
  const bool open = !roots_.empty() && roots_.back().v_end == kVersionAlive;
  if (open ? live_root_.page != roots_.back().page
           : live_root_.page != kInvalidPageId) {
    return Status::Corruption(
        "stale cached live root: page " + std::to_string(live_root_.page) +
        " but the root directory's open entry is " +
        (open ? "page " + std::to_string(roots_.back().page) : "none"));
  }
  // Check at each version where the root changed, plus the latest version.
  std::vector<Version> versions;
  for (const RootEntry& r : roots_) versions.push_back(r.v_start);
  versions.push_back(last_version_);

  for (Version v : versions) {
    auto root = RootAt(v);
    if (!root.has_value()) continue;
    // Iterative DFS with (page, is_root, lo, hi, depth, path). The path
    // is the page-id chain from the root, reported on corruption so a
    // failure names the broken node.
    struct Item {
      PageId page;
      bool is_root;
      Key lo, hi;
      std::size_t depth;
      std::string path;
    };
    const std::string at_version = "@v" + std::to_string(v);
    std::vector<Item> stack{{root->page, true, kKeyMin, kKeyMax, 0,
                             "root" + at_version + "/page:" +
                                 std::to_string(root->page)}};
    std::optional<std::size_t> leaf_depth;
    while (!stack.empty()) {
      Item item = stack.back();
      stack.pop_back();
      TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(item.page));
      Node node;
      Decode(page->view(), &node);
      if (item.is_root && v == last_version_ &&
          (page->data() != live_root_.bytes ||
           node.is_leaf != live_root_.is_leaf)) {
        return Status::Corruption("stale cached live root at " + item.path +
                                  ": its byte address or leaf flag differs");
      }
      if (node.entries.size() > capacity_) {
        return Status::Corruption("node over capacity at " + item.path);
      }
      std::size_t live = 0;
      for (const Entry& e : node.entries) live += e.AliveAt(v);
      if (!item.is_root && live < min_live_) {
        return Status::Corruption("weak version condition violated at " +
                                  item.path);
      }
      if (node.is_leaf) {
        if (leaf_depth.has_value() && *leaf_depth != item.depth) {
          return Status::Corruption("leaves at different depths at " +
                                    item.path);
        }
        leaf_depth = item.depth;
        for (const Entry& e : node.entries) {
          if (e.AliveAt(v) &&
              (e.key_lo < item.lo || e.key_lo >= item.hi)) {
            return Status::Corruption("leaf key outside responsibility at " +
                                      item.path);
          }
        }
        continue;
      }
      // Live children must partition [lo, hi).
      std::vector<Entry> kids;
      for (const Entry& e : node.entries) {
        if (e.AliveAt(v)) kids.push_back(e);
      }
      std::sort(kids.begin(), kids.end(), [](const Entry& a, const Entry& b) {
        return a.key_lo < b.key_lo;
      });
      Key cursor = item.lo;
      for (const Entry& e : kids) {
        if (e.key_lo != cursor) {
          return Status::Corruption("router ranges do not partition at " +
                                    item.path);
        }
        cursor = e.key_hi;
        stack.push_back(Item{static_cast<PageId>(e.value), false, e.key_lo,
                             e.key_hi, item.depth + 1,
                             item.path + "/page:" +
                                 std::to_string(e.value)});
      }
      if (live > 0 && cursor != item.hi) {
        return Status::Corruption("router ranges do not cover the range at " +
                                  item.path);
      }
    }
  }
  return Status::OK();
}

}  // namespace tar::mvbt
