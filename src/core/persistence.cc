// Binary serialization of a TAR-tree.
//
// The format preserves the exact index structure (node membership, boxes,
// distribution vectors, TIA records, normalizers), so a loaded tree has
// identical query results *and* identical node-access costs.
//
// Format v2 (current) is sectioned and checksummed. Little-endian host
// integers throughout. Layout:
//
//   "TART"            4-byte magic
//   u32 version = 2
//   section*          frame = u32 tag | u64 len | payload | u32 CRC-32C
//   footer            frame with tag 0xF00F whose payload is the CRC-32C
//                     of every byte before the footer frame (u32) followed
//                     by the tree's applied WAL LSN (u64)
//
// Sections (in order): Options(1), Pois(2), GlobalTia(3), Nodes(4). Each
// payload carries its own CRC so a flipped bit is pinned to a section; the
// footer checksum catches truncation at a frame boundary and trailing
// garbage. Every deserialized count is validated against the bytes that
// remain in its section before anything is allocated, and payloads are
// read in bounded chunks, so a corrupt length can never drive an
// unbounded allocation. Any other format version is rejected.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "core/tar_tree.h"

namespace tar {

namespace {

constexpr char kMagic[4] = {'T', 'A', 'R', 'T'};
constexpr std::uint32_t kFormatV2 = 2;

constexpr std::uint32_t kSectionOptions = 1;
constexpr std::uint32_t kSectionPois = 2;
constexpr std::uint32_t kSectionGlobalTia = 3;
constexpr std::uint32_t kSectionNodes = 4;
constexpr std::uint32_t kSectionFooter = 0xF00F;

/// The Options section's TIA-backend byte. Byte 1 named the B+-tree
/// backend, which is gone; flat has a byte of its own, so such a file is
/// refused instead of being read as flat.
constexpr std::uint8_t kBackendMvbt = 0;
constexpr std::uint8_t kBackendRemovedBpTree = 1;
constexpr std::uint8_t kBackendFlat = 2;

/// Payloads are consumed in chunks of at most this, so a corrupt section
/// length over-allocates by at most one chunk before the short read fails.
constexpr std::size_t kReadChunk = 64 * 1024;

const char* SectionName(std::uint32_t tag) {
  switch (tag) {
    case kSectionOptions:
      return "Options";
    case kSectionPois:
      return "Pois";
    case kSectionGlobalTia:
      return "GlobalTia";
    case kSectionNodes:
      return "Nodes";
    default:
      return nullptr;
  }
}

// ---------------------------------------------------------------------------
// Stream reading with byte-offset accounting. Every failure Status names
// the absolute file offset where the stream came up short.

class StreamReader {
 public:
  explicit StreamReader(std::istream& in) : in_(in) {}

  [[nodiscard]] Status ReadExact(void* dst, std::size_t n, const char* what) {
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    const auto got = static_cast<std::size_t>(in_.gcount());
    if (got != n || in_.bad()) {
      return Status::Corruption("truncated " + std::string(what) +
                                " at byte offset " + std::to_string(offset_) +
                                " (wanted " + std::to_string(n) + " bytes, got " +
                                std::to_string(got) + ")");
    }
    offset_ += n;
    return Status::OK();
  }

  template <typename T>
  [[nodiscard]] Status Pod(T* v, const char* what) {
    return ReadExact(v, sizeof(T), what);
  }

  std::uint64_t offset() const { return offset_; }

  /// True when the stream is exactly exhausted (peek hits EOF).
  bool AtEof() {
    return in_.peek() == std::char_traits<char>::eof();
  }

 private:
  std::istream& in_;
  std::uint64_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// v2 section payload writer/reader.

class ByteWriter {
 public:
  template <typename T>
  void Pod(const T& v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void Box(const Box3& box) {
    for (std::size_t d = 0; d < 3; ++d) {
      Pod(box.lo[d]);
      Pod(box.hi[d]);
    }
  }

  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over one section payload. Failure Statuses are
/// prefixed with the section name and carry the byte offset within it.
class ByteReader {
 public:
  ByteReader(const std::string& payload, const char* section)
      : payload_(payload), section_(section) {}

  [[nodiscard]] Status Pod(void* dst, std::size_t n, const char* what) {
    if (payload_.size() - off_ < n) {
      return Status::Corruption(
          std::string("section ") + section_ + ": truncated " + what +
          " at byte offset " + std::to_string(off_) + " (wanted " +
          std::to_string(n) + " bytes, " + std::to_string(remaining()) +
          " remain)");
    }
    std::memcpy(dst, payload_.data() + off_, n);
    off_ += n;
    return Status::OK();
  }

  template <typename T>
  [[nodiscard]] Status Pod(T* v, const char* what) {
    return Pod(v, sizeof(T), what);
  }

  /// Reads an element count and rejects it unless at least
  /// `min_bytes_per_element * count` bytes remain, so corrupt counts are
  /// caught before any allocation is sized from them.
  [[nodiscard]] Status Count(std::uint64_t* count,
                             std::uint64_t min_bytes_per_element,
                             const char* what) {
    TAR_RETURN_NOT_OK(Pod(count, what));
    if (min_bytes_per_element > 0 &&
        *count > remaining() / min_bytes_per_element) {
      return Status::Corruption(
          std::string("section ") + section_ + ": implausible " + what +
          " " + std::to_string(*count) + " at byte offset " +
          std::to_string(off_ - sizeof(std::uint64_t)) + " (needs at least " +
          std::to_string(*count * min_bytes_per_element) + " bytes, " +
          std::to_string(remaining()) + " remain)");
    }
    TAR_INJECT_FAULT("persist.load.reserve");
    return Status::OK();
  }

  [[nodiscard]] Status Box(Box3* box) {
    for (std::size_t d = 0; d < 3; ++d) {
      TAR_RETURN_NOT_OK(Pod(&box->lo[d], "box coordinate"));
      TAR_RETURN_NOT_OK(Pod(&box->hi[d], "box coordinate"));
    }
    return Status::OK();
  }

  /// Sections must be consumed exactly: leftover bytes mean the payload
  /// and its parser disagree about the contents.
  [[nodiscard]] Status ExpectEnd() const {
    if (off_ != payload_.size()) {
      return Status::Corruption(std::string("section ") + section_ + ": " +
                                std::to_string(remaining()) +
                                " trailing bytes after byte offset " +
                                std::to_string(off_));
    }
    return Status::OK();
  }

  std::uint64_t remaining() const { return payload_.size() - off_; }

 private:
  const std::string& payload_;
  const char* section_;
  std::size_t off_ = 0;
};

Status AppendTia(ByteWriter* w, const Tia& tia) {
  std::vector<TiaRecord> records;
  TAR_RETURN_NOT_OK(tia.Records(&records));
  w->Pod<std::uint64_t>(records.size());
  for (const TiaRecord& r : records) {
    w->Pod(r.extent.start);
    w->Pod(r.extent.end);
    w->Pod(r.aggregate);
  }
  return Status::OK();
}

Status ParseTia(ByteReader* r, Tia* tia) {
  std::uint64_t count = 0;
  // A TIA record is two timestamps and an aggregate: 24 bytes.
  TAR_RETURN_NOT_OK(r->Count(&count, 24, "TIA record count"));
  for (std::uint64_t i = 0; i < count; ++i) {
    TiaRecord rec;
    TAR_RETURN_NOT_OK(r->Pod(&rec.extent.start, "TIA record"));
    TAR_RETURN_NOT_OK(r->Pod(&rec.extent.end, "TIA record"));
    TAR_RETURN_NOT_OK(r->Pod(&rec.aggregate, "TIA record"));
    TAR_RETURN_NOT_OK(tia->Append(rec.extent, rec.aggregate));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// v2 frame emission. One frame: u32 tag | u64 len | payload | u32 crc.
// The `persist.write` failpoint is evaluated per frame; a torn fire
// persists only a prefix of the frame and fails, a flip fire silently
// corrupts one payload bit (the write "succeeds"; the section CRC pins it
// down at load time).

Status EmitSection(std::ostream& out, std::uint32_t tag, std::string payload,
                   std::uint32_t* file_crc) {
  const std::uint32_t clean_crc = Crc32c(payload.data(), payload.size());

  fail::FireResult fire;
  if (fail::FaultInjector::Global().enabled()) {
    fire = fail::FaultInjector::Global().Hit("persist.write");
  }
  switch (fire.action) {
    case fail::Action::kOff:
      break;
    case fail::Action::kError:
      return Status::IoError("injected I/O error at failpoint persist.write");
    case fail::Action::kAllocFail:
      return Status::ResourceExhausted(
          "injected allocation failure at failpoint persist.write");
    case fail::Action::kBitFlip:
      if (!payload.empty()) {
        const std::uint64_t bit = fire.seed % (payload.size() * 8);
        payload[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
      break;
    case fail::Action::kTornWrite:
      break;  // handled below, once the frame is assembled
    case fail::Action::kDelay:
      break;  // the sleep already happened inside Hit
  }

  std::string frame;
  frame.reserve(16 + payload.size());
  const auto len = static_cast<std::uint64_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(payload);
  frame.append(reinterpret_cast<const char*>(&clean_crc), sizeof(clean_crc));

  if (fire.action == fail::Action::kTornWrite) {
    const std::size_t keep = fire.seed % frame.size();
    out.write(frame.data(), static_cast<std::streamsize>(keep));
    out.flush();
    return Status::IoError(
        "injected torn write at failpoint persist.write (persisted " +
        std::to_string(keep) + " of " + std::to_string(frame.size()) +
        " frame bytes)");
  }

  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!out.good()) return Status::IoError("write failed");
  // The footer itself is excluded from the whole-file checksum.
  if (file_crc != nullptr) {
    *file_crc = Crc32cExtend(*file_crc, frame.data(), frame.size());
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Save (v2).

Status TarTree::Save(std::ostream& out) const {
  if (poisoned_) return PoisonedError("save");
  char preamble[8];
  std::memcpy(preamble, kMagic, 4);
  std::memcpy(preamble + 4, &kFormatV2, 4);
  out.write(preamble, sizeof(preamble));
  if (!out.good()) return Status::IoError("write failed");
  std::uint32_t file_crc = Crc32c(preamble, sizeof(preamble));

  // Options.
  {
    const std::uint8_t backend =
        options_.tia_backend == TiaBackend::kFlat ? kBackendFlat : kBackendMvbt;
    ByteWriter w;
    w.Pod<std::uint8_t>(static_cast<std::uint8_t>(options_.strategy));
    w.Pod(backend);
    w.Pod<std::uint64_t>(options_.node_size_bytes);
    w.Pod<std::uint64_t>(options_.tia_buffer_slots);
    w.Pod<std::uint64_t>(options_.tia_page_size);
    w.Pod(options_.grid.t0());
    w.Pod(options_.grid.epoch_length());
    w.Pod<std::uint8_t>(options_.space.empty() ? 1 : 0);
    w.Pod(options_.space.lo[0]);
    w.Pod(options_.space.lo[1]);
    w.Pod(options_.space.hi[0]);
    w.Pod(options_.space.hi[1]);
    TAR_RETURN_NOT_OK(EmitSection(out, kSectionOptions, w.str(), &file_crc));
  }

  // Normalizer state and POI registry.
  {
    ByteWriter w;
    w.Pod(max_total_);
    w.Pod<std::uint64_t>(poi_info_.size());
    for (const auto& [id, info] : poi_info_) {
      w.Pod(id);
      w.Pod(info.pos.x);
      w.Pod(info.pos.y);
      w.Pod(info.total);
    }
    TAR_RETURN_NOT_OK(EmitSection(out, kSectionPois, w.str(), &file_crc));
  }

  // Global TIA.
  {
    ByteWriter w;
    TAR_RETURN_NOT_OK(AppendTia(&w, *global_tia_));
    TAR_RETURN_NOT_OK(EmitSection(out, kSectionGlobalTia, w.str(), &file_crc));
  }

  // Live nodes, ids compacted. The root is written first so Load can
  // allocate in order.
  {
    std::map<NodeId, std::uint32_t> remap;
    std::vector<NodeId> order;
    if (root_ != kInvalidNodeId) {
      std::vector<NodeId> stack{root_};
      while (!stack.empty()) {
        NodeId id = stack.back();
        stack.pop_back();
        remap[id] = static_cast<std::uint32_t>(order.size());
        order.push_back(id);
        for (const Entry& e : nodes_[id]->entries) {
          if (!e.is_leaf_entry()) stack.push_back(e.child);
        }
      }
    }
    ByteWriter w;
    w.Pod<std::uint32_t>(root_ == kInvalidNodeId ? kInvalidNodeId : 0u);
    w.Pod<std::uint64_t>(order.size());
    for (NodeId id : order) {
      const Node& node = *nodes_[id];
      w.Pod(node.level);
      w.Pod<std::uint64_t>(node.entries.size());
      for (const Entry& e : node.entries) {
        w.Box(e.box);
        w.Pod(e.poi);
        w.Pod<std::uint32_t>(e.is_leaf_entry() ? kInvalidNodeId
                                               : remap.at(e.child));
        w.Pod<std::uint64_t>(e.distvec.size());
        for (std::int32_t v : e.distvec) w.Pod(v);
        TAR_RETURN_NOT_OK(AppendTia(&w, *e.tia));
      }
    }
    TAR_RETURN_NOT_OK(EmitSection(out, kSectionNodes, w.str(), &file_crc));
  }

  // Footer: whole-file checksum over everything before this frame, plus
  // the applied WAL LSN that makes the file a recovery checkpoint.
  {
    ByteWriter w;
    w.Pod(file_crc);
    w.Pod<std::uint64_t>(applied_lsn_);
    TAR_RETURN_NOT_OK(EmitSection(out, kSectionFooter, w.str(), nullptr));
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Load.

Result<std::unique_ptr<TarTree>> TarTree::Load(std::istream& in,
                                               const LoadOptions& load_options) {
  TAR_INJECT_FAULT("persist.read");
  StreamReader r(in);
  char magic[4];
  Status st = r.ReadExact(magic, sizeof(magic), "magic");
  if (!st.ok() || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("not a TAR-tree file (bad magic)");
  }
  std::uint32_t version = 0;
  TAR_RETURN_NOT_OK(r.Pod(&version, "format version"));
  if (version != kFormatV2) {
    return Status::NotSupported("unsupported TAR-tree format version " +
                                std::to_string(version));
  }
  // The whole-file checksum covers the preamble too.
  std::uint32_t file_crc = Crc32c(kMagic, sizeof(kMagic));
  file_crc = Crc32cExtend(file_crc, &version, sizeof(version));

  std::map<std::uint32_t, std::string> sections;
  Lsn footer_lsn = 0;
  bool got_footer = false;
  while (!got_footer) {
    const std::uint32_t crc_before_frame = file_crc;
    std::uint32_t tag = 0;
    TAR_RETURN_NOT_OK(r.Pod(&tag, "section tag"));

    if (tag == kSectionFooter) {
      std::uint64_t len = 0;
      TAR_RETURN_NOT_OK(r.Pod(&len, "footer length"));
      // The payload is the file CRC (u32) and the applied WAL LSN (u64).
      if (len != 12) {
        return Status::Corruption("footer: bad payload length " +
                                  std::to_string(len));
      }
      char payload[12] = {0};
      std::uint32_t frame_crc = 0;
      TAR_RETURN_NOT_OK(r.ReadExact(payload, len, "footer payload"));
      TAR_RETURN_NOT_OK(r.Pod(&frame_crc, "footer checksum"));
      if (frame_crc != Crc32c(payload, len)) {
        return Status::Corruption("footer checksum mismatch");
      }
      std::uint32_t stored_file_crc = 0;
      std::memcpy(&stored_file_crc, payload, sizeof(stored_file_crc));
      std::memcpy(&footer_lsn, payload + 4, sizeof(footer_lsn));
      if (stored_file_crc != crc_before_frame) {
        return Status::Corruption(
            "file checksum mismatch (stored " +
            std::to_string(stored_file_crc) + ", computed " +
            std::to_string(crc_before_frame) + "): truncated or corrupt file");
      }
      got_footer = true;
      break;
    }

    const char* name = SectionName(tag);
    if (name == nullptr) {
      return Status::Corruption("unknown section tag " + std::to_string(tag) +
                                " at byte offset " +
                                std::to_string(r.offset() - sizeof(tag)));
    }
    if (sections.count(tag) != 0) {
      return Status::Corruption(std::string("duplicate section ") + name);
    }
    file_crc = Crc32cExtend(file_crc, &tag, sizeof(tag));

    std::uint64_t len = 0;
    TAR_RETURN_NOT_OK(r.Pod(&len, "section length"));
    file_crc = Crc32cExtend(file_crc, &len, sizeof(len));

    // Chunked, bounded read: a corrupt length fails at the first short
    // chunk and can over-allocate by at most kReadChunk.
    std::string payload;
    const std::string what = std::string("section ") + name + " payload";
    while (payload.size() < len) {
      TAR_INJECT_FAULT("persist.read");
      const std::size_t old = payload.size();
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(kReadChunk,
                                                           len - old));
      payload.resize(old + chunk);
      TAR_RETURN_NOT_OK(r.ReadExact(&payload[old], chunk, what.c_str()));
    }
    file_crc = Crc32cExtend(file_crc, payload.data(), payload.size());

    std::uint32_t stored_crc = 0;
    TAR_RETURN_NOT_OK(r.Pod(&stored_crc, "section checksum"));
    file_crc = Crc32cExtend(file_crc, &stored_crc, sizeof(stored_crc));
    if (stored_crc != Crc32c(payload.data(), payload.size())) {
      return Status::Corruption(std::string("section ") + name +
                                " checksum mismatch");
    }
    sections[tag] = std::move(payload);
  }
  if (!r.AtEof()) {
    return Status::Corruption("trailing bytes after footer at byte offset " +
                              std::to_string(r.offset()));
  }
  for (std::uint32_t tag :
       {kSectionOptions, kSectionPois, kSectionGlobalTia, kSectionNodes}) {
    if (sections.count(tag) == 0) {
      return Status::Corruption(std::string("missing section ") +
                                SectionName(tag));
    }
  }

  // --- Options ---
  TarTreeOptions options;
  {
    ByteReader s(sections[kSectionOptions], "Options");
    std::uint8_t strategy = 0;
    std::uint8_t backend = 0;
    std::uint64_t node_size = 0;
    std::uint64_t buffer_slots = 0;
    std::uint64_t page_size = 0;
    Timestamp t0 = 0;
    Timestamp epoch_len = 0;
    std::uint8_t space_empty = 0;
    double sx0, sy0, sx1, sy1;
    TAR_RETURN_NOT_OK(s.Pod(&strategy, "strategy"));
    TAR_RETURN_NOT_OK(s.Pod(&backend, "TIA backend"));
    TAR_RETURN_NOT_OK(s.Pod(&node_size, "node size"));
    TAR_RETURN_NOT_OK(s.Pod(&buffer_slots, "buffer slots"));
    TAR_RETURN_NOT_OK(s.Pod(&page_size, "page size"));
    TAR_RETURN_NOT_OK(s.Pod(&t0, "epoch origin"));
    TAR_RETURN_NOT_OK(s.Pod(&epoch_len, "epoch length"));
    TAR_RETURN_NOT_OK(s.Pod(&space_empty, "space flag"));
    TAR_RETURN_NOT_OK(s.Pod(&sx0, "space bounds"));
    TAR_RETURN_NOT_OK(s.Pod(&sy0, "space bounds"));
    TAR_RETURN_NOT_OK(s.Pod(&sx1, "space bounds"));
    TAR_RETURN_NOT_OK(s.Pod(&sy1, "space bounds"));
    TAR_RETURN_NOT_OK(s.ExpectEnd());
    if (backend == kBackendRemovedBpTree) {
      return Status::NotSupported(
          "index uses the B+-tree TIA backend, which has been removed; "
          "rebuild it with --backend mvbt or flat");
    }
    if (strategy > 2 || (backend != kBackendMvbt && backend != kBackendFlat) ||
        node_size < 64 || page_size < 320 || epoch_len <= 0) {
      return Status::Corruption("section Options: implausible header fields");
    }
    options.strategy = static_cast<GroupingStrategy>(strategy);
    options.tia_backend =
        backend == kBackendFlat ? TiaBackend::kFlat : TiaBackend::kMvbt;
    options.node_size_bytes = node_size;
    options.tia_buffer_slots = buffer_slots;
    options.tia_page_size = page_size;
    options.grid = EpochGrid(t0, epoch_len);
    if (space_empty == 0) {
      options.space = Box2::Union(Box2::FromPoint({sx0, sy0}),
                                  Box2::FromPoint({sx1, sy1}));
    }
  }

  auto tree = std::make_unique<TarTree>(options);
  tree->applied_lsn_ = footer_lsn;

  // --- Pois ---
  {
    ByteReader s(sections[kSectionPois], "Pois");
    TAR_RETURN_NOT_OK(s.Pod(&tree->max_total_, "normalizer"));
    std::uint64_t num_pois = 0;
    // One registry row: u32 id + two doubles + i64 total = 28 bytes.
    TAR_RETURN_NOT_OK(s.Count(&num_pois, 28, "POI count"));
    for (std::uint64_t i = 0; i < num_pois; ++i) {
      PoiId id;
      PoiInfo info;
      TAR_RETURN_NOT_OK(s.Pod(&id, "POI id"));
      TAR_RETURN_NOT_OK(s.Pod(&info.pos.x, "POI position"));
      TAR_RETURN_NOT_OK(s.Pod(&info.pos.y, "POI position"));
      TAR_RETURN_NOT_OK(s.Pod(&info.total, "POI total"));
      tree->poi_info_[id] = info;
    }
    TAR_RETURN_NOT_OK(s.ExpectEnd());
    tree->num_pois_ = tree->poi_info_.size();
  }

  // --- GlobalTia ---
  {
    ByteReader s(sections[kSectionGlobalTia], "GlobalTia");
    TAR_RETURN_NOT_OK(
        ParseTia(&s, tree->global_tia_.get()).WithContext("section GlobalTia"));
    TAR_RETURN_NOT_OK(s.ExpectEnd());
  }

  // --- Nodes ---
  {
    ByteReader s(sections[kSectionNodes], "Nodes");
    std::uint32_t root_marker = 0;
    std::uint64_t node_count = 0;
    TAR_RETURN_NOT_OK(s.Pod(&root_marker, "root marker"));
    // A node is at minimum a level and an entry count: 12 bytes.
    TAR_RETURN_NOT_OK(s.Count(&node_count, 12, "node count"));
    for (std::uint64_t n = 0; n < node_count; ++n) {
      const std::string where = "node:" + std::to_string(n);
      std::int32_t level = 0;
      std::uint64_t entry_count = 0;
      TAR_RETURN_NOT_OK(s.Pod(&level, "node level"));
      // An entry is at minimum a box (48), poi (4), child (4), and the
      // distvec and TIA counts (16): 72 bytes.
      TAR_RETURN_NOT_OK(
          s.Count(&entry_count, 72, "entry count").WithContext(where));
      NodeId id = tree->NewNode(level);
      Node* node = tree->MutableNode(id);
      node->entries.reserve(entry_count);
      for (std::uint64_t i = 0; i < entry_count; ++i) {
        const std::string at = where + "/entry[" + std::to_string(i) + "]";
        Entry e;
        std::uint32_t child = kInvalidNodeId;
        std::uint64_t distvec_size = 0;
        TAR_RETURN_NOT_OK(s.Box(&e.box).WithContext(at));
        TAR_RETURN_NOT_OK(s.Pod(&e.poi, "entry POI").WithContext(at));
        TAR_RETURN_NOT_OK(s.Pod(&child, "entry child").WithContext(at));
        TAR_RETURN_NOT_OK(
            s.Count(&distvec_size, 4, "distvec size").WithContext(at));
        e.child = child;
        e.distvec.reserve(distvec_size);
        for (std::uint64_t d = 0; d < distvec_size; ++d) {
          std::int32_t v = 0;
          TAR_RETURN_NOT_OK(s.Pod(&v, "distvec element").WithContext(at));
          e.distvec.push_back(v);
        }
        e.tia = tree->NewTia();
        TAR_RETURN_NOT_OK(ParseTia(&s, e.tia.get()).WithContext(at));
        if (e.is_leaf_entry() && tree->poi_info_.count(e.poi) == 0) {
          return Status::Corruption(at + ": leaf entry for unregistered POI " +
                                    std::to_string(e.poi));
        }
        if (!e.is_leaf_entry() && e.child >= node_count) {
          return Status::Corruption(at + ": entry child " +
                                    std::to_string(e.child) +
                                    " out of range (node count " +
                                    std::to_string(node_count) + ")");
        }
        node->entries.push_back(std::move(e));
      }
    }
    TAR_RETURN_NOT_OK(s.ExpectEnd());
    if (root_marker != kInvalidNodeId && node_count > 0) {
      tree->root_ = root_marker;
    }
  }

  // Verify-on-load: a persisted index is untrusted input. The basic check
  // is the tree's own invariants; the deep pass (when the caller wires one
  // in, e.g. analysis::DeepVerifyOnLoad) additionally fscks every TIA and
  // backing index.
  if (load_options.verify) {
    TAR_RETURN_NOT_OK(tree->CheckInvariants());
  }
  if (load_options.deep_verifier) {
    TAR_RETURN_NOT_OK(load_options.deep_verifier(*tree));
  }
  return tree;
}

// ---------------------------------------------------------------------------
// File wrappers. SaveToFile is atomic: the bytes go to `path + ".tmp"`,
// which replaces `path` only after a fully flushed, error-free save. Any
// failure (real or injected) removes the temp file and leaves a
// pre-existing `path` untouched.

Status TarTree::SaveToFile(const std::string& path) const {
  TAR_INJECT_FAULT("persist.open");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return Status::IoError("cannot open " + tmp);
    Status st = Save(out);
    out.flush();
    if (st.ok() && !out.good()) st = Status::IoError("write failed: " + tmp);
    if (!st.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (fail::FaultInjector::Global().enabled()) {
    Status st = fail::InjectedFault("persist.rename");
    if (!st.ok()) {
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path + ": " +
                           std::strerror(err));
  }
  return Status::OK();
}

Result<std::unique_ptr<TarTree>> TarTree::LoadFromFile(
    const std::string& path, const LoadOptions& options) {
  TAR_INJECT_FAULT("persist.open");
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return Load(in, options);
}

}  // namespace tar
