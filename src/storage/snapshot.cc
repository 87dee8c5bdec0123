#include "storage/snapshot.h"

#include <array>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "dict/dictionary.h"
#include "mvbt/mvbt.h"
#include "rdf/temporal_graph.h"
#include "storage/snapshot_format.h"
#include "util/checksum.h"
#include "util/file_io.h"

namespace rdftx::storage {
namespace {

using mvbt::Entry;
using mvbt::Key3;
using mvbt::LeafBlock;
using mvbt::Mvbt;
using mvbt::MvbtOptions;
using mvbt::MvbtStats;

/// Serialized parent id of a node without a live parent.
constexpr uint64_t kNoNode = UINT64_MAX;

/// Sanity ceiling on the MVBT block capacity recorded in a snapshot.
/// Organic stores use a few hundred; anything above this is a crafted or
/// damaged file, and capacities that huge would make Mvbt allocate
/// capacity-sized scratch buffers per structure change.
constexpr uint64_t kMaxBlockCapacity = 1u << 20;

void WriteKey(ByteWriter* w, const Key3& k) {
  w->U64(k.a);
  w->U64(k.b);
  w->U64(k.c);
}

Status ReadKey(ByteReader* r, Key3* k) {
  RDFTX_RETURN_IF_ERROR(r->U64(&k->a));
  RDFTX_RETURN_IF_ERROR(r->U64(&k->b));
  return r->U64(&k->c);
}

Status ReadBool(ByteReader* r, const char* what, bool* out) {
  uint8_t v = 0;
  RDFTX_RETURN_IF_ERROR(r->U8(&v));
  if (v > 1) return r->Corrupt(std::string(what) + " flag is not 0/1");
  *out = v != 0;
  return Status::OK();
}

// --- writers -------------------------------------------------------------

std::vector<uint8_t> SerializeGraphMeta(const TemporalGraph& graph) {
  const MvbtOptions& opts = graph.index(IndexOrder::kSpo).options();
  ByteWriter w;
  w.U64(opts.block_capacity);
  w.U8(opts.compress_leaves ? 1 : 0);
  w.U32(graph.last_time());
  w.U64(graph.live_size());
  w.U32(4);  // index count, fixed in format version 1
  return w.Take();
}

std::vector<uint8_t> SerializeIndex(const Mvbt& tree, uint32_t order) {
  // Nodes are identified by creation order; arena nodes never move, so
  // the pointer -> id map is exact.
  std::unordered_map<const Mvbt::Node*, uint64_t> ids;
  ids.reserve(tree.node_count());
  for (size_t i = 0; i < tree.node_count(); ++i) ids.emplace(tree.node_at(i), i);

  ByteWriter w;
  w.U32(order);
  w.U32(tree.last_time());
  w.U64(tree.live_size());
  const MvbtStats& s = tree.stats();
  w.U64(s.version_splits);
  w.U64(s.key_splits);
  w.U64(s.merges);
  w.U64(s.inplace_splits);
  w.U64(s.leaf_nodes);
  w.U64(s.inner_nodes);
  w.U64(s.roots);

  std::vector<Mvbt::SnapshotRoot> roots;
  tree.ForEachRoot([&](Chronon start, Chronon end, const Mvbt::Node* n) {
    roots.push_back({start, end, ids.at(n)});
  });
  w.U64(roots.size());
  for (const auto& r : roots) {
    w.U32(r.start);
    w.U32(r.end);
    w.U64(r.node);
  }

  w.U64(tree.node_count());
  for (size_t i = 0; i < tree.node_count(); ++i) {
    const Mvbt::Node* n = tree.node_at(i);
    w.U8(n->is_leaf ? 1 : 0);
    w.U32(n->created);
    w.U32(n->dead);
    WriteKey(&w, n->range.lo);
    WriteKey(&w, n->range.hi);
    w.U64(n->parent != nullptr ? ids.at(n->parent) : kNoNode);
    w.U64(n->live_count);
    w.U64(n->created_live);
    w.U8(n->root_at_creation ? 1 : 0);
    w.U8(n->strong_exempt ? 1 : 0);
    if (n->is_leaf) {
      w.U8(n->block.compressed() ? 1 : 0);
      w.U64(n->block.count());
      if (n->block.compressed()) {
        const std::vector<uint8_t>& bytes = n->block.compressed_bytes();
        w.U64(bytes.size());
        w.Bytes(bytes.data(), bytes.size());
      } else {
        for (const Entry& e : n->block.plain_entries()) {
          WriteKey(&w, e.key);
          w.U32(e.start);
          w.U32(e.end);
        }
      }
      w.U64(n->backlinks.size());
      for (const Mvbt::Node* b : n->backlinks) w.U64(ids.at(b));
    } else {
      w.U64(n->entries.size());
      for (const Mvbt::IndexEntry& e : n->entries) {
        WriteKey(&w, e.min_key);
        w.U32(e.start);
        w.U32(e.end);
        w.U64(ids.at(e.child));
      }
    }
  }
  return w.Take();
}

std::vector<uint8_t> AssembleFile(
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& sections) {
  ByteWriter table;
  uint64_t offset = kHeaderBytes + sections.size() * kTableEntryBytes;
  for (const auto& [id, payload] : sections) {
    table.U32(id);
    table.U32(0);  // reserved
    table.U64(offset);
    table.U64(payload.size());
    table.U64(util::XxHash64(payload.data(), payload.size(), kChecksumSeed));
    offset += payload.size();
  }

  ByteWriter file;
  file.Bytes(kMagic, sizeof(kMagic));
  file.U32(kFormatVersion);
  file.U32(static_cast<uint32_t>(sections.size()));
  file.U64(util::XxHash64(table.buffer().data(), table.buffer().size(),
                          kChecksumSeed));
  file.Bytes(table.buffer().data(), table.buffer().size());
  for (const auto& [id, payload] : sections) {
    file.Bytes(payload.data(), payload.size());
  }
  return file.Take();
}

// --- readers -------------------------------------------------------------

Status ParseDictionary(ByteReader r, Dictionary* dict) {
  if (dict->size() != 0) {
    return Status::InvalidArgument(
        "snapshot load requires an empty dictionary");
  }
  uint64_t count = 0;
  RDFTX_RETURN_IF_ERROR(r.U64(&count));
  // Every serialized term occupies >= 4 bytes (its length prefix), so a
  // count beyond remaining/4 cannot be honest — reject before reserving.
  if (count > r.remaining() / 4) return r.Corrupt("term count exceeds payload");
  dict->Reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    RDFTX_RETURN_IF_ERROR(r.U32(&len));
    const uint8_t* p = nullptr;
    RDFTX_RETURN_IF_ERROR(r.Bytes(&p, len));
    const TermId id =
        dict->Intern(std::string_view(reinterpret_cast<const char*>(p), len));
    // A duplicate term would re-resolve to its first id and silently
    // alias two ids; ids must come out dense and in order.
    if (id != i + 1) return r.Corrupt("duplicate term in dictionary");
  }
  return r.ExpectEnd();
}

struct GraphMeta {
  uint64_t block_capacity = 0;
  bool compress_leaves = false;
  Chronon last_time = 0;
  uint64_t live_size = 0;
};

Status ParseGraphMeta(ByteReader r, GraphMeta* meta) {
  RDFTX_RETURN_IF_ERROR(r.U64(&meta->block_capacity));
  if (meta->block_capacity < 8 || meta->block_capacity > kMaxBlockCapacity) {
    return r.Corrupt("block capacity out of range");
  }
  RDFTX_RETURN_IF_ERROR(ReadBool(&r, "compress_leaves", &meta->compress_leaves));
  RDFTX_RETURN_IF_ERROR(r.U32(&meta->last_time));
  RDFTX_RETURN_IF_ERROR(r.U64(&meta->live_size));
  uint32_t index_count = 0;
  RDFTX_RETURN_IF_ERROR(r.U32(&index_count));
  if (index_count != 4) return r.Corrupt("index count is not 4");
  return r.ExpectEnd();
}

/// Wiring of one restored node: the serialized node-id references that
/// become pointers once every node exists.
struct NodeWiring {
  uint64_t parent = kNoNode;
  std::vector<uint64_t> backlinks;
  std::vector<uint64_t> children;  // aligned with Node::entries
};

Status ParseIndex(ByteReader r, uint32_t expected_order,
                  const GraphMeta& meta, const MvbtOptions& cache_opts,
                  std::unique_ptr<Mvbt>* out) {
  uint32_t order = 0;
  RDFTX_RETURN_IF_ERROR(r.U32(&order));
  if (order != expected_order) return r.Corrupt("index order tag mismatch");

  uint32_t last_time = 0;
  uint64_t live_size = 0;
  RDFTX_RETURN_IF_ERROR(r.U32(&last_time));
  RDFTX_RETURN_IF_ERROR(r.U64(&live_size));
  if (last_time != meta.last_time) {
    return r.Corrupt("index clock disagrees with graph meta");
  }
  if (live_size != meta.live_size) {
    return r.Corrupt("index live size disagrees with graph meta");
  }

  MvbtStats stats;
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.version_splits));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.key_splits));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.merges));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.inplace_splits));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.leaf_nodes));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.inner_nodes));
  RDFTX_RETURN_IF_ERROR(r.U64(&stats.roots));

  uint64_t root_count = 0;
  RDFTX_RETURN_IF_ERROR(r.U64(&root_count));
  if (root_count > r.remaining() / 16) {
    return r.Corrupt("root count exceeds payload");
  }
  std::vector<Mvbt::SnapshotRoot> roots;
  roots.reserve(root_count);
  for (uint64_t i = 0; i < root_count; ++i) {
    Mvbt::SnapshotRoot root;
    RDFTX_RETURN_IF_ERROR(r.U32(&root.start));
    RDFTX_RETURN_IF_ERROR(r.U32(&root.end));
    RDFTX_RETURN_IF_ERROR(r.U64(&root.node));
    roots.push_back(root);
  }

  uint64_t node_count = 0;
  RDFTX_RETURN_IF_ERROR(r.U64(&node_count));

  MvbtOptions opts;
  opts.block_capacity = meta.block_capacity;
  opts.compress_leaves = meta.compress_leaves;
  opts.leaf_cache_bytes = cache_opts.leaf_cache_bytes;
  auto tree = std::make_unique<Mvbt>(opts);
  RDFTX_RETURN_IF_ERROR(tree->BeginRestore());

  // Pass 1: append and fill every node; references stay ids for now.
  // Each serialized node consumes >= 91 payload bytes, so even with a
  // lying node_count the arena growth is bounded by the section size —
  // the loop dies on the first truncated read.
  std::vector<NodeWiring> wiring;
  for (uint64_t id = 0; id < node_count; ++id) {
    Mvbt::Node* n = tree->AppendRestoredNode();
    NodeWiring wire;
    RDFTX_RETURN_IF_ERROR(ReadBool(&r, "is_leaf", &n->is_leaf));
    RDFTX_RETURN_IF_ERROR(r.U32(&n->created));
    RDFTX_RETURN_IF_ERROR(r.U32(&n->dead));
    RDFTX_RETURN_IF_ERROR(ReadKey(&r, &n->range.lo));
    RDFTX_RETURN_IF_ERROR(ReadKey(&r, &n->range.hi));
    RDFTX_RETURN_IF_ERROR(r.U64(&wire.parent));
    uint64_t live_count = 0;
    uint64_t created_live = 0;
    RDFTX_RETURN_IF_ERROR(r.U64(&live_count));
    RDFTX_RETURN_IF_ERROR(r.U64(&created_live));
    n->live_count = live_count;
    n->created_live = created_live;
    RDFTX_RETURN_IF_ERROR(
        ReadBool(&r, "root_at_creation", &n->root_at_creation));
    RDFTX_RETURN_IF_ERROR(ReadBool(&r, "strong_exempt", &n->strong_exempt));

    if (n->is_leaf) {
      bool compressed = false;
      RDFTX_RETURN_IF_ERROR(ReadBool(&r, "compressed", &compressed));
      uint64_t count = 0;
      RDFTX_RETURN_IF_ERROR(r.U64(&count));
      if (compressed) {
        uint64_t nbytes = 0;
        RDFTX_RETURN_IF_ERROR(r.U64(&nbytes));
        const uint8_t* p = nullptr;
        RDFTX_RETURN_IF_ERROR(r.Bytes(&p, nbytes));
        Result<LeafBlock> block =
            LeafBlock::FromCompressedBytes({p, p + nbytes}, count);
        if (!block.ok()) return r.Corrupt(block.status().message());
        n->block = std::move(block).value();
      } else {
        if (count > r.remaining() / 32) {
          return r.Corrupt("leaf entry count exceeds payload");
        }
        std::vector<Entry> entries;
        entries.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          Entry e;
          RDFTX_RETURN_IF_ERROR(ReadKey(&r, &e.key));
          RDFTX_RETURN_IF_ERROR(r.U32(&e.start));
          RDFTX_RETURN_IF_ERROR(r.U32(&e.end));
          entries.push_back(e);
        }
        Result<LeafBlock> block = LeafBlock::FromEntries(std::move(entries));
        if (!block.ok()) return r.Corrupt(block.status().message());
        n->block = std::move(block).value();
      }
      uint64_t backlink_count = 0;
      RDFTX_RETURN_IF_ERROR(r.U64(&backlink_count));
      if (backlink_count > r.remaining() / 8) {
        return r.Corrupt("backlink count exceeds payload");
      }
      wire.backlinks.reserve(backlink_count);
      for (uint64_t i = 0; i < backlink_count; ++i) {
        uint64_t b = 0;
        RDFTX_RETURN_IF_ERROR(r.U64(&b));
        wire.backlinks.push_back(b);
      }
    } else {
      uint64_t entry_count = 0;
      RDFTX_RETURN_IF_ERROR(r.U64(&entry_count));
      if (entry_count > r.remaining() / 36) {
        return r.Corrupt("inner entry count exceeds payload");
      }
      n->entries.reserve(entry_count);
      wire.children.reserve(entry_count);
      for (uint64_t i = 0; i < entry_count; ++i) {
        Mvbt::IndexEntry e;
        RDFTX_RETURN_IF_ERROR(ReadKey(&r, &e.min_key));
        RDFTX_RETURN_IF_ERROR(r.U32(&e.start));
        RDFTX_RETURN_IF_ERROR(r.U32(&e.end));
        uint64_t child = 0;
        RDFTX_RETURN_IF_ERROR(r.U64(&child));
        n->entries.push_back(e);
        wire.children.push_back(child);
      }
    }
    wiring.push_back(std::move(wire));
  }
  RDFTX_RETURN_IF_ERROR(r.ExpectEnd());

  // Pass 2: resolve id references into pointers, bounds-checking every id.
  for (uint64_t id = 0; id < node_count; ++id) {
    Mvbt::Node* n = tree->RestoredNode(id);
    const NodeWiring& wire = wiring[id];
    if (wire.parent != kNoNode) {
      if (wire.parent >= node_count) return r.Corrupt("dangling parent id");
      n->parent = tree->RestoredNode(wire.parent);
    }
    n->backlinks.reserve(wire.backlinks.size());
    for (uint64_t b : wire.backlinks) {
      if (b >= node_count) return r.Corrupt("dangling backlink id");
      Mvbt::Node* pred = tree->RestoredNode(b);
      if (!pred->is_leaf) return r.Corrupt("backlink to an inner node");
      n->backlinks.push_back(pred);
    }
    for (size_t i = 0; i < wire.children.size(); ++i) {
      if (wire.children[i] >= node_count) {
        return r.Corrupt("dangling child id");
      }
      n->entries[i].child = tree->RestoredNode(wire.children[i]);
    }
  }

  Status finish = tree->FinishRestore(roots, last_time, live_size, stats);
  if (!finish.ok()) return r.Corrupt(finish.message());
  *out = std::move(tree);
  return Status::OK();
}

Status ParseWalState(ByteReader r, uint64_t* last_applied_lsn) {
  RDFTX_RETURN_IF_ERROR(r.U64(last_applied_lsn));
  return r.ExpectEnd();
}

std::vector<uint8_t> SerializeSnapshotImpl(
    const TemporalGraph& graph, std::vector<uint8_t>* dict_section,
    const uint64_t* last_applied_lsn) {
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> sections;
  if (dict_section != nullptr) {
    sections.emplace_back(kSectionDictionary, std::move(*dict_section));
  }
  sections.emplace_back(kSectionGraphMeta, SerializeGraphMeta(graph));
  for (uint32_t i = 0; i < 4; ++i) {
    sections.emplace_back(
        kSectionIndexBase + i,
        SerializeIndex(graph.index(static_cast<IndexOrder>(i)), i));
  }
  if (last_applied_lsn != nullptr) {
    ByteWriter w;
    w.U64(*last_applied_lsn);
    sections.emplace_back(kSectionWalState, w.Take());
  }
  return AssembleFile(sections);
}

}  // namespace

std::vector<uint8_t> SerializeDictionarySection(const Dictionary& dict) {
  ByteWriter w;
  w.U64(dict.size());
  for (TermId id = 1; id <= dict.size(); ++id) {
    const std::string& term = dict.Decode(id);
    w.U32(static_cast<uint32_t>(term.size()));
    w.Bytes(reinterpret_cast<const uint8_t*>(term.data()), term.size());
  }
  return w.Take();
}

std::vector<uint8_t> SerializeSnapshot(const TemporalGraph& graph,
                                       const Dictionary* dict) {
  std::vector<uint8_t> dict_section;
  if (dict != nullptr) dict_section = SerializeDictionarySection(*dict);
  return SerializeSnapshotImpl(graph, dict != nullptr ? &dict_section : nullptr,
                               nullptr);
}

std::vector<uint8_t> SerializeSnapshotForCheckpoint(
    const TemporalGraph& graph, std::vector<uint8_t> dict_section,
    uint64_t last_applied_lsn) {
  return SerializeSnapshotImpl(graph, &dict_section, &last_applied_lsn);
}

Status WriteSnapshot(const TemporalGraph& graph, const Dictionary* dict,
                     const std::string& path) {
  const std::vector<uint8_t> image = SerializeSnapshot(graph, dict);
  return util::WriteFileAtomic(path, image.data(), image.size());
}

Status ReadSnapshotFromBuffer(const uint8_t* data, size_t size,
                              TemporalGraph* graph, Dictionary* dict,
                              uint64_t* last_applied_lsn) {
  if (size < kHeaderBytes) {
    return Status::Corruption("snapshot header truncated");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  ByteReader header(data + sizeof(kMagic), kHeaderBytes - sizeof(kMagic),
                    "header");
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint64_t table_hash = 0;
  RDFTX_RETURN_IF_ERROR(header.U32(&version));
  RDFTX_RETURN_IF_ERROR(header.U32(&section_count));
  RDFTX_RETURN_IF_ERROR(header.U64(&table_hash));
  // Each version has its own layout, so no other one can be parsed.
  if (version != kFormatVersion) {
    return Status::NotSupported(
        "snapshot format version " + std::to_string(version) +
        " is not supported (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  if (section_count > (size - kHeaderBytes) / kTableEntryBytes) {
    return Status::Corruption("section table truncated");
  }

  const uint8_t* table = data + kHeaderBytes;
  const size_t table_bytes = size_t{section_count} * kTableEntryBytes;
  if (util::XxHash64(table, table_bytes, kChecksumSeed) != table_hash) {
    return Status::Corruption("section table checksum mismatch");
  }

  // Parse the (hash-verified) table, bounds-check every extent, then
  // verify each payload hash before a single payload byte is parsed.
  std::unordered_map<uint32_t, std::pair<const uint8_t*, size_t>> sections;
  ByteReader tr(table, table_bytes, "section table");
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionEntry e;
    uint32_t reserved = 0;
    RDFTX_RETURN_IF_ERROR(tr.U32(&e.id));
    RDFTX_RETURN_IF_ERROR(tr.U32(&reserved));
    RDFTX_RETURN_IF_ERROR(tr.U64(&e.offset));
    RDFTX_RETURN_IF_ERROR(tr.U64(&e.length));
    RDFTX_RETURN_IF_ERROR(tr.U64(&e.checksum));
    if (e.offset > size || e.length > size - e.offset) {
      return Status::Corruption("section " + SectionName(e.id) +
                                " extends past end of file");
    }
    if (util::XxHash64(data + e.offset, e.length, kChecksumSeed) !=
        e.checksum) {
      return Status::Corruption("section " + SectionName(e.id) +
                                " checksum mismatch");
    }
    if (!sections.emplace(e.id, std::make_pair(data + e.offset, e.length))
             .second) {
      return Status::Corruption("duplicate section " + SectionName(e.id));
    }
  }

  const auto meta_it = sections.find(kSectionGraphMeta);
  if (meta_it == sections.end()) {
    return Status::Corruption("snapshot missing graph-meta section");
  }
  GraphMeta meta;
  RDFTX_RETURN_IF_ERROR(
      ParseGraphMeta(ByteReader(meta_it->second.first, meta_it->second.second,
                                SectionName(kSectionGraphMeta)),
                     &meta));

  if (dict != nullptr) {
    const auto dict_it = sections.find(kSectionDictionary);
    if (dict_it == sections.end()) {
      return Status::NotFound("snapshot has no dictionary section");
    }
    RDFTX_RETURN_IF_ERROR(ParseDictionary(
        ByteReader(dict_it->second.first, dict_it->second.second,
                   SectionName(kSectionDictionary)),
        dict));
  }

  const MvbtOptions& cache_opts = graph->index(IndexOrder::kSpo).options();
  std::array<std::unique_ptr<Mvbt>, 4> indices;
  for (uint32_t i = 0; i < 4; ++i) {
    const uint32_t id = kSectionIndexBase + i;
    const auto it = sections.find(id);
    if (it == sections.end()) {
      return Status::Corruption("snapshot missing " + SectionName(id) +
                                " section");
    }
    RDFTX_RETURN_IF_ERROR(
        ParseIndex(ByteReader(it->second.first, it->second.second,
                              SectionName(id)),
                   i, meta, cache_opts, &indices[i]));
  }

  const auto wal_it = sections.find(kSectionWalState);
  uint64_t wal_lsn = 0;
  if (wal_it != sections.end()) {
    RDFTX_RETURN_IF_ERROR(ParseWalState(
        ByteReader(wal_it->second.first, wal_it->second.second,
                   SectionName(kSectionWalState)),
        &wal_lsn));
  }
  if (last_applied_lsn != nullptr) *last_applied_lsn = wal_lsn;

  return graph->InstallRestoredIndices(std::move(indices));
}

Status ReadSnapshot(const std::string& path, TemporalGraph* graph,
                    Dictionary* dict, uint64_t* last_applied_lsn) {
  Result<util::MappedFile> file = util::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  return ReadSnapshotFromBuffer(file->data(), file->size(), graph, dict,
                                last_applied_lsn);
}

}  // namespace rdftx::storage
