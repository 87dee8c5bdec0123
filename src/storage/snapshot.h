// On-disk snapshot persistence for the RDF-TX store: serializes the
// dictionary, the four MVBT indices (inner nodes, leaf blocks in their
// existing delta-encoded byte form, backlinks as node-id references),
// and graph metadata into a single checksummed file.
// Loading memory-maps the file (with a buffered fallback), validates
// every section checksum eagerly, and reconstructs the node graph from
// the id table — any corruption surfaces as a Status error naming the
// failing section, never a crash.
#ifndef RDFTX_STORAGE_SNAPSHOT_H_
#define RDFTX_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace rdftx {
class Dictionary;
class TemporalGraph;
}  // namespace rdftx

namespace rdftx::storage {

/// Serializes `graph` (and `dict` when non-null) into the snapshot file
/// payload. Leaf blocks are stored verbatim — compressed leaves are
/// never re-encoded — so saving is a single pass over the node arenas.
std::vector<uint8_t> SerializeSnapshot(const TemporalGraph& graph,
                                       const Dictionary* dict);

/// Serializes just the dictionary section payload. The live-store
/// checkpoint captures this under its writer mutex (the dictionary is
/// append-mutable) while the immutable base graph is serialized outside
/// the lock.
std::vector<uint8_t> SerializeDictionarySection(const Dictionary& dict);

/// Checkpoint variant of SerializeSnapshot: takes a pre-captured
/// dictionary section payload and records `last_applied_lsn` in a
/// wal-state section, marking every WAL record with lsn <= it as folded
/// into this image (replay skips them).
std::vector<uint8_t> SerializeSnapshotForCheckpoint(
    const TemporalGraph& graph, std::vector<uint8_t> dict_section,
    uint64_t last_applied_lsn);

/// SerializeSnapshot + atomic write to `path` (tmp file + rename).
Status WriteSnapshot(const TemporalGraph& graph, const Dictionary* dict,
                     const std::string& path);

/// Restores `graph` (and `dict` when non-null) from an in-memory
/// snapshot image. Both targets must be freshly constructed and empty.
/// Section checksums are validated before any payload byte is
/// interpreted, every node/term reference is bounds-checked during
/// reconstruction, and the rebuilt forest passes the full MVBT
/// structural validation before the call succeeds. On error the targets
/// are unusable and must be discarded.
Status ReadSnapshotFromBuffer(const uint8_t* data, size_t size,
                              TemporalGraph* graph, Dictionary* dict);

/// As above, and additionally reports the wal-state section via
/// `last_applied_lsn` (0 when the snapshot has none — e.g. one written
/// by plain SaveSnapshot, which predates WAL integration).
Status ReadSnapshotFromBuffer(const uint8_t* data, size_t size,
                              TemporalGraph* graph, Dictionary* dict,
                              uint64_t* last_applied_lsn);

/// Opens `path` (mmap with buffered fallback) and restores from it.
Status ReadSnapshot(const std::string& path, TemporalGraph* graph,
                    Dictionary* dict);

/// ReadSnapshot reporting the wal-state LSN (see above).
Status ReadSnapshot(const std::string& path, TemporalGraph* graph,
                    Dictionary* dict, uint64_t* last_applied_lsn);

}  // namespace rdftx::storage

#endif  // RDFTX_STORAGE_SNAPSHOT_H_
