#include "core/live_store.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <utility>

#include "storage/snapshot.h"
#include "util/file_io.h"

namespace rdftx {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotFileName[] = "snapshot.rtxsnap";

std::string SnapshotPath(const std::string& dir) {
  return dir + "/" + kSnapshotFileName;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + storage::WalSegmentFileName(seq);
}

/// Every write and checkpoint refuses with this once the store is
/// poisoned (see LiveStore::PoisonLocked).
Status PoisonedError() {
  return Status::IoError("log write failed earlier; reopen the store");
}

/// WAL segments present in `dir`, sorted by sequence number.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (storage::ParseWalSegmentFileName(name, &seq)) {
      segments.emplace_back(seq, entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("cannot list " + dir + ": " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Makes a replayed segment durable as recovery keeps it: cuts a torn
/// tail at `replay.valid_bytes` (so a later crash cannot resurrect the
/// discarded bytes), then fsyncs. Records the previous process appended
/// but never fsynced may sit only in the page cache; after this they
/// are on disk, which is what lets recovery start durable_lsn_ at the
/// last replayed LSN.
Status SyncReplayedSegment(const std::string& path,
                           const storage::WalReplayResult& replay) {
  if (replay.torn_tail) {
    std::error_code ec;
    fs::resize_file(path, replay.valid_bytes, ec);
    if (ec) {
      return Status::IoError("truncate " + path + ": " + ec.message());
    }
  }
  auto file = util::AppendFile::Open(path);
  if (!file.ok()) return file.status();
  return file->Sync();
}

/// Applies one replayed WAL record to the recovery targets. `applied`
/// is the highest LSN applied so far (records at or below it — already
/// folded into the snapshot, or replayed from an undeleted older
/// segment — are skipped idempotently).
Status ApplyRecord(const storage::WalRecord& rec, TemporalGraph* graph,
                   Dictionary* dict, uint64_t* applied) {
  if (rec.lsn <= *applied) return Status::OK();
  if (rec.lsn != *applied + 1) {
    return Status::Corruption("wal lsn gap: expected " +
                              std::to_string(*applied + 1) + ", found " +
                              std::to_string(rec.lsn));
  }
  switch (rec.type) {
    case storage::WalRecordType::kTerm:
      if (rec.term_id == kInvalidTerm) {
        return Status::Corruption("wal term record with invalid id");
      }
      if (rec.term_id <= dict->size()) {
        // Already interned (snapshot or earlier segment): the bytes
        // must agree, otherwise two histories disagree on this id.
        if (dict->Decode(rec.term_id) != rec.term) {
          return Status::Corruption("wal term record contradicts dictionary");
        }
      } else if (rec.term_id == dict->size() + 1) {
        if (dict->Intern(rec.term) != rec.term_id) {
          return Status::Corruption("wal term record re-interns known bytes");
        }
      } else {
        return Status::Corruption("wal term record skips dictionary ids");
      }
      break;
    case storage::WalRecordType::kAssert:
      RDFTX_RETURN_IF_ERROR(graph->Assert(rec.triple, rec.time));
      break;
    case storage::WalRecordType::kRetract:
      RDFTX_RETURN_IF_ERROR(graph->Retract(rec.triple, rec.time));
      break;
  }
  *applied = rec.lsn;
  return Status::OK();
}

/// The deltas of `head` and every chunk before it with LSN above `lsn`,
/// in LSN order.
std::vector<Delta> DeltasAfter(const DeltaChunk* head, uint64_t lsn) {
  std::vector<Delta> out;
  for (const DeltaChunk* c = head; c != nullptr; c = c->prev().get()) {
    std::copy_if(c->deltas().begin(), c->deltas().end(),
                 std::back_inserter(out),
                 [lsn](const Delta& d) { return d.lsn > lsn; });
  }
  std::sort(out.begin(), out.end(),
            [](const Delta& x, const Delta& y) { return x.lsn < y.lsn; });
  return out;
}

}  // namespace

LiveStore::LiveStore(std::string dir, const LiveStoreOptions& options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<LiveStore>> LiveStore::OpenOrRecover(
    const std::string& dir, const LiveStoreOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }

  std::unique_ptr<LiveStore> store(new LiveStore(dir, options));
  auto graph = std::make_unique<TemporalGraph>(options.graph);
  uint64_t snap_lsn = 0;

  util::MutexLock lock(&store->mu_);
  if (fs::exists(SnapshotPath(dir), ec)) {
    RDFTX_RETURN_IF_ERROR(storage::ReadSnapshot(SnapshotPath(dir), graph.get(),
                                                &store->dict_, &snap_lsn));
  }

  auto segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();

  uint64_t applied = snap_lsn;
  bool saw_torn = false;
  for (size_t i = 0; i < segments->size(); ++i) {
    const auto& [seq, path] = (*segments)[i];
    storage::WalReplayResult replay;
    RDFTX_RETURN_IF_ERROR(storage::ReplayWalFile(
        path,
        [&](const storage::WalRecord& rec) {
          return ApplyRecord(rec, graph.get(), &store->dict_, &applied);
        },
        &replay));
    if (saw_torn && replay.records > 0) {
      // A tail can only be torn by the crash that ended the log;
      // committed records after a tear mean the tear is mid-history
      // damage, which replay must not paper over.
      return Status::Corruption("records follow a torn wal segment: " + path);
    }
    // A torn tail is recoverable crash residue — a mid-write tail, or a
    // segment the checkpoint pre-created (possibly not even a full
    // header) whose rotation never happened.
    saw_torn = saw_torn || replay.torn_tail;
    RDFTX_RETURN_IF_ERROR(SyncReplayedSegment(path, replay));
  }

  // Resume the newest segment — Open rewrites its header when the
  // torn-tail truncation above consumed it — or start segment 1 in a
  // fresh directory.
  store->wal_seq_ = segments->empty() ? 1 : segments->back().first;
  auto writer = storage::WalWriter::Open(SegmentPath(dir, store->wal_seq_));
  if (!writer.ok()) return writer.status();
  store->wal_ = std::move(*writer);

  store->base_ = std::shared_ptr<const TemporalGraph>(graph.release());
  store->head_ = nullptr;
  store->last_time_ = store->base_->last_time();
  store->published_time_ = store->last_time_;
  store->epoch_ = std::make_shared<const Epoch>(store->base_, nullptr,
                                                store->published_time_);
  store->next_lsn_ = applied + 1;
  store->appended_lsn_ = applied;
  // Every replayed segment was fsynced above, so durable_lsn_ keeps its
  // meaning — fsynced — from the first write on; checkpoint phase 1
  // skips its fsync on that basis.
  store->durable_lsn_ = applied;
  store->base_lsn_ = applied;

  if (options.checkpoint_after_deltas > 0) {
    store->checkpointer_ =
        std::thread([s = store.get()] { s->BackgroundCheckpointLoop(); });
  }
  return store;
}

LiveStore::~LiveStore() {
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    cv_.SignalAll();
  }
  if (checkpointer_.joinable()) checkpointer_.join();
  util::MutexLock lock(&mu_);
  // Best-effort: push unacked appends to disk. Acked writes were
  // already synced (or the caller opted out of sync_writes).
  // status-ignored: destructor; a failed sync only loses unacked writes.
  if (!poisoned_) wal_.Sync().IgnoreError();
}

// ---------------------------------------------------------------------------
// Write path

Status LiveStore::Assert(std::string_view s, std::string_view p,
                         std::string_view o, Chronon at) {
  const std::string_view terms[3] = {s, p, o};
  return Write(true, terms, Triple{}, at);
}

Status LiveStore::Retract(std::string_view s, std::string_view p,
                          std::string_view o, Chronon at) {
  const std::string_view terms[3] = {s, p, o};
  return Write(false, terms, Triple{}, at);
}

Status LiveStore::AssertId(const Triple& t, Chronon at) {
  return Write(true, nullptr, t, at);
}

Status LiveStore::RetractId(const Triple& t, Chronon at) {
  return Write(false, nullptr, t, at);
}

bool LiveStore::IsLiveLocked(const Triple& t) const {
  const auto it = liveness_.find(t);
  if (it != liveness_.end()) return it->second;
  Chronon start = 0;
  return base_->index(IndexOrder::kSpo)
      .FindLive(TemporalGraph::EncodeKey(IndexOrder::kSpo, t), &start);
}

Status LiveStore::CheckTimeLocked(Chronon at) const {
  if (at >= kChrononNow) {
    return Status::InvalidArgument("event time must be a finite chronon");
  }
  if (at < last_time_) {
    return Status::InvalidArgument(
        "transaction time must be nondecreasing (store is at " +
        std::to_string(last_time_) + ", write is at " + std::to_string(at) +
        ")");
  }
  return Status::OK();
}

Status LiveStore::ValidateLocked(bool is_assert, const Triple& t) {
  if (t.s == kInvalidTerm || t.p == kInvalidTerm || t.o == kInvalidTerm ||
      t.s > dict_.size() || t.p > dict_.size() || t.o > dict_.size()) {
    return Status::InvalidArgument("triple refers to unknown term ids");
  }
  if (is_assert == IsLiveLocked(t)) {
    return is_assert
               ? Status::AlreadyExists("assert of a currently live triple")
               : Status::NotFound("retract of a triple that is not live");
  }
  return Status::OK();
}

Status LiveStore::Write(bool is_assert, const std::string_view* terms,
                        Triple t, Chronon at) {
  util::MutexLock lock(&mu_);
  if (poisoned_) return PoisonedError();

  // Resolve term strings WITHOUT interning yet: a validation failure
  // must not leave unlogged ids in the dictionary.
  bool any_new_term = false;
  if (terms != nullptr) {
    t.s = dict_.Lookup(terms[0]);
    t.p = dict_.Lookup(terms[1]);
    t.o = dict_.Lookup(terms[2]);
    any_new_term =
        t.s == kInvalidTerm || t.p == kInvalidTerm || t.o == kInvalidTerm;
  }

  RDFTX_RETURN_IF_ERROR(CheckTimeLocked(at));
  if (!any_new_term) {
    RDFTX_RETURN_IF_ERROR(ValidateLocked(is_assert, t));
  } else if (!is_assert) {
    // A triple containing a never-seen term cannot be live.
    return Status::NotFound("retract of a triple that is not live");
  }

  // Point of no return: intern new terms and append term records ahead
  // of the delta that references them.
  Status st;
  if (terms != nullptr && any_new_term) {
    TermId* ids[3] = {&t.s, &t.p, &t.o};
    for (int i = 0; i < 3 && st.ok(); ++i) {
      if (*ids[i] != kInvalidTerm) continue;
      *ids[i] = dict_.Intern(terms[i]);
      st = wal_.Append(storage::WalRecord::Term(next_lsn_++, *ids[i],
                                                std::string(terms[i])));
    }
  }
  uint64_t delta_lsn = 0;
  if (st.ok()) {
    delta_lsn = next_lsn_++;
    st = wal_.Append(storage::WalRecord::Delta(delta_lsn, is_assert, t, at));
  }
  if (!st.ok()) return PoisonLocked(st);

  appended_lsn_ = delta_lsn;
  last_time_ = at;
  liveness_[t] = is_assert;
  pending_.push_back(Delta{delta_lsn, is_assert, t, at});

  if (!options_.sync_writes) {
    PublishLocked(appended_lsn_);
  } else {
    RDFTX_RETURN_IF_ERROR(CommitSyncLocked(delta_lsn));
  }
  MaybeSignalCheckpointLocked();
  return Status::OK();
}

Status LiveStore::PoisonLocked(Status st) {
  // The segment may now end mid-record, or hold records whose
  // durability is unknown; nothing after them could be trusted, so
  // refuse all further writes until reopen.
  poisoned_ = true;
  cv_.SignalAll();
  return st;
}

Status LiveStore::CommitSyncLocked(uint64_t target, bool keep_lock) {
  for (;;) {
    if (poisoned_) return PoisonedError();
    if (durable_lsn_ >= target) return Status::OK();
    if (sync_in_flight_) {
      cv_.Wait(&mu_);
      continue;
    }
    // Become the leader: one fsync covers everything appended so far,
    // including followers that arrived while we were waiting. With
    // group_commit, mu_ is dropped around the fsync so other writers
    // append meanwhile; wal_ cannot be rotated or re-synced while
    // sync_in_flight_, so the pointer stays valid.
    sync_in_flight_ = true;
    const uint64_t sync_to = appended_lsn_;
    storage::WalWriter* wal = &wal_;
    const bool unlock = options_.group_commit && !keep_lock;
    if (unlock) mu_.Unlock();
    Status st = wal->Sync();
    if (unlock) mu_.Lock();
    sync_in_flight_ = false;
    if (!st.ok()) return PoisonLocked(st);
    durable_lsn_ = std::max(durable_lsn_, sync_to);
    PublishLocked(durable_lsn_);
    cv_.SignalAll();
  }
}

void LiveStore::PublishLocked(uint64_t upto) {
  size_t n = 0;
  while (n < pending_.size() && pending_[n].lsn <= upto) ++n;
  if (n == 0) return;
  std::vector<Delta> batch(pending_.begin(),
                           pending_.begin() + static_cast<ptrdiff_t>(n));
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(n));
  published_time_ = std::max(published_time_, batch.back().time);
  head_ = DeltaChunk::Push(std::move(head_), std::move(batch));
  epoch_ = std::make_shared<const Epoch>(base_, head_, published_time_);
}

// ---------------------------------------------------------------------------
// Terms

Result<TermId> LiveStore::InternTerm(std::string_view term) {
  util::MutexLock lock(&mu_);
  if (poisoned_) return PoisonedError();
  TermId id = dict_.Lookup(term);
  if (id != kInvalidTerm) return id;  // already durable
  id = dict_.Intern(term);
  const uint64_t lsn = next_lsn_++;
  Status st = wal_.Append(storage::WalRecord::Term(lsn, id, std::string(term)));
  if (!st.ok()) return PoisonLocked(st);
  appended_lsn_ = lsn;
  if (options_.sync_writes) RDFTX_RETURN_IF_ERROR(CommitSyncLocked(lsn));
  return id;
}

TermId LiveStore::LookupTerm(std::string_view term) const {
  util::MutexLock lock(&mu_);
  return dict_.Lookup(term);
}

Result<std::string> LiveStore::DecodeTerm(TermId id) const {
  util::MutexLock lock(&mu_);
  return dict_.SafeDecode(id);
}

// ---------------------------------------------------------------------------
// Reads

std::shared_ptr<const Epoch> LiveStore::Snapshot() const {
  util::MutexLock lock(&mu_);
  return epoch_;
}

uint64_t LiveStore::last_durable_lsn() const {
  util::MutexLock lock(&mu_);
  return durable_lsn_;
}

uint64_t LiveStore::delta_backlog() const {
  util::MutexLock lock(&mu_);
  return (head_ ? head_->total() : 0) + pending_.size();
}

// ---------------------------------------------------------------------------
// Checkpointing

void LiveStore::MaybeSignalCheckpointLocked() {
  if (options_.checkpoint_after_deltas > 0 &&
      (head_ ? head_->total() : 0) >= options_.checkpoint_after_deltas) {
    cv_.SignalAll();
  }
}

void LiveStore::BackgroundCheckpointLoop() {
  mu_.Lock();
  while (!stop_) {
    const uint64_t backlog = head_ ? head_->total() : 0;
    if (backlog >= options_.checkpoint_after_deltas) {
      mu_.Unlock();
      const Status st = Checkpoint();
      mu_.Lock();
      if (st.ok()) continue;
      // Failed (e.g. injected fault): wait for the next write signal
      // instead of spinning.
    }
    cv_.Wait(&mu_);
  }
  mu_.Unlock();
}

Status LiveStore::Checkpoint() {
  util::MutexLock ckpt_lock(&ckpt_mu_);

  // Phase 0 (no mu_): durably pre-create the next segment so the
  // rotation below is a pure in-memory swap.
  uint64_t next_seq = 0;
  {
    util::MutexLock lock(&mu_);
    if (poisoned_) return PoisonedError();
    next_seq = wal_seq_ + 1;
  }
  // A file already at the next sequence number can only be the orphan
  // of a phase that failed before rotating (it never received records);
  // clear it rather than refusing to checkpoint forever.
  {
    std::error_code ec;
    fs::remove(SegmentPath(dir_, next_seq), ec);
  }
  auto next_writer = storage::WalWriter::Open(SegmentPath(dir_, next_seq));
  if (!next_writer.ok()) return next_writer.status();

  // Phase 1 (mu_): sync + publish everything appended, capture the
  // fold inputs, rotate the log. From here on new writes land in the
  // new segment with LSNs above ckpt_lsn.
  std::shared_ptr<const TemporalGraph> base;
  std::shared_ptr<const DeltaChunk> head;
  std::vector<uint8_t> dict_section;
  uint64_t ckpt_lsn = 0;
  {
    util::MutexLock lock(&mu_);
    // Wait out a leader's fsync, then sync the rest under mu_: the old
    // segment must be fully durable before it is rotated out. The sync
    // is skipped only when durable_lsn_ already covers appended_lsn_,
    // which holds because durable_lsn_ only ever counts fsynced records
    // (recovery fsyncs every segment it replays).
    while (sync_in_flight_) cv_.Wait(&mu_);
    RDFTX_RETURN_IF_ERROR(CommitSyncLocked(appended_lsn_, /*keep_lock=*/true));
    ckpt_lsn = std::max(base_lsn_, durable_lsn_);
    base = base_;
    head = head_;
    // The dictionary is append-mutable, so its section must be captured
    // here, under the lock; the base graph and chunks are immutable and
    // can be serialized outside it.
    dict_section = storage::SerializeDictionarySection(dict_);
    wal_ = std::move(*next_writer);
    wal_seq_ = next_seq;
  }

  if (checkpoint_fault_hook_) {
    RDFTX_RETURN_IF_ERROR(checkpoint_fault_hook_(CheckpointPhase::kAfterRotate));
  }

  // Phase 2 (no mu_): fold base + chunks into a fresh graph. The base
  // round-trips through its own serialized image — the one supported
  // way to clone a TemporalGraph — and the captured deltas replay on
  // top in LSN order.
  auto folded = std::make_unique<TemporalGraph>(options_.graph);
  {
    const std::vector<uint8_t> base_image =
        storage::SerializeSnapshot(*base, nullptr);
    RDFTX_RETURN_IF_ERROR(storage::ReadSnapshotFromBuffer(
        base_image.data(), base_image.size(), folded.get(), nullptr));
  }
  for (const Delta& d : DeltasAfter(head.get(), 0)) {
    RDFTX_RETURN_IF_ERROR(d.is_assert ? folded->Assert(d.triple, d.time)
                                      : folded->Retract(d.triple, d.time));
  }
  const std::vector<uint8_t> image = storage::SerializeSnapshotForCheckpoint(
      *folded, std::move(dict_section), ckpt_lsn);
  RDFTX_RETURN_IF_ERROR(
      util::WriteFileAtomic(SnapshotPath(dir_), image.data(), image.size()));

  if (checkpoint_fault_hook_) {
    RDFTX_RETURN_IF_ERROR(
        checkpoint_fault_hook_(CheckpointPhase::kAfterSnapshotWrite));
  }

  // Phase 3 (mu_): install the folded graph as the new epoch base. The
  // overlay keeps the deltas published after the capture (LSNs above
  // ckpt_lsn); publishing may have merged them into captured chunks.
  mu_.Lock();
  base_ = std::shared_ptr<const TemporalGraph>(folded.release());
  base_lsn_ = ckpt_lsn;
  std::vector<Delta> newer = DeltasAfter(head_.get(), ckpt_lsn);
  // Liveness entries covered by the new base are now derivable from it;
  // keep only what the surviving overlay + pending writes touched —
  // applied oldest-first so the newest delta per triple wins.
  liveness_.clear();
  for (const Delta& d : newer) liveness_[d.triple] = d.is_assert;
  for (const Delta& d : pending_) liveness_[d.triple] = d.is_assert;
  head_ = DeltaChunk::Push(nullptr, std::move(newer));
  epoch_ = std::make_shared<const Epoch>(base_, head_, published_time_);
  mu_.Unlock();

  if (checkpoint_fault_hook_) {
    RDFTX_RETURN_IF_ERROR(
        checkpoint_fault_hook_(CheckpointPhase::kBeforeSegmentDelete));
  }

  // Phase 4 (no mu_): the snapshot now covers every record in segments
  // below next_seq; delete them. A crash before (or during) this only
  // leaves segments whose records replay as no-ops.
  auto segments = ListSegments(dir_);
  if (!segments.ok()) return segments.status();
  bool removed = false;
  for (const auto& [seq, path] : *segments) {
    if (seq >= next_seq) continue;
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) {
      return Status::IoError("cannot remove " + path + ": " + ec.message());
    }
    removed = true;
  }
  if (removed) RDFTX_RETURN_IF_ERROR(util::SyncDir(dir_));
  return Status::OK();
}

}  // namespace rdftx
