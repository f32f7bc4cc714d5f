// Embedded persistent table store — a concurrent, group-commit storage
// engine.
//
// The paper stores VO membership, ACLs and session state in a server-side
// database: every request's session and ACL checks are answered from it,
// and sessions survive server restarts because they live here rather than
// in process memory. Here the checks hit write-through caches in
// SessionManager and AclManager, and this store stays the source of truth
// behind them. This module is that database: named
// tables of string key → string value, durable via an append-only journal
// plus snapshot compaction, recoverable after a crash that tears the
// final journal record.
//
// Engine layout (DESIGN.md "Storage engine"):
//
//   * Sharded memtable. Entries are striped over N lock-striped shards
//     keyed by hash(table, key); each shard holds its own
//     util::SharedMutex, so writers on different shards never contend
//     and readers of one shard never wait for writers of another.
//     keys()/scan_prefix()/tables() merge the per-shard sorted views.
//   * Snapshot reads. Values are immutable, shared
//     (std::shared_ptr<const std::string>): get()/get_shared() take only
//     a shard shared-lock for a pointer grab and never block behind the
//     journal — a writer holds a shard lock only for the in-memory apply
//     and the commit-queue push, never across file I/O.
//   * WAL group commit. Mutators append encoded records to an in-memory
//     commit queue; a dedicated journal thread batches queued records
//     into one writev(2) + one fdatasync(2) per group
//     (StoreOptions::commit_interval_us / commit_batch_max). put() acks
//     after the memtable apply + enqueue (async durability, the paper's
//     default); put_durable()/erase_durable() return only after the
//     record's group reached disk; sync() is a full durability barrier.
//   * Background checkpoint. Compaction runs on the journal thread from
//     a consistent per-shard freeze (journal rotation first, then
//     per-shard copies, then an atomic snapshot rename), so writers are
//     never stalled behind a snapshot write.
//
// Crash semantics: recovery replays snapshot.db, then journal.old (a
// compaction interrupted between snapshot rename and journal unlink),
// then journal.log, discarding a torn trailing record; any tear or
// leftover journal.old is folded into a fresh snapshot before the store
// accepts writes, so new records never land after torn bytes. Journal
// write/fsync failures (disk full) mark the store unavailable: durable
// writers get the error synchronously and later mutations throw instead
// of acking writes that can no longer be journaled
// (tests/db_crash_test.cpp proves both with SIGKILL and RLIMIT_FSIZE).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace clarens::db {

/// Engine tuning. The defaults serve the server; benchmarks and tests
/// override them to ablate one mechanism at a time.
struct StoreOptions {
  /// Lock stripes for the memtable (rounded up to a power of two,
  /// clamped to [1, 1024]).
  std::size_t shards = 16;
  /// Batched journal commits. false = every record is written (and, for
  /// durable ops, fsynced) individually in queue order — the per-op
  /// commit behaviour of the old single-mutex store, kept as the
  /// `group_commit_off` ablation.
  bool group_commit = true;
  /// How long the journal thread waits for more writers to join a group
  /// before paying the fdatasync, when no durable writer is already
  /// waiting. 0 = commit whatever is queued immediately.
  std::uint32_t commit_interval_us = 200;
  /// Largest record count per writev/fdatasync group.
  std::size_t commit_batch_max = 256;
  /// Journal size that triggers a background checkpoint.
  std::size_t compact_threshold = 8 * 1024 * 1024;
};

class Store {
 public:
  /// In-memory store (no persistence; durable variants degrade to their
  /// plain forms).
  Store();

  /// Persistent store rooted at `directory` (created if absent). Loads
  /// the snapshot and replays the journal; a torn final record is
  /// discarded, matching crash semantics.
  explicit Store(const std::string& directory, StoreOptions options = {});

  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Ack after the memtable apply + journal enqueue (async durability).
  void put(const std::string& table, const std::string& key,
           const std::string& value);
  void put(const std::string& table, const std::string& key,
           std::string&& value);

  /// Ack only after the record's commit group has been fdatasync'ed.
  /// Concurrent durable writers share one fsync (group commit).
  void put_durable(const std::string& table, const std::string& key,
                   std::string value);

  std::optional<std::string> get(const std::string& table,
                                 const std::string& key) const;

  /// Zero-copy snapshot read: the returned record is immutable and
  /// stays valid after any later overwrite/erase. nullptr = absent.
  std::shared_ptr<const std::string> get_shared(const std::string& table,
                                                const std::string& key) const;

  /// Returns true if the key existed.
  bool erase(const std::string& table, const std::string& key);

  /// erase() with put_durable()'s ack semantics.
  bool erase_durable(const std::string& table, const std::string& key);

  bool contains(const std::string& table, const std::string& key) const;

  /// All keys in a table, sorted (merged across shards).
  std::vector<std::string> keys(const std::string& table) const;

  /// Key/value pairs whose key starts with `prefix`, sorted by key.
  std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& table, const std::string& prefix) const;

  /// Remove an entire table. Returns number of keys dropped.
  std::size_t drop_table(const std::string& table);

  std::vector<std::string> tables() const;

  std::size_t size(const std::string& table) const;

  /// Fold the journal into a fresh snapshot. Requests a checkpoint from
  /// the journal thread and waits for one that starts after this call
  /// (so everything already enqueued is folded). Also triggered
  /// automatically when the journal exceeds compact_threshold.
  void compact();

  /// Durability barrier: returns once every record enqueued before the
  /// call has been written *and* fdatasync'ed. Throws if the journal
  /// has failed.
  void sync();

  bool persistent() const { return !directory_.empty(); }

  /// Total store operations since construction (every public accessor or
  /// mutator counts one). Lets tests and benchmarks assert that cached
  /// hot paths really bypass the store — the warm authenticated RPC path
  /// must leave this counter untouched.
  std::uint64_t operations() const {
    return ops_.load(std::memory_order_relaxed);
  }

 private:
  using Table = std::map<std::string, std::shared_ptr<const std::string>>;

  /// One lock stripe of the memtable. Shard locks are innermost among
  /// service-visible locks (hierarchy level `db.store.shard`); the only
  /// lock ever taken under one is the commit-queue lock
  /// (`db.store.journal`).
  struct Shard {
    mutable util::SharedMutex mutex{util::LockLevel::kDbStoreShard};
    std::map<std::string, Table> tables CLARENS_GUARDED_BY(mutex);
  };

  /// One encoded journal record waiting for the journal thread.
  struct Pending {
    std::string bytes;
    std::uint64_t seq = 0;
  };

  Shard& shard_of(const std::string& table, const std::string& key) const;
  void put_impl(const std::string& table, const std::string& key,
                std::string&& value, bool durable);
  bool erase_impl(const std::string& table, const std::string& key,
                  bool durable);
  /// Push an encoded record onto the commit queue. Must be called with
  /// the owning shard's write lock held so that per-key journal order
  /// matches per-key memtable order. Returns the record's commit seq.
  std::uint64_t enqueue(std::string&& record) CLARENS_EXCLUDES(journal_mutex_);
  /// Park until `seq` is written (written=false also fsynced). Must be
  /// called with no shard lock held.
  void wait_commit(std::uint64_t seq, bool durable)
      CLARENS_EXCLUDES(journal_mutex_);
  /// Throw SystemError when the journal has failed (mutators call this
  /// first so a broken store never acks new writes).
  void check_available() const CLARENS_EXCLUDES(journal_mutex_);
  void fail(const std::string& what) CLARENS_EXCLUDES(journal_mutex_);

  // --- journal thread ------------------------------------------------
  void journal_main();
  /// writev the group (handling partial writes); returns false on error.
  bool write_group(int fd, std::vector<Pending>& group,
                   std::size_t* bytes_written);
  /// Checkpoint: rotate the journal, dump a per-shard-consistent
  /// snapshot, drop the folded journal. Journal-thread only (or the
  /// constructor, pre-thread). Returns false after fail().
  bool checkpoint();
  bool write_snapshot();
  bool fsync_directory();

  // --- recovery (constructor only, single-threaded) -------------------
  void load();
  /// Replays a record stream into the shards. Returns the byte offset
  /// after the last complete, checksummed record; sets *tore when a
  /// trailing record had to be discarded (tolerated only for journals).
  std::size_t replay_file(std::FILE* f, bool tolerate_tear, bool* tore);
  void apply_replayed(char op, std::string&& table, std::string&& key,
                      std::string&& value);

  StoreOptions options_;
  std::string directory_;
  mutable std::atomic<std::uint64_t> ops_{0};

  // Sharded memtable. unique_ptr because SharedMutex is not movable.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;

  // Commit queue + group-commit bookkeeping (persistent stores only).
  // `db.store.journal` is the innermost lock in the tree: it is taken
  // under a shard write lock (enqueue) and under service locks that
  // wrap store calls, and nothing is ever acquired under it.
  mutable util::Mutex journal_mutex_{util::LockLevel::kDbStoreJournal};
  util::CondVar work_cv_;      // journal thread waits for work
  util::CondVar progress_cv_;  // writers/sync/compact waiters park here
  std::deque<Pending> pending_ CLARENS_GUARDED_BY(journal_mutex_);
  std::uint64_t enqueued_seq_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  std::uint64_t written_seq_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  std::uint64_t durable_seq_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  /// Highest seq some waiter needs fsynced (put_durable / sync).
  std::uint64_t sync_target_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  std::uint64_t compact_requests_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  std::uint64_t compacted_through_ CLARENS_GUARDED_BY(journal_mutex_) = 0;
  bool stop_ CLARENS_GUARDED_BY(journal_mutex_) = false;
  std::string error_ CLARENS_GUARDED_BY(journal_mutex_);
  /// Approximate queue depth for lock-free backpressure checks.
  std::atomic<std::size_t> pending_count_{0};
  /// Set on journal write/fsync failure; mutators refuse afterwards.
  std::atomic<bool> failed_{false};

  // Journal file state. Owned by the journal thread once it starts (the
  // constructor and destructor touch it only while the thread does not
  // exist), so it needs no lock.
  int journal_fd_ = -1;
  std::size_t journal_bytes_ = 0;

  util::Thread journal_thread_;
};

}  // namespace clarens::db
