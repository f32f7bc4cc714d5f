// clarens_lint: structural analyzer for the Clarens source tree.
//
// The clang thread-safety analysis (src/util/sync.hpp) checks lock
// *usage*; this linter checks lock *discipline* and a handful of
// structural invariants the compiler cannot see. Per-line rules:
//
//   raw-sync      std::mutex / std::condition_variable / std::thread &
//                 friends outside the annotated wrappers in
//                 src/util/sync.hpp. Raw primitives carry no capability
//                 attributes, so any state they guard silently escapes
//                 the thread-safety analysis.
//   detach        .detach() anywhere. Detached threads outlive their
//                 owner's destructor and race teardown; util::Thread
//                 deliberately has no detach().
//   net-blocking  sleeps (and std::this_thread) inside src/net/ — the
//                 reactor thread services every connection, so one
//                 blocking call stalls the whole server.
//   reactor-blocking  blocking-wait calls (wait_writable, wait, wait_for,
//                 join, the sleep family) inside src/net/, src/http/ or
//                 src/tls/. With inline dispatch the reactor also runs
//                 handlers there, so every blocking primitive must carry
//                 an allow() naming the worker/control thread that may
//                 legitimately park on it.
//   layering      src/rpc/ and src/util/ including core/ or http/
//                 headers (dependency direction: util <- rpc <- http
//                 <- core).
//   raw-new       new / delete expressions. The tree owns memory through
//                 containers and smart pointers; a bare new is either a
//                 leak-in-waiting or needs an allow() with a reason.
//   lock-order    `// lock-order: outer -> inner` comments checked
//                 against the declared hierarchy
//                 (src/util/lock_levels.hpp — the single source of truth
//                 shared with the runtime detector and the generated
//                 docs/CONCURRENCY.md table). Unknown level names and
//                 inverted or same-rank edges are errors. The same rule
//                 fires on *derived* edges: a LockGuard/WriteLock/
//                 ReadLock/UniqueLock lexically nested inside another
//                 guard's scope (or inside a CLARENS_REQUIRES body)
//                 whose resolved levels invert the table, or sit at the
//                 same rank without a util::SameRankToken at the call
//                 site.
//   undeclared-mutex  a util::Mutex / util::SharedMutex declaration that
//                 does not name its hierarchy level
//                 (`util::Mutex m{util::LockLevel::kFoo};`), or names an
//                 enumerator the table does not know.
//   held-over-call  a blocking operation (roundtrip, fdatasync/fsync,
//                 connect, sendfile, the sleep family) lexically inside
//                 a guard scope. Holding a lock across a syscall that
//                 can stall turns every other acquirer into a convoy.
//   lock-cycle    (tree-wide) the merged global lock graph — lock-order
//                 comments, CLARENS_REQUIRES bodies and lexically nested
//                 guard scopes across every file — contains a directed
//                 cycle. SameRankToken edges stay IN this graph: each
//                 token is locally justified, but two tokened edges in
//                 opposite directions across different files are a
//                 deadlock no per-edge check can see.
//   thread-pool   a `std::vector<util::Thread>` member in src/ outside
//                 util/thread_pool.*. Workers draining a queue belong on
//                 util::ThreadPool; this stops a hand-rolled pool (its
//                 own deque, condvar, stop flag and join loop) from
//                 growing back.
//   unused-lock-level  (tree-wide, when the lint set includes
//                 src/util/lock_levels.hpp) a level in the table that no
//                 util::Mutex / util::SharedMutex declaration under src/
//                 names. A deleted mutex must take its rank with it.
//   bad-allow     a `// clarens-lint: allow(rule)` escape hatch without
//                 a justification, or naming an unknown rule.
//
// Escape hatch: `// clarens-lint: allow(<rule>): <justification>` on the
// violating line or the line immediately above suppresses <rule> there.
// The justification text is mandatory.
//
// Violations print as `file:line: rule-id: message`, one per line.
#pragma once

#include <string>
#include <vector>

namespace clarens::lint {

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One in-memory translation unit for lint_sources.
struct SourceFile {
  std::string path;
  std::string content;
};

/// `file:line: rule-id: message`.
std::string format(const Violation& violation);

/// The declared lock hierarchy: level name -> rank, generated from
/// src/util/lock_levels.hpp. A `lock-order: A -> B` edge is legal iff
/// rank(A) < rank(B) (outer locks have lower ranks). Exposed for tests
/// and for the usage message.
const std::vector<std::pair<std::string, int>>& lock_hierarchy();

/// The markdown rank table embedded in docs/CONCURRENCY.md between the
/// CLARENS_LOCK_TABLE markers; `clarens_lint --check-lock-doc` diffs the
/// two so the doc can never drift from lock_levels.hpp.
std::string lock_table_markdown();

/// Lint a set of translation units together: every per-line rule on each
/// file, plus the cross-file lock-graph pass (lock-cycle, derived
/// lock-order edges) over the merged declaration index.
std::vector<Violation> lint_sources(const std::vector<SourceFile>& files);

/// Lint one in-memory translation unit. `path` decides the path-scoped
/// rules (net-blocking, layering, raw-sync exemptions) and is matched by
/// suffix, so both absolute and repo-relative paths work.
std::vector<Violation> lint_content(const std::string& path,
                                    const std::string& content);

/// Lint one file on disk.
std::vector<Violation> lint_file(const std::string& path);

/// Recursively collect every *.hpp / *.cpp under each root (or the root
/// itself when it is a file) and lint them together, so lock-graph edges
/// connect across files and directories. Results are ordered by path,
/// then line.
std::vector<Violation> lint_roots(const std::vector<std::string>& roots);

/// lint_roots with a single root.
std::vector<Violation> lint_tree(const std::string& root);

}  // namespace clarens::lint
