// Thread-role annotations for the --sim-jobs commit/worker discipline.
//
// The sharded execution model (net/shard_planner.h, DESIGN §4) splits one
// simulation run across two thread roles:
//
//   commit thread   the single thread driving the event loop. Every side
//                   effect that the golden hashes observe — RNG draws,
//                   stats/obs updates, energy charges, event scheduling,
//                   neighbor-table mutation — happens here, in exact serial
//                   order.
//   worker threads  pool threads running speculative candidate scans. They
//                   may only READ state that is immutable for the current
//                   epoch (grid snapshot, planner SoA leg tables, the radio
//                   medium's pure queries).
//
// This header turns that convention into checkable annotations:
//
//   MANET_COMMIT_ONLY    the function mutates replay-visible state (or
//                        calls something that does) and must only run on
//                        the commit thread.
//   MANET_WORKER_SAFE    the function is a worker entry point or a shared
//                        read path: it must be reachable-safe from pool
//                        threads, i.e. no call path from it may reach a
//                        MANET_COMMIT_ONLY function. (The commit thread may
//                        still call it — e.g. the planner's inline-claim
//                        scan — so this is a reachability contract, not an
//                        exclusion.)
//   MANET_ROLE_AGNOSTIC  the function dispatches on its dynamic context
//                        (e.g. the `planner == nullptr` serial fallback)
//                        and takes manual responsibility for only reaching
//                        commit-only effects when running serially. Both
//                        the clang analysis and the manet-lint call-graph
//                        rule trust it as a barrier: annotate sparingly and
//                        say why in a comment.
//
// Two cooperating checkers consume them:
//
//   1. Under clang, MANET_COMMIT_ONLY expands to a thread-safety-analysis
//      capability requirement on the global `commit_role` capability
//      (-Wthread-safety, wired up for src/ in src/CMakeLists.txt). The
//      capability is acquired where a thread *becomes* a commit thread
//      (util::CommitRoleScope in scenario::run_scenario, the only code that
//      drives a run's simulator, and in util::bootstrap_ci, which owns a
//      private serial Rng) and re-asserted at the top of every event
//      callback with MANET_ASSERT_COMMIT_ROLE() — event lambdas are
//      analyzed as standalone functions, so the assertion is what threads
//      the proof through the type-erased sim::InplaceEvent dispatch.
//      MANET_WORKER_SAFE deliberately adds no clang attribute: a worker
//      function is analyzed without the capability held, so any call into
//      a MANET_COMMIT_ONLY function is already a -Wthread-safety error;
//      the macro exists for readers and for the linter.
//   2. Everywhere (including gcc-only boxes), scripts/lint/manet_lint.py's
//      `thread-role` rule parses the macro names straight out of the
//      source, builds a cross-TU call graph, and reports any path from a
//      MANET_WORKER_SAFE root to a MANET_COMMIT_ONLY sink with the full
//      call chain — covering the indirect-call and template cases the
//      per-TU clang analysis cannot see.
//
// Under non-clang compilers every macro expands to nothing, so the
// annotations are zero-cost markers; MANET_ASSERT_COMMIT_ROLE() always
// expands to a call to an empty inline function and disappears at -O1.
#pragma once

namespace manet::util {

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MANET_TS_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef MANET_TS_ATTR
#define MANET_TS_ATTR(x)  // no-op marker outside clang
#endif

/// The (fictional) capability representing "this thread is the commit
/// thread of the run it is executing". Never locked at runtime; it exists
/// only as an annotation target.
struct MANET_TS_ATTR(capability("manet.commit_role")) CommitRoleCapability {};

/// The global annotation target MANET_COMMIT_ONLY refers to.
inline CommitRoleCapability commit_role;

// The role annotations (see file comment for semantics).
#define MANET_COMMIT_ONLY \
  MANET_TS_ATTR(requires_capability(::manet::util::commit_role))
#define MANET_WORKER_SAFE  // reachability contract; enforced by manet-lint
#define MANET_ROLE_AGNOSTIC MANET_TS_ATTR(no_thread_safety_analysis)

/// Declares that the current scope runs on the commit thread. Place as the
/// first statement of every event callback body (the lambdas handed to
/// sim::Simulator::schedule_* and the timer callbacks): type-erased
/// dispatch hides the caller from clang's analysis, so the callback body
/// re-asserts the role it inherits from the event loop.
inline void assert_commit_role() MANET_TS_ATTR(assert_capability(
    ::manet::util::commit_role)) {}
#define MANET_ASSERT_COMMIT_ROLE() ::manet::util::assert_commit_role()

/// RAII role acquisition for the drivers that *create* a commit thread:
/// anything that owns a sim::Simulator and drives it to completion
/// (scenario::run_scenario, the routing experiment drivers) — and, by the
/// same "serial owner of deterministic state" token, the sweep farm's
/// single-threaded control loop. One scope per run, at the top of the
/// driving function; everything it calls may then be MANET_COMMIT_ONLY.
class MANET_TS_ATTR(scoped_lockable) CommitRoleScope {
 public:
  CommitRoleScope()
      MANET_TS_ATTR(exclusive_lock_function(::manet::util::commit_role)) {}
  ~CommitRoleScope() MANET_TS_ATTR(unlock_function()) {}

  CommitRoleScope(const CommitRoleScope&) = delete;
  CommitRoleScope& operator=(const CommitRoleScope&) = delete;
};

}  // namespace manet::util
