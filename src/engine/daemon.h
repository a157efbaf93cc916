// Engine layer, service front-end: SizingDaemon turns the StreamingRunner
// into a headless request/response service speaking JSON-lines — one flat
// JSON object per request line in, one-or-more JSON event lines out
// through an emit callback the transport owns (stdout, a Unix socket, a
// test vector — the daemon never touches an fd itself).
//
// Protocol (requests; "circuit" takes the names of gen/circuit_name.h):
//   {"op":"submit","circuit":"c17","ratio":0.8,"priority":2,
//    "deadline":0.5,"max_steps":0,"seed":0,
//    "label":"...","id":"client-tag",      // only op+circuit required
//    "session":true}                       // keep the sized result live
//   {"op":"cancel","ticket":3}
//   {"op":"resize","session":1,"target":2.5,        // ECO against the
//    "loads":"12:0.05,33:-0.01","pins":"7:4,9:0"}   // session's solution
//   {"op":"release","session":1}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// Numbers are JSON numbers only (no nan, inf, hex or leading '+') and
// finite as a double. Integer fields — priority, max_steps, seed, session,
// ticket — are parsed exactly from the token text, never through a double,
// and must be integers within their type (session > 0, ticket >= 0).
// ratio must be > 0, target and deadline >= 0. In "loads"/"pins" a vertex
// id must fit NodeId whole and a value must be finite. Any violation is
// an "invalid_input" result with no "accepted" ack. Keys the protocol
// does not name are ignored, per-job thread counts from older clients
// included.
//
// Responses (events; "id" echoes the request's id when given):
//   {"event":"accepted","id":...,"ticket":3}           // submit admitted
//   {"event":"result","id":...,"ticket":3,"status":"ok",...}
//   {"event":"cancel","ticket":3,"ok":true}
//   {"event":"release","session":1,"ok":true}
//   {"event":"stats",...}
//   {"event":"shutdown","outstanding":0}  // engine jobs not yet finished
//
// ECO sessions (the warm-start resize path, sizing/resize.h): a submit
// carrying "session":true is admitted like any job, and its accepted
// event carries the session number. Once its result lands, "resize" ops
// against that session apply a delta — a new delay target, per-vertex
// load edits, per-vertex size pins — with the millisecond warm-start
// machinery (fixpoint / carved-band warm solve / cold fallback), each
// answering with exactly one result event that reports the mode that
// produced it. The flat protocol has no arrays, so deltas ride in
// strings: "loads" / "pins" are comma-separated "vertex:value" lists
// (a pin value of 0 releases the pin). The zero delta is a fixpoint:
// its sizes_hash equals the previous answer's bit-for-bit. A resize or a
// release against a session whose base job is still running is refused
// with kRejected and journals nothing (retry after the base result);
// once the base has succeeded or failed, "release" frees the session.
//
// The response contract the daemon_test pins: every request line gets
// exactly one terminal response — an admitted submit exactly one
// {"event":"result"} (preceded by its "accepted" ack), a rejected submit
// one result with status "rejected", a malformed or unknown request (a
// circuit name outside the grammar or over its gate bound included) one
// result with status "invalid_input" and no "accepted" ack, a shed job
// one result with status "shed". No request hangs and no ticket is lost,
// including under overload and across injected faults (sites
// "daemon.parse" at request parsing and "daemon.accept" at admission — an
// armed fault becomes a structured error response, never a dead daemon).
//
// Admission control (DaemonOptions): a submit is refused with kRejected
// when the scheduler queue is already max_queue_depth deep, or when the
// request carries a deadline that deadline-pressure estimation says
// cannot be met: predicted completion = EWMA completed-job runtime ×
// (queue depth + workers) / workers — the job's own expected run counts,
// not just its queue wait. The EWMA folds in successful results only
// (shed/canceled/failed jobs return in unrepresentative time and would
// drag the estimate toward zero under a failure storm); before the first
// success lands there is no estimate, so the daemon falls back to a
// conservative queue-depth-only check (refuse deadline-carrying work
// once the backlog reaches the worker count) instead of silently
// admitting everything through the cold-start window. Once admitted,
// overload is handled by the scheduler itself: deadline-ordered dispatch
// plus kShed for queued jobs whose deadline lapsed (engine.shed, on by
// default here), and best-so-far degradation for jobs already running.
//
// Results are delivered through submit_detached, so a long-lived daemon
// accumulates nothing per request; live stats (queue depth/peak,
// admit/reject/shed counters, p50/p99 ticket latency from a fixed-bucket
// histogram) come from the "stats" op at any time.
//
// Durability (DaemonOptions::journal_path): when set, every accepted
// submit is written ahead to an fsync'd journal (util/journal.h) before
// it reaches the engine — with its seed already resolved, so the solve is
// pinned at journal time — and every terminal result is journaled after
// it is emitted. A daemon constructed on an existing journal replays it:
// requests with no journaled result are re-admitted in original order
// (bypassing admission control — they were already admitted once) and,
// carrying their journaled seeds, reproduce bit-identical sizes_hash
// values. The journal is compacted to the unfinished set on recovery. The
// emission contract is at-least-once across a crash: a request whose
// result was emitted but not yet journaled is re-run and re-emitted.
//
// Every journal begins with a config snapshot record pinning the fields
// replay determinism depends on (base_seed). A daemon started on a
// journal whose snapshot does not match its own configuration, or says
// "fast_math":true (a mode older builds offered and this one cannot
// reproduce), refuses recovery: it emits {"event":"replay","ok":false,...},
// preserves the file untouched for the operator, and serves on without
// replaying anything. ECO sessions are durable too: the base submit and
// every resize delta are journaled write-ahead, and recovery re-runs the
// base (bit-identical by the seed contract) and re-applies the resize
// chain in order, re-emitting only resizes whose results never made it
// to the journal. When DaemonOptions::journal_compact_bytes is set, the
// journal is also rotated while serving: once it grows past the bound it
// is rewritten down to its live set (config snapshot + unfinished
// submits + live session records), so a long-lived daemon's journal
// stays proportional to its outstanding work, not its history.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/stream.h"
#include "timing/lowering.h"
#include "util/histogram.h"
#include "util/journal.h"

namespace mft {

struct ResizeDelta;
struct ResizeResult;

struct DaemonOptions {
  /// Engine configuration for the wrapped StreamingRunner. `shed` is the
  /// one field whose default differs from the raw engine: the daemon arms
  /// overload shedding unless the caller clears engine.shed.
  JobRunnerOptions engine = [] {
    JobRunnerOptions o;
    o.shed = true;
    return o;
  }();
  /// Queue-depth admission bound: a submit arriving while the scheduler
  /// queue is already this deep is refused with kRejected. 0 = unbounded.
  std::size_t max_queue_depth = 0;
  /// Deadline-pressure admission factor: when > 0, a submit carrying a
  /// deadline is refused with kRejected if the predicted queue wait
  /// (EWMA completed-job runtime × queue depth / workers) exceeds
  /// deadline × this factor — work that would only be shed later is
  /// turned away up front. 0 disables the estimate (the default: the
  /// estimator is load-dependent, so tests that need determinism keep it
  /// off and pin the queue-depth bound instead).
  double deadline_pressure = 0.0;
  /// Write-ahead journal path. Empty (the default) disables durability.
  /// When set, the constructor replays any existing journal at this path
  /// (re-admitting unfinished requests and emitting a {"event":"replay"}
  /// line) before serving, and every accepted submit / terminal result is
  /// journaled from then on.
  std::string journal_path;
  /// Size-triggered journal rotation: after a terminal record lands, a
  /// journal grown past this many bytes is compacted in place down to its
  /// live set — the config snapshot, unfinished submits, and the records
  /// of live ECO sessions. 0 (the default) disables rotation.
  std::uint64_t journal_compact_bytes = 0;
};

/// Counters the daemon layers on top of StreamStats. Guarded internally;
/// a stats() snapshot is consistent.
struct DaemonStats {
  std::uint64_t requests = 0;   ///< request lines handled (incl. bad ones)
  std::uint64_t admitted = 0;   ///< submits handed to the engine
  std::uint64_t rejected = 0;   ///< submits refused by admission control
  std::uint64_t invalid = 0;    ///< malformed / unknown requests
  std::uint64_t results = 0;    ///< terminal result events emitted
  std::uint64_t journal_records = 0;  ///< records appended this process
  std::uint64_t journal_fsyncs = 0;   ///< fsyncs issued by those appends
  std::uint64_t journal_errors = 0;   ///< appends that failed (non-fatal)
  std::uint64_t journal_bytes = 0;    ///< current journal file size
  std::uint64_t journal_compactions = 0;  ///< size-triggered rotations
  std::uint64_t recovered = 0;        ///< requests re-admitted by replay
  std::uint64_t sessions = 0;         ///< live ECO sessions
  double ewma_run_seconds = 0.0;  ///< admission EWMA over ok-job runtimes
  double p50_seconds = 0.0;     ///< median submit→result latency
  double p99_seconds = 0.0;
  StreamStats engine;           ///< live engine counters (shed lives here)
};

class SizingDaemon {
 public:
  /// Emits one complete JSON line (no trailing newline) back to the
  /// client. Called serialized — never concurrently with itself — from
  /// handle_line's thread and from engine worker threads.
  using Emit = std::function<void(const std::string& line)>;

  SizingDaemon(DaemonOptions opt, Emit emit);
  ~SizingDaemon();  ///< drains outstanding jobs, then stops the engine

  SizingDaemon(const SizingDaemon&) = delete;
  SizingDaemon& operator=(const SizingDaemon&) = delete;

  /// Handles one request line (blank lines are ignored). Every non-blank
  /// line produces at least one response event; malformed input produces
  /// a structured invalid_input result. Never throws.
  void handle_line(const std::string& line);

  /// True once a {"op":"shutdown"} request was handled; the transport
  /// loop should stop reading and call drain().
  bool shutdown_requested() const;

  /// Blocks until every admitted job has completed and emitted its
  /// result event.
  void drain();

  DaemonStats stats() const;

 private:
  struct ParsedSubmit;
  struct ParsedResize;
  struct EcoSession;

  void do_submit(const ParsedSubmit& req);
  /// One warm-start ECO resize against a live session: journals the delta
  /// write-ahead, runs the solve on the request thread (outside mu_), and
  /// answers with exactly one result event.
  void do_resize(const ParsedResize& req);
  void do_release(const std::string& id, std::uint64_t sid);
  /// Builds the session's ResizeSession on first use (adopting the base
  /// job's sizes) and applies one delta. Request thread only.
  ResizeResult apply_resize(EcoSession& es, const ResizeDelta& delta);
  /// Terminal bookkeeping for a resize: result event, result record,
  /// rotation check.
  void finish_resize(const std::string& id, std::uint64_t sid,
                     std::uint64_t rid, bool durable, const ResizeResult& rr);
  void on_result(const std::string& id, std::uint64_t rid, std::uint64_t sid,
                 const JobResult& r);
  /// Constructor-time crash recovery: replays opt_.journal_path, compacts
  /// it down to the unfinished submits, re-admits them in rid order, and
  /// emits one {"event":"replay",...} line summarizing what happened.
  void recover_from_journal();
  /// Appends one record under mu_; failures are counted, never thrown —
  /// losing durability must not take down a serving daemon.
  void journal_append_locked(const std::string& payload);
  /// The flat config-snapshot record pinning everything journal replay
  /// determinism depends on; heads every fresh or rotated journal.
  std::string config_record() const;
  /// Size-triggered rotation: once the journal grows past
  /// opt_.journal_compact_bytes, rewrites it down to the live record set.
  void maybe_compact_locked();
  /// The one-terminal-response path for anything that never reached the
  /// engine: rejected, malformed, unknown op, internal fault.
  void respond_error(const std::string& id, EngineStatus status,
                     const std::string& message);
  void respond_error_locked(const std::string& id, EngineStatus status,
                            const std::string& message);
  void emit_locked(const std::string& line);
  /// Builds (and caches) the named circuit, lowered and frozen. Throws
  /// EngineError(kInvalidInput) for an unknown name.
  const SizingNetwork& circuit(const std::string& name);
  DaemonStats stats_locked() const;

  DaemonOptions opt_;
  Emit emit_;
  /// Lowered circuits by request name; jobs hold pointers into these, so
  /// entries are never evicted while the daemon lives (the name space is
  /// the small closed set of built-in generators).
  std::unordered_map<std::string, std::unique_ptr<LoweredCircuit>> circuits_;

  mutable std::mutex mu_;  ///< emit serialization, counters, histogram
  std::uint64_t requests_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t results_ = 0;
  double ewma_run_seconds_ = 0.0;  ///< EWMA of completed-job wall time
  LatencyHistogram latency_;       ///< submit→result, per terminal result
  bool shutdown_ = false;

  /// Write-ahead journal (open iff opt_.journal_path is set). Guarded by
  /// mu_; declared before runner_ so result callbacks from the draining
  /// engine can still journal during destruction.
  Journal journal_;
  std::uint64_t next_rid_ = 0;       ///< next durable request id
  std::uint64_t journal_errors_ = 0;
  std::uint64_t journal_compactions_ = 0;
  std::uint64_t recovered_ = 0;
  /// Set when recovery refused an incompatible journal: rotation must not
  /// silently drop the preserved records.
  bool compaction_disabled_ = false;
  /// Exactly what a rotation keeps, keyed (rid, seq: 0 request /
  /// 1 result) so compacted journals stay in append order. Guarded by
  /// mu_; maintained only while the journal is open.
  std::map<std::pair<std::uint64_t, int>, std::string> live_records_;

  /// Live ECO sessions by session number. The map is guarded by mu_; a
  /// session's ResizeSession itself is touched only from handle_line's
  /// thread (resizes are synchronous on the request thread).
  std::map<std::uint64_t, std::unique_ptr<EcoSession>> sessions_;
  std::uint64_t next_session_id_ = 1;

  /// Declared last: destroyed (drained) before the circuits its queued
  /// jobs point into.
  std::unique_ptr<StreamingRunner> runner_;
};

}  // namespace mft
