// ECO serving tests (tier1): the daemon's session lifecycle around
// resize(delta).
//
//  - Round trip: submit with "session":true → base result; a zero-delta
//    resize is a fixpoint whose sizes_hash equals the base result's hash
//    bit-for-bit; a load-edit resize re-solves and meets timing; release
//    ends the session and later resizes are refused; malformed delta
//    strings are refused and leave the session as it was; shutdown
//    reports no outstanding engine jobs.
//  - Ordering: a resize or a release racing the still-queued base job is
//    rejected ("not ready") and journals nothing, so a crash at that point
//    still replays and answers the base; both succeed once the base result
//    lands.
//  - Durability: journal rotation drops a failed resize whole, so no
//    restart re-answers it; a simulated crash (terminal resize results
//    stripped from the journal) re-runs the base job and re-applies the
//    resize chain on replay, reproducing bit-identical hashes; a second
//    restart replays the chain silently (results already journaled,
//    nothing re-emitted).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "engine/daemon.h"
#include "gen/blocks.h"
#include "timing/lowering.h"
#include "util/journal.h"

namespace mft {
namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::remove(p.c_str());
  return p;
}

/// Thread-safe capture of the daemon's emitted event lines.
struct Capture {
  std::mutex mu;
  std::vector<std::string> lines;
  SizingDaemon::Emit emit() {
    return [this](const std::string& l) {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(l);
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return lines;
  }
};

/// Raw token of `"key":<token>` in a flat JSON line ("" when absent).
std::string raw_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

/// The single line matching event==`event` and id==`id` ("" when absent).
std::string line_for(const std::vector<std::string>& lines,
                     const std::string& event, const std::string& id) {
  for (const std::string& l : lines)
    if (raw_field(l, "event") == event && raw_field(l, "id") == id) return l;
  return "";
}

std::string hash_for(const std::vector<std::string>& lines,
                     const std::string& id) {
  return raw_field(line_for(lines, "result", id), "sizes_hash");
}

/// A non-source vertex id of the daemon's lowered "c17" — the daemon uses
/// lower_gate_level(make_c17(), Tech{}) too, so ids line up exactly.
NodeId c17_gate_vertex() {
  const LoweredCircuit lc = lower_gate_level(make_c17(), Tech{});
  for (NodeId v = 0; v < lc.net.num_vertices(); ++v)
    if (!lc.net.is_source(v)) return v;
  return -1;
}

std::string session_submit(const std::string& id, const std::string& circuit,
                           double ratio) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"submit\",\"id\":\"%s\",\"circuit\":\"%s\","
                "\"ratio\":%.3f,\"session\":true}",
                id.c_str(), circuit.c_str(), ratio);
  return buf;
}

std::string resize_line(const std::string& id, const std::string& sid,
                        const std::string& extra = "") {
  return "{\"op\":\"resize\",\"id\":\"" + id + "\",\"session\":" + sid +
         extra + "}";
}

TEST(EcoSession, RoundTripFixpointLoadEditAndRelease) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  SizingDaemon daemon(opt, cap.emit());

  daemon.handle_line(session_submit("base", "c17", 0.8));
  daemon.drain();
  std::vector<std::string> lines = cap.snapshot();
  const std::string accepted = line_for(lines, "accepted", "base");
  ASSERT_FALSE(accepted.empty());
  const std::string sid = raw_field(accepted, "session");
  ASSERT_FALSE(sid.empty());
  const std::string base_hash = hash_for(lines, "base");
  ASSERT_FALSE(base_hash.empty());

  // Zero delta: the fixpoint contract, exposed end to end as hash equality.
  daemon.handle_line(resize_line("fp", sid));
  lines = cap.snapshot();
  const std::string fp = line_for(lines, "result", "fp");
  ASSERT_FALSE(fp.empty());
  EXPECT_EQ(raw_field(fp, "ok"), "true");
  EXPECT_EQ(raw_field(fp, "mode"), "fixpoint");
  EXPECT_EQ(raw_field(fp, "dirty"), "0");
  EXPECT_EQ(raw_field(fp, "sizes_hash"), base_hash);

  // Delta strings the parser once accepted: an id past NodeId's range that
  // narrowed onto a real vertex (2^32 + v edited v), and non-finite loads
  // (a NaN reached the network before a check refused it). Each is refused
  // as invalid_input, and a zero delta after it still answers the base
  // hash: the session is untouched.
  const NodeId v = c17_gate_vertex();
  const std::string bad_loads[] = {
      std::to_string((std::int64_t{1} << 32) + v) + ":0.05",
      std::to_string(v) + ":nan",
      std::to_string(v) + ":inf",
  };
  int i = 0;
  for (const std::string& bad : bad_loads) {
    SCOPED_TRACE(bad);
    const std::string bad_id = "bad" + std::to_string(i);
    const std::string fp_id = "fp" + std::to_string(i++);
    daemon.handle_line(
        resize_line(bad_id, sid, ",\"loads\":\"" + bad + "\""));
    daemon.handle_line(resize_line(fp_id, sid));
    lines = cap.snapshot();
    const std::string refused = line_for(lines, "result", bad_id);
    ASSERT_FALSE(refused.empty());
    EXPECT_EQ(raw_field(refused, "status"), "invalid_input") << refused;
    const std::string again = line_for(lines, "result", fp_id);
    ASSERT_FALSE(again.empty());
    EXPECT_EQ(raw_field(again, "sizes_hash"), base_hash) << again;
  }

  // A real delta: bump one gate's constant load, re-solve, meet timing.
  const std::string loads = ",\"loads\":\"" + std::to_string(v) + ":0.05\"";
  daemon.handle_line(resize_line("edit", sid, loads));
  lines = cap.snapshot();
  const std::string edit = line_for(lines, "result", "edit");
  ASSERT_FALSE(edit.empty());
  EXPECT_EQ(raw_field(edit, "ok"), "true");
  EXPECT_EQ(raw_field(edit, "met_target"), "true");
  EXPECT_EQ(raw_field(edit, "dirty"), "1");
  EXPECT_EQ(daemon.stats().sessions, 1u);

  // Release ends the session; the next resize is a structured refusal.
  daemon.handle_line("{\"op\":\"release\",\"session\":" + sid + "}");
  lines = cap.snapshot();
  bool released = false;
  for (const std::string& l : lines)
    if (raw_field(l, "event") == "release" && raw_field(l, "session") == sid)
      released = true;
  EXPECT_TRUE(released);
  EXPECT_EQ(daemon.stats().sessions, 0u);

  daemon.handle_line(resize_line("late", sid));
  lines = cap.snapshot();
  const std::string late = line_for(lines, "result", "late");
  ASSERT_FALSE(late.empty());
  EXPECT_EQ(raw_field(late, "status"), "invalid_input");
  EXPECT_NE(late.find("unknown session"), std::string::npos);

  // Shutdown counts the engine jobs still in flight: none. The resize
  // answers are not jobs and must not count against the one base job.
  daemon.handle_line("{\"op\":\"shutdown\"}");
  const std::string shutdown = line_for(cap.snapshot(), "shutdown", "");
  ASSERT_FALSE(shutdown.empty());
  EXPECT_EQ(raw_field(shutdown, "outstanding"), "0") << shutdown;
}

TEST(EcoSession, ResizeBeforeTheBaseResultIsRejectedThenWorks) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.journal_path = temp_path("eco_early.mftj");
  SizingDaemon daemon(opt, cap.emit());

  // A plain job occupies the single worker so the session base queues.
  daemon.handle_line(
      "{\"op\":\"submit\",\"id\":\"blocker\",\"circuit\":\"tiled4x6x2\","
      "\"ratio\":0.6}");
  daemon.handle_line(session_submit("base", "c17", 0.8));
  std::vector<std::string> lines = cap.snapshot();
  const std::string sid =
      raw_field(line_for(lines, "accepted", "base"), "session");
  ASSERT_FALSE(sid.empty());

  // The base job has not produced its result yet: resize must be refused
  // with a retryable status, not block and not crash.
  daemon.handle_line(resize_line("early", sid));
  lines = cap.snapshot();
  const std::string early = line_for(lines, "result", "early");
  ASSERT_FALSE(early.empty());
  EXPECT_EQ(raw_field(early, "status"), "rejected");
  EXPECT_NE(early.find("not ready"), std::string::npos);

  // So must a release: the base journals no result record when it
  // succeeds, so a journaled release now would leave replay nothing to
  // answer the base with. The session stays, and nothing is journaled.
  daemon.handle_line("{\"op\":\"release\",\"id\":\"early_release\","
                     "\"session\":" + sid + "}");
  lines = cap.snapshot();
  const std::string early_release = line_for(lines, "result", "early_release");
  ASSERT_FALSE(early_release.empty());
  EXPECT_EQ(raw_field(early_release, "status"), "rejected");
  EXPECT_NE(early_release.find("not ready"), std::string::npos);
  EXPECT_EQ(line_for(lines, "release", "early_release"), "");
  EXPECT_EQ(daemon.stats().sessions, 1u);
  // A crash right here: a daemon restarted on the journal as it stands
  // re-runs the base and answers it.
  const std::vector<std::string> at_crash = Journal::replay(opt.journal_path);
  for (const std::string& rec : at_crash)
    EXPECT_EQ(rec.find("\"type\":\"release\""), std::string::npos) << rec;
  DaemonOptions restart = opt;
  restart.journal_path = temp_path("eco_early_crash.mftj");
  Journal::rewrite(restart.journal_path, at_crash);

  daemon.drain();
  daemon.handle_line(resize_line("after", sid));
  lines = cap.snapshot();
  const std::string after = line_for(lines, "result", "after");
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(raw_field(after, "ok"), "true");
  EXPECT_EQ(raw_field(after, "mode"), "fixpoint");

  // Once the base has answered, release works.
  daemon.handle_line("{\"op\":\"release\",\"id\":\"late_release\","
                     "\"session\":" + sid + "}");
  lines = cap.snapshot();
  const std::string late_release = line_for(lines, "release", "late_release");
  ASSERT_FALSE(late_release.empty());
  EXPECT_EQ(raw_field(late_release, "ok"), "true");
  EXPECT_EQ(daemon.stats().sessions, 0u);

  Capture replayed;
  SizingDaemon revived(restart, replayed.emit());
  revived.drain();
  const std::string base_hash = hash_for(lines, "base");
  ASSERT_FALSE(base_hash.empty());
  EXPECT_EQ(hash_for(replayed.snapshot(), "base"), base_hash);
  EXPECT_EQ(revived.stats().sessions, 1u);
}

TEST(EcoSession, JournalRotationDropsAFailedResize) {
  const std::string path = temp_path("eco_rotate.mftj");
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.journal_path = path;
  opt.journal_compact_bytes = 1;  // rotate after every terminal record

  const std::string gate = std::to_string(c17_gate_vertex());
  Capture first;
  std::string bad_rid;
  {
    SizingDaemon d(opt, first.emit());
    d.handle_line(session_submit("base", "c17", 0.8));
    d.drain();
    const std::string accepted = line_for(first.snapshot(), "accepted", "base");
    const std::string sid = raw_field(accepted, "session");
    ASSERT_FALSE(sid.empty());
    // rids are handed out in request order: the failed resize takes the
    // one after its base's.
    bad_rid = std::to_string(std::stoull(raw_field(accepted, "rid")) + 1);
    d.handle_line(resize_line("bad", sid, ",\"pins\":\"" + gate + ":1e9\""));
    d.handle_line(resize_line("good", sid, ",\"loads\":\"" + gate + ":0.05\""));
  }
  const std::vector<std::string> lines = first.snapshot();
  EXPECT_EQ(raw_field(line_for(lines, "result", "bad"), "status"),
            "invalid_input");
  EXPECT_EQ(raw_field(line_for(lines, "result", "good"), "ok"), "true");

  // A failed resize changed nothing, so rotation drops its write-ahead
  // record with its answer: no restart re-applies or re-answers it.
  for (int restart = 1; restart <= 2; ++restart) {
    SCOPED_TRACE(restart);
    Capture log;
    {
      SizingDaemon d(opt, log.emit());
      d.drain();
      EXPECT_EQ(d.stats().sessions, 1u);
    }
    EXPECT_EQ(line_for(log.snapshot(), "result", "bad"), "");
    for (const std::string& rec : Journal::replay(path)) {
      EXPECT_NE(raw_field(rec, "rid"), bad_rid) << rec;
      EXPECT_NE(raw_field(rec, "id"), "bad") << rec;
    }
  }
}

TEST(EcoSession, ResizeChainSurvivesACrashWithBitIdenticalHashes) {
  const std::string path = temp_path("eco_crash.mftj");
  DaemonOptions opt;
  opt.engine.threads = 1;
  opt.journal_path = path;

  const std::string loads =
      ",\"loads\":\"" + std::to_string(c17_gate_vertex()) + ":0.05\"";
  Capture ref;
  std::string sid;
  {
    SizingDaemon d(opt, ref.emit());
    d.handle_line(session_submit("base", "c17", 0.8));
    d.drain();
    sid = raw_field(line_for(ref.snapshot(), "accepted", "base"), "session");
    ASSERT_FALSE(sid.empty());
    d.handle_line(resize_line("r1", sid, loads));
    d.handle_line(resize_line("r2", sid));  // zero delta on the new state
  }
  const std::vector<std::string> ref_lines = ref.snapshot();
  const std::string base_hash = hash_for(ref_lines, "base");
  const std::string r1_hash = hash_for(ref_lines, "r1");
  const std::string r2_hash = hash_for(ref_lines, "r2");
  ASSERT_FALSE(base_hash.empty());
  ASSERT_FALSE(r1_hash.empty());
  EXPECT_EQ(r2_hash, r1_hash);  // zero delta after r1 is r1's fixpoint

  // Simulate the kill -9 mid-serving: the write-ahead resize records are
  // on disk but their terminal results are not. (The ok base result is
  // never journaled at all — replay re-runs it to rebuild the session's
  // sized state.)
  std::vector<std::string> keep;
  for (const std::string& rec : Journal::replay(path))
    if (rec.find("\"type\":\"result\"") == std::string::npos)
      keep.push_back(rec);
  Journal::rewrite(path, keep);

  Capture log;
  {
    SizingDaemon d(opt, log.emit());
    d.drain();
    const std::vector<std::string> lines = log.snapshot();
    // Base re-ran under its journaled seed, then the chain re-applied in
    // rid order; every hash is bit-identical to the first life.
    EXPECT_EQ(hash_for(lines, "base"), base_hash);
    EXPECT_EQ(hash_for(lines, "r1"), r1_hash);
    EXPECT_EQ(hash_for(lines, "r2"), r2_hash);
    EXPECT_EQ(d.stats().sessions, 1u);
  }

  // Second restart: the resize results are journaled now, so the chain
  // replays silently (state rebuilt, nothing re-emitted) and the session
  // is alive for further deltas.
  Capture log2;
  SizingDaemon d2(opt, log2.emit());
  d2.drain();
  std::vector<std::string> lines2 = log2.snapshot();
  EXPECT_EQ(hash_for(lines2, "base"), base_hash);  // base always re-emits
  EXPECT_EQ(line_for(lines2, "result", "r1"), "");
  EXPECT_EQ(line_for(lines2, "result", "r2"), "");
  d2.handle_line(resize_line("fp", sid));
  lines2 = log2.snapshot();
  EXPECT_EQ(hash_for(lines2, "fp"), r1_hash);
}

}  // namespace
}  // namespace mft
