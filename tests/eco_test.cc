// ECO serving tests (tier1): the daemon's session lifecycle around
// resize(delta).
//
//  - Round trip: submit with "session":true → base result; a zero-delta
//    resize is a fixpoint whose sizes_hash equals the base result's hash
//    bit-for-bit; a load-edit resize re-solves and meets timing; release
//    ends the session and later resizes are refused; malformed delta
//    strings are refused and leave the session as it was.
//  - Ordering: a resize racing the still-queued base job is rejected
//    ("not ready"), and succeeds once the base result lands.
//  - Durability: a simulated crash (terminal resize results stripped from
//    the journal) re-runs the base job and re-applies the resize chain on
//    replay, reproducing bit-identical hashes; a second restart replays
//    the chain silently (results already journaled, nothing re-emitted).
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
}

TEST(EcoSession, ResizeBeforeTheBaseResultIsRejectedThenWorks) {
  Capture cap;
  DaemonOptions opt;
  opt.engine.threads = 1;
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

  daemon.drain();
  daemon.handle_line(resize_line("after", sid));
  lines = cap.snapshot();
  const std::string after = line_for(lines, "result", "after");
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(raw_field(after, "ok"), "true");
  EXPECT_EQ(raw_field(after, "mode"), "fixpoint");
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
