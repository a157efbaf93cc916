// Journal tests (tier1): framing + durability invariants of the
// write-ahead journal, and the daemon's crash-recovery contract on top
// of it.
//
//  - Framing: append/replay round-trips byte-exactly; replay of a file
//    truncated at EVERY byte offset returns a valid prefix of the
//    records without crashing (the kill -9 contract); a CRC-corrupt
//    record ends the walk at the last intact prefix; rewrite() compacts
//    atomically and the file stays appendable.
//  - Daemon: accepted submits and terminal results are journaled; a
//    clean run leaves nothing to recover; a simulated crash (results
//    stripped from the journal) re-admits every unfinished request and
//    reproduces bit-identical sizes_hash values under the journaled
//    seeds; a journaled submit whose circuit name this build refuses
//    replays as an invalid_input result, and one carrying a field only
//    older builds knew replays as if it were absent; a config snapshot
//    the engine cannot honor refuses replay; injected faults at
//    journal.append / journal.replay degrade to structured error
//    responses, never a dead daemon.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/daemon.h"
#include "util/fault.h"
#include "util/journal.h"

namespace mft {
namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::remove(p.c_str());
  return p;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Raw value of `"key":...` in a flat JSON line we emitted ourselves
/// (string values come back unquoted). Empty when the key is absent.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const std::size_t p = line.find(pat);
  if (p == std::string::npos) return "";
  std::size_t s = p + pat.size();
  if (s < line.size() && line[s] == '"') {
    const std::size_t e = line.find('"', s + 1);
    return line.substr(s + 1, e - s - 1);
  }
  std::size_t e = s;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(s, e - s);
}

/// Thread-safe capture of the daemon's emitted event lines.
struct EventLog {
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
  /// sizes_hash of the result event for `id` ("" when none / not ok).
  std::string hash_for(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& l : lines)
      if (json_field(l, "event") == "result" && json_field(l, "id") == id)
        return json_field(l, "sizes_hash");
    return "";
  }
};

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm_all(); }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST_F(JournalTest, AppendReplayRoundTripsByteExactly) {
  const std::string path = temp_path("journal_roundtrip.mftj");
  // Missing file: an empty journal, not an error.
  bool torn = true;
  EXPECT_TRUE(Journal::replay(path, &torn).empty());
  EXPECT_FALSE(torn);

  const std::vector<std::string> recs = {
      "{\"type\":\"submit\",\"rid\":0}", "",  // empty payload is legal
      std::string("binary \0 bytes \xff and \"quotes\"", 29)};
  Journal j;
  j.open(path);
  for (const std::string& r : recs) j.append(r);
  EXPECT_EQ(j.appends(), 3);
  EXPECT_EQ(j.fsyncs(), 3);  // one fsync per append, the durability law
  j.close();

  const std::vector<std::string> got = Journal::replay(path, &torn);
  EXPECT_FALSE(torn);
  EXPECT_EQ(got, recs);

  // Reopen and extend: append-only means history survives.
  j.open(path);
  j.append("tail");
  j.close();
  EXPECT_EQ(Journal::replay(path).size(), 4u);
  EXPECT_EQ(Journal::replay(path).back(), "tail");
}

TEST_F(JournalTest, TruncationAtEveryByteOffsetYieldsAValidPrefix) {
  const std::string path = temp_path("journal_torn.mftj");
  const std::vector<std::string> recs = {"first record", "second-record",
                                         "{\"third\":3}"};
  std::vector<std::size_t> boundary = {0};  // file size after k records
  {
    Journal j;
    j.open(path);
    for (const std::string& r : recs) {
      j.append(r);  // fsync'd: the grown file is visible immediately
      boundary.push_back(slurp(path).size());
    }
  }
  const std::string full = slurp(path);
  ASSERT_FALSE(full.empty());
  ASSERT_EQ(boundary.back(), full.size());

  const std::string cut = temp_path("journal_torn_cut.mftj");
  for (std::size_t len = 0; len < full.size(); ++len) {
    spit(cut, full.substr(0, len));
    bool torn = false;
    std::vector<std::string> got;
    ASSERT_NO_THROW(got = Journal::replay(cut, &torn)) << "len=" << len;
    // Whatever survives is a prefix of what was written — never garbage,
    // never a record that was not fully on disk.
    ASSERT_LT(got.size(), recs.size()) << "len=" << len;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], recs[i]) << "len=" << len;
    // The torn flag fires iff bytes trail the last intact record — i.e.
    // the cut landed anywhere but exactly on a record boundary.
    EXPECT_EQ(torn, len != boundary[got.size()]) << "len=" << len;
  }
}

TEST_F(JournalTest, CrcCorruptionEndsTheWalkAtTheLastIntactRecord) {
  const std::string path = temp_path("journal_crc.mftj");
  {
    Journal j;
    j.open(path);
    j.append("record zero");
    j.append("record one");
  }
  std::string bytes = slurp(path);
  // Flip one payload byte of the LAST record ("one" -> "onf"): its CRC no
  // longer matches, so replay keeps only the first record.
  const std::size_t at = bytes.rfind("one") + 2;
  bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
  spit(path, bytes);
  bool torn = false;
  const std::vector<std::string> got = Journal::replay(path, &torn);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "record zero");
  EXPECT_TRUE(torn);
}

TEST_F(JournalTest, RewriteCompactsAtomicallyAndStaysAppendable) {
  const std::string path = temp_path("journal_rewrite.mftj");
  {
    Journal j;
    j.open(path);
    for (int i = 0; i < 5; ++i) j.append("rec" + std::to_string(i));
  }
  Journal::rewrite(path, {"rec1", "rec3"});
  EXPECT_EQ(Journal::replay(path), (std::vector<std::string>{"rec1", "rec3"}));
  Journal j;
  j.open(path);
  j.append("rec9");
  j.close();
  EXPECT_EQ(Journal::replay(path),
            (std::vector<std::string>{"rec1", "rec3", "rec9"}));
  EXPECT_EQ(Journal::crc32(""), 0u);  // pinned: CRC32/IEEE of empty input
  EXPECT_EQ(Journal::crc32("123456789"), 0xcbf43926u);  // the check value
}

// ---------------------------------------------------------------------------
// Daemon durability
// ---------------------------------------------------------------------------

DaemonOptions durable_opts(const std::string& path) {
  DaemonOptions opt;
  opt.engine.threads = 2;
  opt.journal_path = path;
  return opt;
}

const char* kSubmitA =
    "{\"op\":\"submit\",\"circuit\":\"c17\",\"ratio\":0.8,\"id\":\"a\"}";
const char* kSubmitB =
    "{\"op\":\"submit\",\"circuit\":\"c17\",\"ratio\":0.7,\"id\":\"b\"}";

TEST_F(JournalTest, CleanRunJournalsEverythingAndRecoversNothing) {
  const std::string path = temp_path("journal_clean.mftj");
  {
    EventLog log;
    SizingDaemon d(durable_opts(path), log.emit());
    d.handle_line(kSubmitA);
    d.handle_line(kSubmitB);
    d.drain();
    const DaemonStats s = d.stats();
    EXPECT_EQ(s.journal_records, 4u);  // 2 submits + 2 results
    EXPECT_GE(s.journal_fsyncs, 4u);
    EXPECT_EQ(s.journal_errors, 0u);
    EXPECT_EQ(s.recovered, 0u);
    EXPECT_NE(log.hash_for("a"), "");
  }
  // Every submit has its result on disk, behind the config snapshot that
  // heads every journal...
  EXPECT_EQ(Journal::replay(path).size(), 5u);
  EXPECT_EQ(json_field(Journal::replay(path).front(), "type"), "config");
  // ...so a restart finds nothing unfinished and compacts down to just
  // the config snapshot.
  EventLog log2;
  SizingDaemon d2(durable_opts(path), log2.emit());
  const std::vector<std::string> events = log2.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(json_field(events[0], "event"), "replay");
  EXPECT_EQ(json_field(events[0], "ok"), "true");
  EXPECT_EQ(json_field(events[0], "recovered"), "0");
  EXPECT_EQ(json_field(events[0], "finished"), "2");
  const std::vector<std::string> after = Journal::replay(path);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(json_field(after[0], "type"), "config");
}

TEST_F(JournalTest, CrashReplayReproducesBitIdenticalHashes) {
  const std::string path = temp_path("journal_crash.mftj");
  EventLog ref;
  {
    SizingDaemon d(durable_opts(path), ref.emit());
    d.handle_line(kSubmitA);
    d.handle_line(kSubmitB);
    d.drain();
  }
  ASSERT_NE(ref.hash_for("a"), "");
  ASSERT_NE(ref.hash_for("b"), "");
  ASSERT_NE(ref.hash_for("a"), ref.hash_for("b"));  // distinct rid seeds

  // Simulate the kill -9: strip the result records, leaving the journal
  // exactly as it stood after the write-ahead appends — both requests
  // accepted, neither finished.
  std::vector<std::string> submits;
  for (const std::string& rec : Journal::replay(path))
    if (rec.find("\"type\":\"submit\"") != std::string::npos)
      submits.push_back(rec);
  ASSERT_EQ(submits.size(), 2u);
  Journal::rewrite(path, submits);

  EventLog log;
  {
    SizingDaemon d(durable_opts(path), log.emit());
    d.drain();
    EXPECT_EQ(d.stats().recovered, 2u);
  }
  // Replay re-admitted both (accepted events carry their original rids)
  // and — same journaled seeds — reproduced the exact solution vectors.
  EXPECT_EQ(log.hash_for("a"), ref.hash_for("a"));
  EXPECT_EQ(log.hash_for("b"), ref.hash_for("b"));
  // And the terminal results are now journaled, so a second restart is a
  // no-op recovery.
  EventLog log2;
  SizingDaemon d2(durable_opts(path), log2.emit());
  EXPECT_EQ(json_field(log2.snapshot().at(0), "recovered"), "0");
}

// A journal from a build that served an out-of-range size (sscanf once
// read adder4294967298 as adder2) replays that submit as a structured
// invalid_input result and journals it finished.
TEST_F(JournalTest, ReplayAnswersARefusedCircuitNameWithInvalidInput) {
  const std::string path = temp_path("journal_refused.mftj");
  Journal::rewrite(path, {"{\"type\":\"submit\",\"rid\":0,\"id\":\"a\","
                          "\"circuit\":\"adder4294967298\",\"ratio\":0.8}"});
  EventLog log;
  {
    SizingDaemon d(durable_opts(path), log.emit());
    d.drain();
  }
  std::vector<std::string> results;
  for (const std::string& l : log.snapshot()) {
    EXPECT_NE(json_field(l, "event"), "accepted") << l;
    if (json_field(l, "event") == "result") results.push_back(l);
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(json_field(results[0], "id"), "a");
  EXPECT_EQ(json_field(results[0], "status"), "invalid_input");
  EventLog log2;
  SizingDaemon d2(durable_opts(path), log2.emit());
  EXPECT_EQ(json_field(log2.snapshot().at(0), "recovered"), "0");
}

// Integer fields replay from their token text, never through a double: a
// seed above 2^53 comes back exactly (as a double it replayed as
// 7960286522194355200, a different pseudo-random stream). The same record
// as older builds wrote it, with a per-job inner-loop thread count this
// build no longer has, replays to the same sizes: the key is ignored.
TEST_F(JournalTest, ReplayedSubmitRunsUnderItsJournaledSeedExactly) {
  const std::string path = temp_path("journal_seed.mftj");
  const std::string records[] = {
      "{\"type\":\"submit\",\"rid\":0,\"id\":\"a\",\"circuit\":\"c17\","
      "\"ratio\":0.8,\"seed\":7960286522194355700}",
      "{\"type\":\"submit\",\"rid\":0,\"id\":\"a\",\"circuit\":\"c17\","
      "\"ratio\":0.8,\"inner_threads\":2,\"seed\":7960286522194355700}"};
  std::vector<std::string> hashes;
  for (const std::string& record : records) {
    SCOPED_TRACE(record);
    Journal::rewrite(path, {record});
    EventLog log;
    {
      SizingDaemon d(durable_opts(path), log.emit());
      d.drain();
      EXPECT_EQ(d.stats().recovered, 1u);
    }
    std::string result;
    for (const std::string& l : log.snapshot())
      if (json_field(l, "event") == "result" && json_field(l, "id") == "a")
        result = l;
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(json_field(result, "status"), "ok") << result;
    EXPECT_EQ(json_field(result, "seed"), "7960286522194355700") << result;
    hashes.push_back(json_field(result, "sizes_hash"));
  }
  EXPECT_FALSE(hashes[0].empty());
  EXPECT_EQ(hashes[1], hashes[0]);
}

TEST_F(JournalTest, AppendFaultRefusesTheSubmitButTheDaemonServes) {
  const std::string path = temp_path("journal_append_fault.mftj");
  EventLog log;
  SizingDaemon d(durable_opts(path), log.emit());
  FaultInjector::instance().arm("journal.append", 1);
  d.handle_line(kSubmitA);
  d.drain();
  {
    const std::vector<std::string> events = log.snapshot();
    // replay event + exactly one terminal error, no accepted event: the
    // write-ahead failed, so the job never reached the engine.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(json_field(events[1], "event"), "result");
    EXPECT_EQ(json_field(events[1], "status"), "internal");
    EXPECT_NE(events[1].find("journal append failed"), std::string::npos);
  }
  EXPECT_EQ(d.stats().journal_errors, 1u);
  // The fault was transient; the next submit is durable and completes.
  d.handle_line(kSubmitB);
  d.drain();
  EXPECT_NE(log.hash_for("b"), "");
  // config snapshot + b's submit + b's result
  EXPECT_EQ(Journal::replay(path).size(), 3u);
}

TEST_F(JournalTest, ReplayFaultDegradesToAStructuredEventAndServes) {
  const std::string path = temp_path("journal_replay_fault.mftj");
  {  // leave one unfinished submit behind
    Journal j;
    j.open(path);
    j.append(
        "{\"type\":\"submit\",\"rid\":0,\"circuit\":\"c17\",\"id\":\"a\","
        "\"ratio\":0.8,\"seed\":42}");
  }
  FaultInjector::instance().arm("journal.replay", 1);
  EventLog log;
  SizingDaemon d(durable_opts(path), log.emit());
  {
    const std::vector<std::string> events = log.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(json_field(events[0], "event"), "replay");
    EXPECT_EQ(json_field(events[0], "ok"), "false");
  }
  EXPECT_EQ(d.stats().recovered, 0u);
  EXPECT_EQ(d.stats().journal_errors, 1u);
  // Recovery was lost, not the daemon: it keeps serving durably.
  d.handle_line(kSubmitB);
  d.drain();
  EXPECT_NE(log.hash_for("b"), "");
}

// ---------------------------------------------------------------------------
// Rotation (size-triggered compaction) and the config snapshot gate
// ---------------------------------------------------------------------------

TEST_F(JournalTest, RotationCompactsTheJournalDownToItsLiveSet) {
  const std::string path = temp_path("journal_rotate.mftj");
  DaemonOptions opt = durable_opts(path);
  // Any terminal record tips the journal over this bound, so every
  // completed request compacts: the steady-state file is exactly the
  // config snapshot plus whatever is still unfinished.
  opt.journal_compact_bytes = 1;
  EventLog log;
  SizingDaemon d(opt, log.emit());
  for (int i = 0; i < 4; ++i) {
    d.handle_line(kSubmitA);
    d.drain();
  }
  const DaemonStats s = d.stats();
  EXPECT_GE(s.journal_compactions, 4u);
  EXPECT_EQ(s.journal_errors, 0u);
  // Nothing outstanding: the rotated journal holds only the config head,
  // and its size stays bounded by the live set instead of growing with
  // history.
  const std::vector<std::string> recs = Journal::replay(path);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(json_field(recs[0], "type"), "config");
  EXPECT_LT(s.journal_bytes, 256u);
  // A restart of the rotated journal recovers nothing and serves on.
  EventLog log2;
  SizingDaemon d2(opt, log2.emit());
  EXPECT_EQ(json_field(log2.snapshot().at(0), "ok"), "true");
  EXPECT_EQ(json_field(log2.snapshot().at(0), "recovered"), "0");
  d2.handle_line(kSubmitB);
  d2.drain();
  EXPECT_NE(log2.hash_for("b"), "");
}

TEST_F(JournalTest, IncompatibleConfigSnapshotRefusesReplayAndPreservesIt) {
  const std::string path = temp_path("journal_config.mftj");
  {  // clean run under the default engine config
    EventLog log;
    SizingDaemon d(durable_opts(path), log.emit());
    d.handle_line(kSubmitA);
    d.drain();
  }
  // Simulate the crash: strip the result record so rid 0 looks
  // unfinished, keeping the config snapshot and the submit.
  std::vector<std::string> recs;
  for (const std::string& r : Journal::replay(path))
    if (r.find("\"type\":\"result\"") == std::string::npos) recs.push_back(r);
  ASSERT_EQ(recs.size(), 2u);  // config + submit
  Journal::rewrite(path, recs);

  ASSERT_EQ(json_field(recs[0], "type"), "config");
  // The snapshot with the "fast_math" flag older builds wrote into it.
  auto snapshot_saying = [&](const std::string& fast_math) {
    std::vector<std::string> r = recs;
    r[0].insert(r[0].size() - 1, ",\"fast_math\":" + fast_math);
    return r;
  };

  // A daemon could *run* these replays — and silently produce different
  // sizes than the journal's clients were promised: a snapshot that says
  // "fast_math":true (reassociated folds this build cannot reproduce), and
  // one whose base_seed differs from the engine's. It must refuse instead,
  // and leave the file untouched.
  DaemonOptions other_seed = durable_opts(path);
  other_seed.engine.base_seed = 12345;
  const std::pair<std::vector<std::string>, DaemonOptions> refused[] = {
      {snapshot_saying("true"), durable_opts(path)}, {recs, other_seed}};
  for (const auto& [journal, opt] : refused) {
    SCOPED_TRACE(journal[0]);
    Journal::rewrite(path, journal);
    EventLog log;
    SizingDaemon d(opt, log.emit());
    {
      const std::vector<std::string> events = log.snapshot();
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(json_field(events[0], "event"), "replay");
      EXPECT_EQ(json_field(events[0], "ok"), "false");
      EXPECT_NE(events[0].find("config incompatible"), std::string::npos);
    }
    EXPECT_EQ(d.stats().recovered, 0u);
    EXPECT_EQ(Journal::replay(path), journal);  // preserved, not compacted
    // The refusing daemon still serves (its new records append behind the
    // preserved ones).
    d.handle_line(kSubmitB);
    d.drain();
    EXPECT_NE(log.hash_for("b"), "");
  }

  // The *matching* engine can still recover the preserved request later,
  // and from the snapshot as every older journal wrote it.
  for (int older = 0; older < 2; ++older) {
    SCOPED_TRACE(older);
    if (older) Journal::rewrite(path, snapshot_saying("false"));
    EventLog log2;
    SizingDaemon d2(durable_opts(path), log2.emit());
    d2.drain();
    EXPECT_EQ(json_field(log2.snapshot().at(0), "ok"), "true");
    EXPECT_EQ(d2.stats().recovered, 1u);
    EXPECT_NE(log2.hash_for("a"), "");
  }
}

}  // namespace
}  // namespace mft
