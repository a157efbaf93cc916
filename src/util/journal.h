// Crash-durable append-only record log (write-ahead journal).
//
// The sizing daemon journals every accepted submit and every terminal
// result so a process that dies mid-burst can be restarted on the same
// file and re-admit exactly the journaled-but-unfinished requests.
// Payloads are opaque bytes (the daemon writes flat JSON lines); the
// journal only adds framing and durability:
//
//   MFTJ <len> <crc32-hex8> <payload>\n
//
// one record per line, `len` the payload byte count in decimal, the CRC
// (IEEE 802.3 polynomial) over the payload alone. Every append() is
// fsync'd before it returns — a record handed back to the caller is on
// disk. replay() walks the file from the start and returns the longest
// valid prefix of records: a torn tail (partial write from a crash, a
// truncated file, a frame length past the end of the file) or a CRC
// mismatch stops the walk without error, because after a kill -9 a
// damaged last record is the *expected* state, not a corruption to die
// over. rewrite() (compaction) replaces the file atomically via
// tmp-write + rename.
//
// Thread-safety: none — callers guard the Journal with their own lock
// (the daemon uses its session mutex). replay()/rewrite() are static and
// touch only their path argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mft {

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending (created if missing). Throws EngineError
  /// (kInternal) when the file cannot be opened.
  void open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  void close();

  /// Appends one framed record and fsyncs it. Throws EngineError
  /// (kInternal) on a closed journal, a write failure, or an injected
  /// fault at site "journal.append".
  void append(const std::string& payload);

  const std::string& path() const { return path_; }
  std::int64_t appends() const { return appends_; }
  std::int64_t fsyncs() const { return fsyncs_; }
  /// Current on-disk size in bytes: the file size found at open() plus
  /// every frame appended since. Drives size-triggered compaction
  /// (rotation) in the daemon; 0 when closed.
  std::int64_t bytes() const { return bytes_; }

  /// Reads every intact record from `path` in order. A missing file is an
  /// empty journal. A torn or CRC-corrupt tail ends the walk — `*torn`
  /// (optional) reports whether trailing bytes were discarded. Throws
  /// EngineError only for an injected fault at site "journal.replay" or a
  /// file that exists but cannot be read.
  static std::vector<std::string> replay(const std::string& path,
                                         bool* torn = nullptr);

  /// Atomically replaces `path` with a journal holding exactly `records`
  /// (compaction): writes path + ".tmp", fsyncs, renames over `path`.
  static void rewrite(const std::string& path,
                      const std::vector<std::string>& records);

  /// CRC32 (IEEE) of `bytes` — exposed for the framing tests.
  static std::uint32_t crc32(const std::string& bytes);

 private:
  int fd_ = -1;
  std::string path_;
  std::int64_t appends_ = 0;
  std::int64_t fsyncs_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace mft
