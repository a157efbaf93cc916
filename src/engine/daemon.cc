#include "engine/daemon.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "gen/circuit_name.h"
#include "sizing/resize.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/str.h"

namespace mft {

namespace {

// ---------------------------------------------------------------------------
// Flat-object JSON (the protocol subset)
// ---------------------------------------------------------------------------
//
// Requests are one flat JSON object per line — string/number/bool/null
// values only, no nesting. A dedicated ~100-line parser keeps the daemon
// dependency-free and makes "malformed" a precise, testable notion: any
// deviation is a parse error carried back as kInvalidInput, never an
// aborted daemon. Numbers follow JSON's grammar (no nan, inf, hex or
// leading '+') and must be finite as a double; a number keeps its token
// text so integer fields parse exactly, never through a double.

struct JsonVal {
  enum Kind { kString, kNumber, kBool, kNull } kind = kNull;
  std::string str;  ///< a string's value, or a number's token text
  double num = 0.0;
  bool b = false;
};

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& s) : s_(s) {}

  bool parse(std::map<std::string, JsonVal>& out, std::string& err) {
    skip_ws();
    if (!eat('{')) return fail(err, "expected '{'");
    skip_ws();
    if (eat('}')) return finish(err);
    while (true) {
      skip_ws();
      JsonVal key;
      if (!parse_string(key.str)) return fail(err, "expected string key");
      skip_ws();
      if (!eat(':')) return fail(err, "expected ':'");
      skip_ws();
      JsonVal val;
      if (!parse_value(val)) return fail(err, "bad value");
      out[key.str] = std::move(val);
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return finish(err);
      return fail(err, "expected ',' or '}'");
    }
  }

 private:
  bool finish(std::string& err) {
    skip_ws();
    if (pos_ != s_.size()) return fail(err, "trailing characters");
    return true;
  }

  bool fail(std::string& err, const char* what) {
    err = strf("%s at byte %zu", what, pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, finite as a double.
  bool parse_number(JsonVal& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    out.kind = JsonVal::kNumber;
    out.str = s_.substr(start, pos_ - start);
    out.num = std::strtod(out.str.c_str(), nullptr);
    return std::isfinite(out.num);
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // Protocol strings are names and tags; BMP code points encoded
          // as UTF-8 are all the daemon ever needs to round-trip.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_value(JsonVal& out) {
    if (pos_ < s_.size() && s_[pos_] == '"') {
      out.kind = JsonVal::kString;
      return parse_string(out.str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonVal::kBool;
      out.b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonVal::kBool;
      out.b = false;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonVal::kNull;
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

using JsonObj = std::map<std::string, JsonVal>;

std::string get_string(const JsonObj& obj, const char* key,
                       const std::string& fallback = {}) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.kind != JsonVal::kString) return fallback;
  return it->second.str;
}

double get_number(const JsonObj& obj, const char* key, double fallback) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.kind != JsonVal::kNumber) return fallback;
  return it->second.num;
}

/// Parses all of `text` as an integer of type T with std::from_chars.
/// False, with `out` untouched, for anything else: a fraction or exponent,
/// a sign T cannot hold, a leading space or '+', trailing bytes, too many
/// digits.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  T v{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) return false;
  out = v;
  return true;
}

/// Reads field `key` as an integer of type T exactly (from the number's
/// token text, never through a double). False, with `out` untouched, when
/// the key is absent, is not a number, or is not an integer in T's range.
template <typename T>
bool find_integer(const JsonObj& obj, const char* key, T& out) {
  auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonVal::kNumber &&
         parse_whole(it->second.str, out);
}

/// Integer request field: `fallback` when absent; otherwise it must be an
/// integer in [lo, hi], or the request is refused with kInvalidInput.
template <typename T>
T get_integer(const JsonObj& obj, const char* key, T fallback,
              T lo = std::numeric_limits<T>::min(),
              T hi = std::numeric_limits<T>::max()) {
  if (obj.find(key) == obj.end()) return fallback;
  T v{};
  if (!find_integer(obj, key, v) || v < lo || v > hi)
    throw EngineError(EngineStatus::kInvalidInput,
                      strf("\"%s\" must be an integer in [%s, %s]", key,
                           std::to_string(lo).c_str(),
                           std::to_string(hi).c_str()));
  return v;
}

/// The session a resize or release names: a positive integer, or the
/// request is refused with kInvalidInput.
std::uint64_t get_session(const JsonObj& obj, const char* op) {
  std::uint64_t sid = 0;
  if (!find_integer(obj, "session", sid) || sid == 0)
    throw EngineError(EngineStatus::kInvalidInput,
                      strf("%s needs a positive integer \"session\"", op));
  return sid;
}

/// Truthiness helper: accepts a JSON bool or a non-zero number (clients
/// writing "session":1 mean the same thing as "session":true).
bool get_flag(const JsonObj& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end()) return false;
  if (it->second.kind == JsonVal::kBool) return it->second.b;
  if (it->second.kind == JsonVal::kNumber) return it->second.num != 0.0;
  return false;
}

/// Incremental JSON-object line builder for responses.
class JsonLine {
 public:
  JsonLine& str(const char* key, const std::string& v) {
    open(key);
    out_.push_back('"');
    append_json_escaped(out_, v);
    out_.push_back('"');
    return *this;
  }
  JsonLine& num(const char* key, double v) {
    open(key);
    out_ += strf("%.17g", v);
    return *this;
  }
  JsonLine& integer(const char* key, long long v) {
    open(key);
    out_ += strf("%lld", v);
    return *this;
  }
  JsonLine& uinteger(const char* key, unsigned long long v) {
    open(key);
    out_ += strf("%llu", v);
    return *this;
  }
  JsonLine& boolean(const char* key, bool v) {
    open(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  std::string done() {
    out_.push_back('}');
    return std::move(out_);
  }

 private:
  void open(const char* key) {
    out_.push_back(out_.empty() ? '{' : ',');
    out_.push_back('"');
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
};

/// FNV-1a over the solution vector's IEEE-754 bit patterns: two results
/// hash equal iff their sizes are bit-identical, which is how the protocol
/// exposes the engine's determinism contract without shipping the vector.
std::uint64_t sizes_hash(const std::vector<double>& sizes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : sizes) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Shared by live submits and journal replay: both carry the same flat
/// key set, so a journaled submit record round-trips through this exactly
/// like the original request line did. Throws kInvalidInput for a field
/// out of its range; integers are exact, so a journaled seed replays as
/// the seed it pinned.
SizingJob job_from_obj(const JsonObj& obj, const std::string& circuit) {
  SizingJob job;
  job.label = get_string(obj, "label", circuit);
  job.target_ratio = get_number(obj, "ratio", 0.6);
  job.target_delay = get_number(obj, "target", 0.0);
  job.priority = get_integer<int>(obj, "priority", 0);
  job.deadline_seconds = get_number(obj, "deadline", 0.0);
  job.max_steps = get_integer<std::int64_t>(obj, "max_steps", 0);
  job.seed = get_integer<std::uint64_t>(obj, "seed", 0);
  if (!(job.target_ratio > 0.0))
    throw EngineError(EngineStatus::kInvalidInput,
                      "\"ratio\" must be a positive number");
  if (!(job.target_delay >= 0.0))
    throw EngineError(EngineStatus::kInvalidInput,
                      "\"target\" must be a non-negative number");
  if (!(job.deadline_seconds >= 0.0))
    throw EngineError(EngineStatus::kInvalidInput,
                      "\"deadline\" must be a non-negative number");
  return job;
}

}  // namespace

// ---------------------------------------------------------------------------
// SizingDaemon
// ---------------------------------------------------------------------------

struct SizingDaemon::ParsedSubmit {
  std::string id;
  std::string circuit;
  SizingJob job;
  bool session = false;  ///< keep the sized result live for "resize" ops
};

struct SizingDaemon::ParsedResize {
  std::string id;
  std::uint64_t sid = 0;
  double target = 0.0;  ///< 0 keeps the session's current target
  std::string loads;    ///< "vertex:delta,..." as received (journaled verbatim)
  std::string pins;     ///< "vertex:size,..." (size 0 releases)
};

/// One live ECO session. Map membership and the base_* fields are guarded
/// by the daemon's mu_ (on_result fills them from a worker thread); the
/// ResizeSession itself is only ever touched from the request thread, and
/// only once `ready` was observed under the lock.
struct SizingDaemon::EcoSession {
  explicit EcoSession(std::string name) : circuit(std::move(name)) {}
  std::string circuit;
  bool ready = false;   ///< base result landed ok; base_sizes/target valid
  bool failed = false;  ///< base job failed; resizes are refused
  std::vector<double> base_sizes;
  double base_target = 0.0;
  /// Built lazily at the first resize (request thread only).
  std::unique_ptr<ResizeSession> rs;
};

namespace {

/// The write-ahead submit record: everything needed to re-run the request
/// after a crash, seed included (already resolved by the caller, so the
/// replayed solve is pinned to the same pseudo-random stream).
std::string submit_record(std::uint64_t rid, const std::string& id,
                          const std::string& circuit, const SizingJob& job,
                          std::uint64_t sid) {
  JsonLine rec;
  rec.str("type", "submit").uinteger("rid", rid).str("circuit", circuit);
  if (!id.empty()) rec.str("id", id);
  if (sid != 0) rec.uinteger("session", sid);
  return rec.str("label", job.label)
      .num("ratio", job.target_ratio)
      .num("target", job.target_delay)
      .integer("priority", job.priority)
      .num("deadline", job.deadline_seconds)
      .integer("max_steps", job.max_steps)
      .uinteger("seed", job.seed)
      .done();
}

/// The write-ahead resize record: the delta verbatim, so replay re-applies
/// exactly what the client sent.
std::string resize_record(std::uint64_t rid, std::uint64_t sid,
                          const std::string& id, double target,
                          const std::string& loads, const std::string& pins) {
  JsonLine rec;
  rec.str("type", "resize").uinteger("rid", rid).uinteger("session", sid);
  if (!id.empty()) rec.str("id", id);
  return rec.num("target", target).str("loads", loads).str("pins", pins).done();
}

/// Parses the protocol's delta encoding: a comma-separated
/// "vertex:value" list ("12:0.05,33:-0.01"; the flat protocol has no
/// arrays, so deltas ride in strings). Empty input is the empty list.
bool parse_vertex_list(const std::string& s,
                       std::vector<std::pair<NodeId, double>>& out,
                       std::string& err) {
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(',', pos);
    if (end == std::string::npos) end = s.size();
    const std::string item(trim(s.substr(pos, end - pos)));
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos || colon == 0) {
      err = strf("bad entry '%s': expected vertex:value", item.c_str());
      return false;
    }
    // The whole id, parsed into NodeId's range (never narrowed from a
    // wider integer), and a finite value.
    NodeId v = 0;
    if (!parse_whole(std::string_view(item).substr(0, colon), v) || v < 0) {
      err = strf("bad vertex in '%s'", item.c_str());
      return false;
    }
    const char* vstart = item.c_str() + colon + 1;
    char* endp = nullptr;
    const double val = std::strtod(vstart, &endp);
    if (endp == vstart || *endp != '\0' || !std::isfinite(val)) {
      err = strf("bad value in '%s'", item.c_str());
      return false;
    }
    out.emplace_back(v, val);
  }
  return true;
}

/// Builds a ResizeDelta from the request's string encodings; throws
/// kInvalidInput on malformed input (before any state is touched).
ResizeDelta delta_from_strings(double target, const std::string& loads,
                               const std::string& pins) {
  std::vector<std::pair<NodeId, double>> lv, pv;
  std::string err;
  if (!parse_vertex_list(loads, lv, err))
    throw EngineError(EngineStatus::kInvalidInput, "bad \"loads\": " + err);
  if (!parse_vertex_list(pins, pv, err))
    throw EngineError(EngineStatus::kInvalidInput, "bad \"pins\": " + err);
  ResizeDelta delta;
  delta.target_delay = target;
  delta.load_edits.reserve(lv.size());
  for (const auto& e : lv)
    delta.load_edits.push_back(ResizeLoadEdit{e.first, e.second});
  delta.pins.reserve(pv.size());
  for (const auto& e : pv) delta.pins.push_back(ResizePin{e.first, e.second});
  return delta;
}

}  // namespace

SizingDaemon::SizingDaemon(DaemonOptions opt, Emit emit)
    : opt_(std::move(opt)), emit_(std::move(emit)) {
  MFT_CHECK_MSG(emit_ != nullptr, "SizingDaemon needs an emit callback");
  runner_ = std::make_unique<StreamingRunner>(opt_.engine);
  if (!opt_.journal_path.empty()) recover_from_journal();
}

SizingDaemon::~SizingDaemon() {
  drain();
  runner_->shutdown(StreamingRunner::ShutdownMode::kDrain);
}

bool SizingDaemon::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void SizingDaemon::drain() { runner_->wait_all(); }

void SizingDaemon::handle_line(const std::string& line) {
  // Blank lines are keep-alive noise, not requests; everything else gets
  // exactly one terminal response, whatever goes wrong below.
  if (trim(line).empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
  }
  std::string id;
  try {
    MFT_FAULT_POINT("daemon.parse");
    JsonObj obj;
    std::string err;
    if (!FlatJsonParser(line).parse(obj, err))
      throw EngineError(EngineStatus::kInvalidInput,
                        "malformed request: " + err);
    id = get_string(obj, "id");
    const std::string op = get_string(obj, "op");
    if (op == "submit") {
      ParsedSubmit req;
      req.id = id;
      req.circuit = get_string(obj, "circuit");
      if (req.circuit.empty())
        throw EngineError(EngineStatus::kInvalidInput,
                          "submit needs a \"circuit\"");
      req.job = job_from_obj(obj, req.circuit);
      req.session = get_flag(obj, "session");
      do_submit(req);
    } else if (op == "resize") {
      ParsedResize req;
      req.id = id;
      req.sid = get_session(obj, "resize");
      req.target = get_number(obj, "target", 0.0);
      req.loads = get_string(obj, "loads");
      req.pins = get_string(obj, "pins");
      do_resize(req);
    } else if (op == "release") {
      do_release(id, get_session(obj, "release"));
    } else if (op == "cancel") {
      JobTicket t = 0;
      if (!find_integer(obj, "ticket", t))
        throw EngineError(EngineStatus::kInvalidInput,
                          "cancel needs a non-negative integer \"ticket\"");
      bool ok = false;
      std::string note;
      try {
        ok = runner_->cancel(t);
        if (!ok) note = "already completed";
      } catch (const std::exception& e) {
        note = e.what();  // never-issued ticket
      }
      std::lock_guard<std::mutex> lock(mu_);
      JsonLine out;
      out.str("event", "cancel");
      if (!id.empty()) out.str("id", id);
      out.uinteger("ticket", t).boolean("ok", ok);
      if (!note.empty()) out.str("error", note);
      emit_locked(out.done());
    } else if (op == "stats") {
      std::lock_guard<std::mutex> lock(mu_);
      const DaemonStats s = stats_locked();
      JsonLine out;
      out.str("event", "stats");
      if (!id.empty()) out.str("id", id);
      emit_locked(
          out.uinteger("requests", s.requests)
              .uinteger("admitted", s.admitted)
              .uinteger("rejected", s.rejected)
              .uinteger("invalid", s.invalid)
              .uinteger("results", s.results)
              .uinteger("submitted", s.engine.submitted)
              .uinteger("completed", s.engine.completed)
              .uinteger("canceled", s.engine.canceled)
              .uinteger("degraded", s.engine.degraded)
              .uinteger("shed", s.engine.shed)
              .uinteger("queue_depth",
                        static_cast<unsigned long long>(s.engine.queue_depth))
              .uinteger("queue_peak",
                        static_cast<unsigned long long>(s.engine.queue_peak))
              .num("queue_wait_seconds", s.engine.queue_wait_seconds)
              .num("run_seconds", s.engine.run_seconds)
              .uinteger("retries", s.engine.retries)
              .uinteger("hangs", s.engine.hangs)
              .uinteger("respawns", s.engine.respawns)
              .uinteger("journal_records", s.journal_records)
              .uinteger("journal_fsyncs", s.journal_fsyncs)
              .uinteger("journal_errors", s.journal_errors)
              .uinteger("journal_bytes", s.journal_bytes)
              .uinteger("journal_compactions", s.journal_compactions)
              .uinteger("recovered", s.recovered)
              .uinteger("sessions", s.sessions)
              .num("ewma_run_seconds", s.ewma_run_seconds)
              .num("p50_seconds", s.p50_seconds)
              .num("p99_seconds", s.p99_seconds)
              .integer("workers", runner_->threads())
              .done());
    } else if (op == "shutdown") {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      // Engine jobs still running or queued. results_ also counts resize
      // answers, which are not jobs, so it cannot be subtracted here.
      const StreamStats es = runner_->stats();
      emit_locked(JsonLine()
                      .str("event", "shutdown")
                      .uinteger("outstanding", es.submitted - es.completed)
                      .done());
    } else {
      throw EngineError(
          EngineStatus::kInvalidInput,
          op.empty() ? std::string("request has no \"op\"")
                     : strf("unknown op '%s'", op.c_str()));
    }
  } catch (const EngineError& e) {
    respond_error(id, e.status(), e.what());
  } catch (const std::exception& e) {
    // Includes injected faults at daemon.parse/daemon.accept: a
    // structured internal error, and the daemon keeps serving.
    respond_error(id, EngineStatus::kInternal, e.what());
  }
}

void SizingDaemon::do_submit(const ParsedSubmit& req) {
  // Admission seam (fault-injectable) and circuit resolution (throws
  // kInvalidInput for an unknown name) both run before mu_ is taken —
  // their exceptions unwind to handle_line's respond_error, which locks.
  MFT_FAULT_POINT("daemon.accept");
  const SizingNetwork& net = circuit(req.circuit);
  const std::string id = req.id;
  std::lock_guard<std::mutex> lock(mu_);
  std::string refusal;
  if (shutdown_) {
    refusal = "daemon is shutting down";
  } else {
    const StreamStats es = runner_->stats();
    if (opt_.max_queue_depth > 0 && es.queue_depth >= opt_.max_queue_depth) {
      refusal = strf("queue full: depth %zu at bound %zu", es.queue_depth,
                     opt_.max_queue_depth);
    } else if (opt_.deadline_pressure > 0.0 && req.job.deadline_seconds > 0.0) {
      const double workers = static_cast<double>(runner_->threads());
      if (ewma_run_seconds_ > 0.0) {
        // Predicted completion, not just queue wait: the job's own
        // expected run (one EWMA per worker slot, i.e. +workers in the
        // numerator) counts against its deadline too. Estimating the wait
        // alone admitted every job whose runtime exceeded its deadline
        // outright, only to shed it later.
        const double predicted = ewma_run_seconds_ *
                                 (static_cast<double>(es.queue_depth) +
                                  workers) /
                                 workers;
        if (predicted > req.job.deadline_seconds * opt_.deadline_pressure)
          refusal = strf(
              "deadline pressure: predicted completion %.3gs exceeds "
              "deadline %.3gs",
              predicted, req.job.deadline_seconds);
      } else if (es.queue_depth >=
                 static_cast<std::size_t>(runner_->threads())) {
        // Cold start: no completed job yet, so no runtime estimate. The
        // old code silently admitted everything through this window; a
        // burst arriving before the first result could build an unbounded
        // backlog of deadline work that would all shed. Until the EWMA
        // exists, refuse deadline-carrying submits once the backlog
        // reaches the worker count.
        refusal = strf(
            "deadline pressure (cold start): queue depth %zu at %d workers "
            "with no completed-job estimate yet",
            es.queue_depth, runner_->threads());
      }
    }
  }
  if (!refusal.empty()) {
    respond_error_locked(id, EngineStatus::kRejected, refusal);
    return;
  }
  // Durability, write-ahead: resolve the seed the engine would pick (so
  // the journaled record pins the exact solve) and fsync the submit
  // record before the engine can see the job.
  SizingJob job = req.job;
  const std::uint64_t sid = req.session ? next_session_id_++ : 0;
  std::uint64_t rid = 0;
  if (journaled()) {
    rid = next_rid_++;
    if (job.seed == 0) job.seed = derive_job_seed(opt_.engine.base_seed, rid);
    if (!journal_ahead_locked(id, LiveSet::Kind::kSubmit, rid, sid,
                              submit_record(rid, id, req.circuit, job, sid)))
      return;
  }
  if (sid != 0) sessions_[sid] = std::make_unique<EcoSession>(req.circuit);
  admit_locked(net, job, id, rid, sid);
}

void SizingDaemon::admit_locked(const SizingNetwork& net, const SizingJob& job,
                                const std::string& id, std::uint64_t rid,
                                std::uint64_t sid) {
  // Lock order is daemon mu_ -> runner internals; result callbacks take
  // them in the compatible order callback_mu_ -> daemon mu_.
  const JobTicket t = runner_->submit_detached(
      net, job,
      [this, id, rid, sid](const JobResult& r) { on_result(id, rid, sid, r); });
  ++admitted_;
  JsonLine out;
  out.str("event", "accepted");
  if (!id.empty()) out.str("id", id);
  if (journaled()) out.uinteger("rid", rid);
  if (sid != 0) out.uinteger("session", sid);
  emit_locked(out.uinteger("ticket", t).done());
}

void SizingDaemon::on_result(const std::string& id, std::uint64_t rid,
                             std::uint64_t sid, const JobResult& r) {
  std::lock_guard<std::mutex> lock(mu_);
  // Admission estimate: successful completions only. A shed, canceled, or
  // faulted job returns in unrepresentative (often near-zero) wall time;
  // folding those in let a failure storm drag the EWMA toward zero and
  // re-open admission exactly when the daemon was least able to serve.
  if (r.ok && r.wall_seconds > 0.0)
    ewma_run_seconds_ = ewma_run_seconds_ == 0.0
                            ? r.wall_seconds
                            : 0.3 * r.wall_seconds + 0.7 * ewma_run_seconds_;
  latency_.record(r.queue_seconds + r.wall_seconds);
  ++results_;
  if (sid != 0) {
    // ECO session base: capture the sized state the resizes start from.
    auto it = sessions_.find(sid);
    if (it != sessions_.end()) {
      EcoSession& es = *it->second;
      if (r.ok) {
        es.base_sizes = r.result.sizes;
        es.base_target = r.target;
        es.ready = true;
      } else {
        es.failed = true;
      }
    }
  }
  JsonLine out;
  out.str("event", "result");
  if (!id.empty()) out.str("id", id);
  if (journaled()) out.uinteger("rid", rid);
  if (sid != 0) out.uinteger("session", sid);
  out.integer("ticket", r.job)
      .str("status", to_string(r.status))
      .boolean("ok", r.ok)
      .boolean("degraded", r.degraded)
      .str("label", r.label)
      .integer("priority", r.priority)
      .uinteger("seed", r.seed)
      .num("queue_seconds", r.queue_seconds)
      .num("wall_seconds", r.wall_seconds);
  if (r.ok) {
    out.num("area", r.result.area)
        .num("delay", r.result.delay)
        .num("target", r.target)
        .uinteger("sizes_hash", sizes_hash(r.result.sizes));
  } else {
    out.str("error", r.error);
  }
  emit_locked(out.done());
  // Journal the terminal record *after* the event went out: a crash in
  // the gap re-runs and re-emits the request on replay (at-least-once
  // emission), which is the recoverable side of the race — the reverse
  // order could mark a request finished whose result no client ever saw.
  //
  // A *successful* session base deliberately journals no result record:
  // its sizes are not in the journal, so replay must re-run it (same
  // seed, bit-identical by the determinism contract) to rebuild the
  // session state the journaled resize chain re-applies against.
  if (journaled() && (sid == 0 || !r.ok)) {
    JsonLine rec;
    rec.str("type", "result")
        .uinteger("rid", rid)
        .str("status", to_string(r.status))
        .boolean("ok", r.ok);
    if (r.ok) rec.uinteger("sizes_hash", sizes_hash(r.result.sizes));
    journal_terminal_locked(LiveSet::Kind::kResult, rid, sid, r.ok,
                            rec.done());
  }
}

bool SizingDaemon::journal_ahead_locked(const std::string& id,
                                        LiveSet::Kind kind, std::uint64_t rid,
                                        std::uint64_t sid,
                                        const std::string& rec) {
  try {
    journal_.append(rec);
  } catch (const std::exception& e) {
    // Accepting work we cannot make durable would silently drop the
    // crash-recovery contract.
    ++journal_errors_;
    respond_error_locked(id, EngineStatus::kInternal,
                         strf("journal append failed: %s", e.what()));
    return false;
  }
  live_.apply(kind, rid, sid, true, rec);
  return true;
}

void SizingDaemon::journal_terminal_locked(LiveSet::Kind kind,
                                           std::uint64_t rid,
                                           std::uint64_t sid, bool ok,
                                           const std::string& rec) {
  try {
    journal_.append(rec);
  } catch (const std::exception&) {
    // A terminal record that fails to persist re-runs its request on the
    // next replay — redundant work, not lost work. Count it and serve on.
    ++journal_errors_;
  }
  live_.apply(kind, rid, sid, ok, rec);
  maybe_compact_locked();
}

bool SizingDaemon::LiveSet::apply(Kind kind, std::uint64_t rid,
                                  std::uint64_t sid, bool ok,
                                  const std::string& payload) {
  switch (kind) {
    case Kind::kSubmit:
      if (sid != 0) sessions_[sid].push_back(rid);
      entries_[rid] = Entry{sid, false, payload, {}};
      return true;
    case Kind::kResize: {
      const auto s = sessions_.find(sid);
      if (s == sessions_.end()) return false;
      s->second.push_back(rid);
      entries_[rid] = Entry{sid, true, payload, {}};
      return true;
    }
    case Kind::kResult: {
      const auto it = entries_.find(rid);
      if (it == entries_.end()) return false;
      Entry& e = it->second;
      if (e.resize && ok)
        e.result = payload;
      else if (e.resize || e.sid == 0)
        entries_.erase(it);
      else  // only a failed base journals a result
        drop_session(e.sid);
      return true;
    }
    case Kind::kRelease:
      return drop_session(sid);
  }
  return false;
}

bool SizingDaemon::LiveSet::drop_session(std::uint64_t sid) {
  const auto s = sessions_.find(sid);
  if (s == sessions_.end()) return false;
  for (const std::uint64_t rid : s->second) {
    const auto it = entries_.find(rid);
    if (it != entries_.end() && it->second.sid == sid) entries_.erase(it);
  }
  sessions_.erase(s);
  return true;
}

std::vector<std::string> SizingDaemon::LiveSet::records(
    std::string head) const {
  std::vector<std::string> out;
  out.reserve(2 * entries_.size() + 1);
  out.push_back(std::move(head));
  for (const auto& [rid, e] : entries_) {
    out.push_back(e.request);
    if (!e.result.empty()) out.push_back(e.result);
  }
  return out;
}

void SizingDaemon::do_resize(const ParsedResize& req) {
  // Parse the delta strings up front: malformed input is kInvalidInput
  // before any session state or journal record is touched.
  const ResizeDelta delta =
      delta_from_strings(req.target, req.loads, req.pins);
  EcoSession* es = nullptr;
  std::uint64_t rid = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(req.sid);
    if (it == sessions_.end())
      throw EngineError(EngineStatus::kInvalidInput,
                        strf("unknown session %llu",
                             static_cast<unsigned long long>(req.sid)));
    es = it->second.get();
    if (es->failed)
      throw EngineError(EngineStatus::kInvalidInput,
                        strf("session %llu is dead: its base job failed",
                             static_cast<unsigned long long>(req.sid)));
    if (!es->ready)
      throw EngineError(
          EngineStatus::kRejected,
          strf("session %llu not ready: base job still running, retry "
               "after its result",
               static_cast<unsigned long long>(req.sid)));
    if (journaled()) {
      // Write-ahead, like a submit: a crash after this record re-applies
      // the delta on replay (and re-emits, since no result record landed).
      rid = next_rid_++;
      if (!journal_ahead_locked(req.id, LiveSet::Kind::kResize, rid, req.sid,
                                resize_record(rid, req.sid, req.id, req.target,
                                              req.loads, req.pins)))
        return;
    }
  }
  // The solve runs on the request thread outside mu_ — stats/cancel stay
  // responsive is not a concern (one request thread), but result
  // callbacks from workers must not block behind a multi-millisecond
  // resize. Once `ready`, nothing else touches the session's solver.
  const ResizeResult rr = apply_resize(*es, delta);
  finish_resize(req.id, req.sid, rid, rr);
}

ResizeResult SizingDaemon::apply_resize(EcoSession& es,
                                        const ResizeDelta& delta) {
  if (es.rs == nullptr) {
    es.rs = std::make_unique<ResizeSession>(circuit(es.circuit));
    const ResizeResult adopted = es.rs->adopt(es.base_sizes, es.base_target);
    if (!adopted.ok) {
      es.rs.reset();
      return adopted;
    }
  }
  return es.rs->resize(delta);
}

void SizingDaemon::finish_resize(const std::string& id, std::uint64_t sid,
                                 std::uint64_t rid, const ResizeResult& rr) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rr.ok) {
    respond_error_locked(id, EngineStatus::kInvalidInput, rr.error);
  } else {
    ++results_;
    latency_.record(rr.seconds);
    JsonLine out;
    out.str("event", "result");
    if (!id.empty()) out.str("id", id);
    if (journaled()) out.uinteger("rid", rid);
    out.uinteger("session", sid)
        .integer("ticket", -1)
        .str("status", "ok")
        .boolean("ok", true)
        .str("mode", to_string(rr.mode))
        .boolean("fell_back", rr.fell_back)
        .boolean("met_target", rr.met_target)
        .num("area", rr.area)
        .num("delay", rr.delay)
        .num("target", rr.target)
        .integer("dirty", rr.dirty_vertices)
        .integer("region", rr.region_vertices)
        .num("wall_seconds", rr.seconds)
        .uinteger("sizes_hash", sizes_hash(rr.sizes));
    emit_locked(out.done());
  }
  if (journaled()) {
    // An invalid delta is terminal too: journaling its failed result keeps
    // replay from re-applying (and re-answering) it.
    JsonLine rec;
    rec.str("type", "result")
        .uinteger("rid", rid)
        .uinteger("session", sid)
        .boolean("ok", rr.ok);
    if (rr.ok)
      rec.str("mode", to_string(rr.mode))
          .uinteger("sizes_hash", sizes_hash(rr.sizes));
    else
      rec.str("error", rr.error);
    journal_terminal_locked(LiveSet::Kind::kResult, rid, sid, rr.ok,
                            rec.done());
  }
}

void SizingDaemon::do_release(const std::string& id, std::uint64_t sid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(sid);
  if (it == sessions_.end())
    throw EngineError(EngineStatus::kInvalidInput,
                      strf("unknown session %llu",
                           static_cast<unsigned long long>(sid)));
  EcoSession& es = *it->second;
  // A successful base journals no result record, so releasing before it
  // lands would leave replay nothing to answer the base with: refuse, like
  // resize, and journal nothing.
  if (!es.ready && !es.failed)
    throw EngineError(
        EngineStatus::kRejected,
        strf("session %llu not ready: base job still running, retry after "
             "its result",
             static_cast<unsigned long long>(sid)));
  if (journaled()) {
    // The release record makes the drop durable before the session's live
    // records leave the compaction set: replay either sees the release
    // (and skips the session) or re-runs it whole — never half of it.
    const std::uint64_t rid = next_rid_++;
    journal_terminal_locked(LiveSet::Kind::kRelease, rid, sid, true,
                            JsonLine()
                                .str("type", "release")
                                .uinteger("rid", rid)
                                .uinteger("session", sid)
                                .done());
  }
  sessions_.erase(it);
  JsonLine out;
  out.str("event", "release");
  if (!id.empty()) out.str("id", id);
  emit_locked(out.uinteger("session", sid).boolean("ok", true).done());
}

std::string SizingDaemon::config_record() const {
  // Everything a bit-reproducible replay depends on. threads is advisory
  // (worker count never changes results) and deliberately absent.
  // base_seed rides as a decimal string because every existing journal
  // wrote it that way; the gate in recover_from_journal parses it whole.
  return JsonLine()
      .str("type", "config")
      .integer("version", 1)
      .str("base_seed", strf("%llu", static_cast<unsigned long long>(
                                         opt_.engine.base_seed)))
      .done();
}

void SizingDaemon::maybe_compact_locked() {
  // A closed journal reads 0 bytes, so it never rotates.
  if (opt_.journal_compact_bytes == 0 || compaction_disabled_ ||
      journal_.bytes() < static_cast<std::int64_t>(opt_.journal_compact_bytes))
    return;
  // Rotation: rewrite down to the live set, in append order, headed by the
  // config snapshot like a fresh journal.
  const std::string& path = opt_.journal_path;
  journal_.close();
  try {
    Journal::rewrite(path, live_.records(config_record()));
    ++journal_compactions_;
  } catch (const std::exception&) {
    // The tmp+rename contract leaves the old file intact on failure:
    // nothing is lost, the journal just stays big.
    ++journal_errors_;
  }
  try {
    journal_.open(path);
  } catch (const std::exception&) {
    // Durability lost from here: every later submit and resize is refused
    // by its write-ahead append, never run unjournaled.
    ++journal_errors_;
  }
}

void SizingDaemon::recover_from_journal() {
  const std::string& path = opt_.journal_path;
  bool torn = false;
  std::vector<std::string> records;
  try {
    records = Journal::replay(path, &torn);
  } catch (const std::exception& e) {
    // Unreadable journal (or an injected fault at "journal.replay"): the
    // daemon still serves — durability resumes with the next append, and
    // the structured replay event tells the operator recovery was lost.
    std::lock_guard<std::mutex> lock(mu_);
    ++journal_errors_;
    journal_.open(path);
    emit_locked(JsonLine()
                    .str("event", "replay")
                    .boolean("ok", false)
                    .str("error", e.what())
                    .done());
    return;
  }
  // Repeat history: fold every record through the rule serving folded it
  // through when it appended it. Records that fail to parse, lack a rid or
  // name no known type are skipped — the torn-tail contract already bounds
  // damage to the end of the file, so anything unreadable in the middle is
  // best-effort ignored, not fatal.
  static const std::map<std::string, LiveSet::Kind> kinds = {
      {"submit", LiveSet::Kind::kSubmit},
      {"resize", LiveSet::Kind::kResize},
      {"result", LiveSet::Kind::kResult},
      {"release", LiveSet::Kind::kRelease}};
  LiveSet live;
  JsonObj config;
  bool has_config = false;
  std::uint64_t max_rid = 0, max_sid = 0, finished = 0;
  bool any_rid = false;
  for (const std::string& rec : records) {
    JsonObj obj;
    std::string err;
    if (!FlatJsonParser(rec).parse(obj, err)) continue;
    const std::string type = get_string(obj, "type");
    if (type == "config") {
      if (!has_config) {
        config = std::move(obj);
        has_config = true;
      }
      continue;
    }
    std::uint64_t rid = 0;
    if (!find_integer(obj, "rid", rid)) continue;
    any_rid = true;
    max_rid = std::max(max_rid, rid);
    std::uint64_t sid = 0;
    find_integer(obj, "session", sid);
    max_sid = std::max(max_sid, sid);
    const auto kind = kinds.find(type);
    if (kind != kinds.end() &&
        live.apply(kind->second, rid, sid, get_flag(obj, "ok"), rec) &&
        kind->second == LiveSet::Kind::kResult)
      ++finished;
  }
  // Config gate: replaying under a different base_seed or FP contract
  // would *run* — and silently produce different sizes than the journal's
  // clients were promised. Refuse recovery, preserve the file untouched
  // as operator evidence (rotation stays off so it cannot erode), and
  // serve on fresh. Older builds wrote "fast_math" into the snapshot; the
  // engine only has exact folds now, so a journal that says true was
  // solved under a contract this build cannot reproduce.
  if (has_config) {
    int ver = 1;  // absent: the first format
    if (config.count("version") != 0 && !find_integer(config, "version", ver))
      ver = 0;  // not an integer: incompatible
    const std::string seed_text = get_string(config, "base_seed", "0");
    std::uint64_t seed = 0;
    const bool seed_ok = parse_whole(seed_text, seed);
    const bool fm = get_flag(config, "fast_math");
    if (ver != 1 || !seed_ok || seed != opt_.engine.base_seed || fm) {
      std::lock_guard<std::mutex> lock(mu_);
      ++journal_errors_;
      compaction_disabled_ = true;
      journal_.open(path);
      next_rid_ = any_rid ? max_rid + 1 : 0;
      next_session_id_ = max_sid + 1;
      emit_locked(
          JsonLine()
              .str("event", "replay")
              .boolean("ok", false)
              .str("error",
                   strf("journal config incompatible: journal has version "
                        "%d base_seed %s fast_math %s, engine has "
                        "version 1 base_seed %llu fast_math false; "
                        "refusing to replay (journal preserved)",
                        ver, seed_text.c_str(), fm ? "true" : "false",
                        static_cast<unsigned long long>(
                            opt_.engine.base_seed)))
              .uinteger("records", records.size())
              .uinteger("recovered", 0)
              .done());
      return;
    }
  }
  // Compact to exactly the live set, then re-run it from a copy: a refused
  // re-admit below folds its failed result into the set.
  Journal::rewrite(path, live.records(config_record()));
  const std::map<std::uint64_t, LiveSet::Entry> replayed = live.entries();
  std::uint64_t submits = 0, sessions = 0;
  for (const auto& [rid, e] : replayed) {
    submits += !e.resize;
    sessions += !e.resize && e.sid != 0;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    journal_.open(path);
    next_rid_ = any_rid ? max_rid + 1 : 0;
    next_session_id_ = max_sid + 1;
    live_ = std::move(live);
    emit_locked(JsonLine()
                    .str("event", "replay")
                    .boolean("ok", true)
                    .boolean("torn", torn)
                    .uinteger("records", records.size())
                    .uinteger("finished", finished)
                    .uinteger("recovered", submits)
                    .uinteger("sessions", sessions)
                    .done());
  }
  // Re-admit in rid order, bypassing admission control — these requests
  // were admitted once already; refusing them now would break the
  // every-journaled-request-terminates contract. Session bases are
  // re-run even though their results already reached clients: their
  // sizes only live in the re-run (at-least-once re-emission, same
  // sizes_hash by the seed contract).
  const auto parsed = [](const std::string& rec) {
    JsonObj obj;
    std::string err;
    FlatJsonParser(rec).parse(obj, err);  // it parsed once already
    return obj;
  };
  for (const auto& [rid, e] : replayed) {
    if (e.resize) continue;
    const JsonObj obj = parsed(e.request);
    const std::string id = get_string(obj, "id");
    const std::string circuit_name = get_string(obj, "circuit");
    if (e.sid != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[e.sid] = std::make_unique<EcoSession>(circuit_name);
    }
    try {
      const SizingJob job = job_from_obj(obj, circuit_name);
      const SizingNetwork& net = circuit(circuit_name);
      std::lock_guard<std::mutex> lock(mu_);
      admit_locked(net, job, id, rid, e.sid);
      ++recovered_;
    } catch (const std::exception& ex) {
      // Journal from a build that accepted a circuit name or a field value
      // this one refuses (a ratio of 0, say): give the request its terminal
      // response and journal it as finished so it stops replaying — a
      // refused session base takes its resize chain with it.
      const auto* refused = dynamic_cast<const EngineError*>(&ex);
      const EngineStatus status =
          refused != nullptr ? refused->status() : EngineStatus::kInternal;
      std::lock_guard<std::mutex> lock(mu_);
      respond_error_locked(id, status,
                           strf("replay of rid %llu failed: %s",
                                static_cast<unsigned long long>(rid),
                                ex.what()));
      if (e.sid != 0) sessions_[e.sid]->failed = true;
      journal_terminal_locked(LiveSet::Kind::kResult, rid, e.sid, false,
                              JsonLine()
                                  .str("type", "result")
                                  .uinteger("rid", rid)
                                  .str("status", to_string(status))
                                  .boolean("ok", false)
                                  .done());
    }
  }
  // Re-apply the journaled resize chains. The bases must finish first —
  // their sizes are the chains' starting state. A resize whose result is
  // already journaled re-applies *silently* (its answer reached the
  // client; determinism makes the re-apply reach the same state); one
  // without re-emits, the at-least-once side of the crash window.
  if (submits == replayed.size()) return;  // no resize chain
  runner_->wait_all();
  for (const auto& [rid, e] : replayed) {
    if (!e.resize) continue;
    const JsonObj obj = parsed(e.request);
    const std::string id = get_string(obj, "id");
    const bool answered = !e.result.empty();
    EcoSession* es = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto si = sessions_.find(e.sid);
      if (si != sessions_.end()) es = si->second.get();
      if (es == nullptr || !es->ready) {
        // The re-run base failed where it once succeeded (e.g. its
        // circuit generator changed): terminate the chain's unanswered
        // entries so nothing replays forever.
        if (!answered) {
          respond_error_locked(
              id, EngineStatus::kInternal,
              strf("replay of resize rid %llu failed: session %llu base "
                   "did not recover",
                   static_cast<unsigned long long>(rid),
                   static_cast<unsigned long long>(e.sid)));
          journal_terminal_locked(LiveSet::Kind::kResult, rid, e.sid, false,
                                  JsonLine()
                                      .str("type", "result")
                                      .uinteger("rid", rid)
                                      .uinteger("session", e.sid)
                                      .boolean("ok", false)
                                      .str("error", "base did not recover")
                                      .done());
        }
        continue;
      }
    }
    ResizeResult rr;
    try {
      rr = apply_resize(*es, delta_from_strings(get_number(obj, "target", 0.0),
                                                get_string(obj, "loads"),
                                                get_string(obj, "pins")));
    } catch (const std::exception& ex) {
      rr.ok = false;
      rr.error = ex.what();
    }
    if (!answered) finish_resize(id, e.sid, rid, rr);
  }
}

void SizingDaemon::respond_error(const std::string& id, EngineStatus status,
                                 const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  respond_error_locked(id, status, message);
}

void SizingDaemon::respond_error_locked(const std::string& id,
                                        EngineStatus status,
                                        const std::string& message) {
  if (status == EngineStatus::kRejected)
    ++rejected_;
  else
    ++invalid_;
  JsonLine out;
  out.str("event", "result");
  if (!id.empty()) out.str("id", id);
  emit_locked(out.integer("ticket", -1)
                  .str("status", to_string(status))
                  .boolean("ok", false)
                  .str("error", message)
                  .done());
}

void SizingDaemon::emit_locked(const std::string& line) { emit_(line); }

const SizingNetwork& SizingDaemon::circuit(const std::string& name) {
  // Only handle_line's thread touches the cache; workers hold pointers
  // into entries but never the map. Entries live for the daemon's
  // lifetime, so queued jobs' network pointers stay valid.
  auto it = circuits_.find(name);
  if (it == circuits_.end()) {
    Netlist nl = make_named_circuit(name);
    auto lowered =
        std::make_unique<LoweredCircuit>(lower_gate_level(nl, Tech{}));
    it = circuits_.emplace(name, std::move(lowered)).first;
  }
  return it->second->net;
}

DaemonStats SizingDaemon::stats_locked() const {
  DaemonStats s;
  s.requests = requests_;
  s.admitted = admitted_;
  s.rejected = rejected_;
  s.invalid = invalid_;
  s.results = results_;
  s.journal_records = static_cast<std::uint64_t>(journal_.appends());
  s.journal_fsyncs = static_cast<std::uint64_t>(journal_.fsyncs());
  s.journal_errors = journal_errors_;
  s.journal_bytes = static_cast<std::uint64_t>(journal_.bytes());
  s.journal_compactions = journal_compactions_;
  s.recovered = recovered_;
  s.sessions = sessions_.size();
  s.ewma_run_seconds = ewma_run_seconds_;
  s.p50_seconds = latency_.quantile(0.50);
  s.p99_seconds = latency_.quantile(0.99);
  s.engine = runner_->stats();
  return s;
}

DaemonStats SizingDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_locked();
}

}  // namespace mft
