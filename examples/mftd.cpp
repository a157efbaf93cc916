// mftd — headless sizing daemon over JSON-lines.
//
// Usage:
//   mftd [--threads N] [--context-cache N] [--max-queue N]
//        [--pressure X] [--no-shed] [--socket PATH]
//        [--journal PATH] [--journal-compact-bytes N]
//
// Default transport is stdin/stdout: one request object per input line,
// one event object per output line (see engine/daemon.h for the
// protocol). --socket PATH serves the same protocol over a Unix stream
// socket instead, one client at a time; the daemon exits after a client
// sends {"op":"shutdown"} (or, in stdio mode, at EOF).
//
// --journal PATH makes accepted work crash-durable: every admitted
// submit is written ahead to an fsync'd journal and every terminal
// result is journaled after it is emitted, so restarting mftd on the
// same path replays exactly the unfinished requests (same journaled
// seeds, bit-identical sizes_hash) before serving new ones. ECO
// sessions ("session":true submits plus "resize"/"release" ops) are
// journaled too: a restart re-runs the session base and re-applies the
// resize chain. --journal-compact-bytes N bounds the file: once it
// grows past N bytes the daemon rewrites it down to its live set (the
// config snapshot plus unfinished work and open sessions).
//
// Shutdown discipline: SIGPIPE is ignored (a client that closes its pipe
// mid-burst must not kill the daemon — pending results just drain to a
// dead fd). The first SIGTERM/SIGINT stops reading, drains every
// admitted job, and exits 0 (a clean stop, same as EOF); a second one
// forces immediate exit with the conventional 128+signo code. The
// handlers are installed without SA_RESTART so a signal interrupts the
// blocking read and the loop notices the stop flag promptly.
//
// All engine semantics live in SizingDaemon (src/engine/daemon.{h,cc});
// this file is transport only, so tests and sanitizer runs cover the
// daemon through the library rather than through a subprocess.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "engine/daemon.h"

namespace {

struct Flags {
  mft::DaemonOptions daemon;
  std::string socket_path;
};

volatile std::sig_atomic_t g_stop = 0;

#ifndef _WIN32
extern "C" void on_stop_signal(int sig) {
  if (g_stop != 0) ::_exit(128 + sig);  // second signal: forced stop
  g_stop = 1;
}

void install_signal_handlers() {
  std::signal(SIGPIPE, SIG_IGN);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: interrupt blocking reads
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}
#else
void install_signal_handlers() {}
#endif

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: mftd [options]\n"
      "  --threads N        engine worker threads (0 = hardware)\n"
      "  --context-cache N  per-worker context LRU bound (0 = unbounded)\n"
      "  --max-queue N      reject submits at queue depth N (0 = unbounded)\n"
      "  --pressure X       reject deadlined submits whose predicted wait\n"
      "                     exceeds deadline*X (0 = off)\n"
      "  --no-shed          disable overload shedding (on by default)\n"
      "  --socket PATH      serve a Unix stream socket instead of stdio\n"
      "  --journal PATH     write-ahead journal: replay unfinished requests\n"
      "                     on restart, fsync every accepted submit\n"
      "  --journal-compact-bytes N  compact the journal down to its live\n"
      "                     set once it grows past N bytes (0 = never)\n"
      "  --help             this text\n");
  std::exit(code);
}

Flags parse(int argc, char** argv) {
  Flags f;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  auto int_value = [&](int& i) {
    const char* s = value(i);
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 0) {
      std::fprintf(stderr, "error: bad value '%s' for %s\n", s, argv[i - 1]);
      std::exit(2);
    }
    return static_cast<int>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--threads") f.daemon.engine.threads = int_value(i);
    else if (flag == "--context-cache")
      f.daemon.engine.context_cache_limit = int_value(i);
    else if (flag == "--max-queue")
      f.daemon.max_queue_depth = static_cast<std::size_t>(int_value(i));
    else if (flag == "--pressure") {
      const char* s = value(i);
      char* end = nullptr;
      f.daemon.deadline_pressure = std::strtod(s, &end);
      if (end == s || *end != '\0' || f.daemon.deadline_pressure < 0) {
        std::fprintf(stderr, "error: bad --pressure value '%s'\n", s);
        std::exit(2);
      }
    } else if (flag == "--no-shed")
      f.daemon.engine.shed = false;
    else if (flag == "--socket")
      f.socket_path = value(i);
    else if (flag == "--journal")
      f.daemon.journal_path = value(i);
    else if (flag == "--journal-compact-bytes")
      f.daemon.journal_compact_bytes =
          static_cast<std::uint64_t>(int_value(i));
    else if (flag == "--help" || flag == "-h")
      usage(0);
    else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      usage(2);
    }
  }
  return f;
}

int serve_stdio(const mft::DaemonOptions& opt) {
  mft::SizingDaemon daemon(opt, [](const std::string& line) {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  });
#ifndef _WIN32
  // Raw read loop (not iostreams) so an un-restarted signal surfaces as
  // EINTR here and the stop flag is honored mid-blocking-read.
  std::string buf;
  char chunk[4096];
  while (!daemon.shutdown_requested() && g_stop == 0) {
    const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;  // loop re-checks the stop flag
      break;
    }
    if (n == 0) break;  // EOF
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while (!daemon.shutdown_requested() &&
           (nl = buf.find('\n')) != std::string::npos) {
      daemon.handle_line(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  if (g_stop == 0 && !daemon.shutdown_requested() && !buf.empty())
    daemon.handle_line(buf);  // unterminated final line at EOF
#else
  std::string line;
  while (!daemon.shutdown_requested() && std::getline(std::cin, line))
    daemon.handle_line(line);
#endif
  if (g_stop != 0)
    std::fprintf(stderr, "mftd: stop signal received, draining\n");
  daemon.drain();
  return 0;  // clean stop — EOF, shutdown op, or drained signal alike
}

#ifndef _WIN32
int serve_socket(const mft::DaemonOptions& opt, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("mftd: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: --socket path too long\n");
    return 2;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 1) < 0) {
    std::perror("mftd: bind/listen");
    ::close(listener);
    return 1;
  }
  int client = -1;
  mft::SizingDaemon daemon(opt, [&client](const std::string& line) {
    if (client < 0) return;
    std::string out = line;
    out.push_back('\n');
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(client, out.data() + off, out.size() - off);
      if (n <= 0) break;  // client went away; results keep draining
      off += static_cast<std::size_t>(n);
    }
  });
  // One client at a time: accept, serve its lines, loop on disconnect
  // until a client asks for shutdown or a stop signal arrives.
  std::string buf;
  while (!daemon.shutdown_requested() && g_stop == 0) {
    client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;  // loop re-checks the stop flag
      break;
    }
    buf.clear();
    char chunk[4096];
    while (!daemon.shutdown_requested() && g_stop == 0) {
      const ssize_t n = ::read(client, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        daemon.handle_line(buf.substr(0, nl));
        buf.erase(0, nl + 1);
      }
    }
    daemon.drain();  // flush results to this client before it goes away
    ::close(client);
    client = -1;
  }
  if (g_stop != 0)
    std::fprintf(stderr, "mftd: stop signal received, draining\n");
  daemon.drain();
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse(argc, argv);
  install_signal_handlers();
  if (!flags.socket_path.empty()) {
#ifndef _WIN32
    return serve_socket(flags.daemon, flags.socket_path);
#else
    std::fprintf(stderr, "error: --socket is not supported on this platform\n");
    return 2;
#endif
  }
  return serve_stdio(flags.daemon);
}
