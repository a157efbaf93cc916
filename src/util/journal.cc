#include "util/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/fault.h"
#include "util/status.h"

namespace mft {

namespace {

constexpr const char* kMagic = "MFTJ";

/// Lazily built CRC32 (IEEE, reflected) lookup table.
const std::uint32_t* crc_table() {
  static std::uint32_t table[256];
  static bool built = [] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)built;
  return table;
}

std::string frame(const std::string& payload) {
  char head[32];
  std::snprintf(head, sizeof(head), "%s %zu %08x ", kMagic, payload.size(),
                Journal::crc32(payload));
  std::string record(head);
  record += payload;
  record += '\n';
  return record;
}

void write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw EngineError(EngineStatus::kInternal,
                        std::string("journal write failed: ") +
                            std::strerror(errno));
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

std::uint32_t Journal::crc32(const std::string& bytes) {
  const std::uint32_t* table = crc_table();
  std::uint32_t c = 0xffffffffu;
  for (unsigned char b : bytes) c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

Journal::~Journal() { close(); }

void Journal::open(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0)
    throw EngineError(EngineStatus::kInternal,
                      "cannot open journal '" + path +
                          "': " + std::strerror(errno));
  path_ = path;
  // O_APPEND: the end-of-file offset IS the current size.
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  bytes_ = size >= 0 ? static_cast<std::int64_t>(size) : 0;
}

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    bytes_ = 0;
  }
}

void Journal::append(const std::string& payload) {
  MFT_FAULT_POINT("journal.append");
  if (fd_ < 0)
    throw EngineError(EngineStatus::kInternal, "append on a closed journal");
  const std::string record = frame(payload);
  write_all(fd_, record.data(), record.size());
  // The durability contract: a record acknowledged to the caller has been
  // handed to the device. A crash mid-write leaves a torn tail replay()
  // discards.
  if (::fsync(fd_) == 0) ++fsyncs_;
  ++appends_;
  bytes_ += static_cast<std::int64_t>(record.size());
}

std::vector<std::string> Journal::replay(const std::string& path, bool* torn) {
  MFT_FAULT_POINT("journal.replay");
  if (torn != nullptr) *torn = false;
  std::vector<std::string> records;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return records;  // missing file == empty journal
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  const std::string magic = std::string(kMagic) + ' ';
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // Header: "MFTJ <len> <crc8> ". Any deviation — including a header cut
    // short by a crash — is a torn tail: keep what parsed so far.
    if (bytes.compare(pos, magic.size(), magic) != 0) break;
    std::size_t p = pos + magic.size();
    // A length past the bytes left is a torn tail too. Checked per digit,
    // it cannot overflow, nor wrap the payload bound below back onto an
    // earlier record.
    std::size_t len = 0;
    bool have_len = false;
    while (p < bytes.size() && bytes[p] >= '0' && bytes[p] <= '9' &&
           len <= bytes.size() - p) {
      len = len * 10 + static_cast<std::size_t>(bytes[p] - '0');
      ++p;
      have_len = true;
    }
    if (!have_len || len > bytes.size() - p || p >= bytes.size() ||
        bytes[p] != ' ')
      break;
    ++p;
    if (p + 8 > bytes.size()) break;
    std::uint32_t want_crc = 0;
    bool crc_ok = true;
    for (std::size_t i = 0; i < 8; ++i) {
      const char c = bytes[p + i];
      std::uint32_t digit;
      if (c >= '0' && c <= '9') digit = static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        digit = static_cast<std::uint32_t>(c - 'a') + 10;
      else {
        crc_ok = false;
        break;
      }
      want_crc = (want_crc << 4) | digit;
    }
    if (!crc_ok) break;
    p += 8;
    if (p >= bytes.size() || bytes[p] != ' ') break;
    ++p;
    if (p + len + 1 > bytes.size()) break;  // payload or newline torn off
    if (bytes[p + len] != '\n') break;
    std::string payload = bytes.substr(p, len);
    if (crc32(payload) != want_crc) break;  // corrupt record: stop here
    records.push_back(std::move(payload));
    pos = p + len + 1;
  }
  if (torn != nullptr && pos < bytes.size()) *torn = true;
  return records;
}

void Journal::rewrite(const std::string& path,
                      const std::vector<std::string>& records) {
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0)
      throw EngineError(EngineStatus::kInternal,
                        "cannot open journal tmp '" + tmp +
                            "': " + std::strerror(errno));
    try {
      for (const std::string& payload : records) {
        const std::string record = frame(payload);
        write_all(fd, record.data(), record.size());
      }
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::fsync(fd);
    ::close(fd);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw EngineError(EngineStatus::kInternal,
                      "journal compaction rename failed: " +
                          std::string(std::strerror(errno)));
}

}  // namespace mft
