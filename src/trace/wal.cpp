#include "trace/wal.hpp"

#include <array>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/expects.hpp"

namespace pv {
namespace {

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC register after byte b is followed by k zero
/// bytes, so eight table lookups advance the register by eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// Four bytes as a little-endian word, whatever the host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Splits "X <payload> <crc>" and validates the CRC over the payload.
// Returns true and fills `payload` only for a well-formed, uncorrupted line
// carrying tag `tag`.
bool parse_line(const std::string& line, char tag, std::string* payload) {
  if (line.size() < 12 || line[0] != tag || line[1] != ' ') return false;
  const std::size_t crc_at = line.rfind(' ');
  if (crc_at == std::string::npos || crc_at < 2 ||
      line.size() - crc_at - 1 != 8) {
    return false;
  }
  const std::string body = line.substr(2, crc_at - 2);
  const std::string crc_text = line.substr(crc_at + 1);
  std::uint32_t crc = 0;
  if (std::sscanf(crc_text.c_str(), "%8x", &crc) != 1) return false;
  if (crc != crc32(body)) return false;
  *payload = body;
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

WalWriter::WalWriter(const std::string& path, std::uint64_t fingerprint) {
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) throw std::runtime_error("wal: cannot create journal: " + path);
  const std::string body = hex64(fingerprint);
  out_ << "H " << body << ' ' << hex32(crc32(body)) << '\n';
  out_.flush();
  if (!out_) throw std::runtime_error("wal: header write failed: " + path);
}

WalWriter WalWriter::append_to(const std::string& path,
                               std::uint64_t fingerprint) {
  // Re-validate the header before appending: appending to a journal of a
  // different campaign would interleave incompatible records.
  const WalReplay replay = replay_wal(path);
  if (!replay.exists) {
    throw std::runtime_error("wal: cannot append, no journal at: " + path);
  }
  if (replay.fingerprint != fingerprint) {
    throw std::runtime_error(
        "wal: journal at " + path +
        " belongs to a different campaign configuration");
  }
  WalWriter w;
  w.out_.open(path, std::ios::out | std::ios::app);
  if (!w.out_) throw std::runtime_error("wal: cannot append to: " + path);
  return w;
}

void WalWriter::append(const std::string& payload) {
  PV_EXPECTS(payload.find('\n') == std::string::npos,
             "wal payload must be a single line");
  out_ << "R " << payload << ' ' << hex32(crc32(payload)) << '\n';
  out_.flush();  // a record either lands before a crash or tears visibly
  if (!out_) throw std::runtime_error("wal: record append failed");
  ++written_;
}

WalReplay replay_wal(const std::string& path) {
  WalReplay result;
  std::ifstream in(path);
  if (!in) return result;  // no journal yet: a fresh campaign

  std::string line;
  if (!std::getline(in, line)) {
    // Present but empty: created and crashed before the header flushed.
    return result;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::string header;
  if (!parse_line(line, 'H', &header)) {
    throw std::runtime_error("wal: " + path + " has no valid journal header");
  }
  unsigned long long fp = 0;
  if (std::sscanf(header.c_str(), "%16llx", &fp) != 1) {
    throw std::runtime_error("wal: " + path + " header fingerprint unreadable");
  }
  result.exists = true;
  result.fingerprint = static_cast<std::uint64_t>(fp);

  bool torn = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string payload;
    if (torn || !parse_line(line, 'R', &payload)) {
      // First bad line ends the trustworthy prefix (a crash tears at most
      // the tail); count the rest rather than resurrecting it.
      torn = true;
      ++result.torn_lines;
      continue;
    }
    result.records.push_back(std::move(payload));
  }
  return result;
}

}  // namespace pv
