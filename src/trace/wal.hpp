#pragma once
// Crash-safe write-ahead journal for collection campaigns.
//
// A long-running collection must survive its own process dying: every
// completed unit of work is appended to an on-disk journal *before* it is
// considered collected, so a restart can replay the journal and continue
// where the dead run stopped.  The format is deliberately dumb — one text
// line per record, each protected by its own CRC32 — because dumb formats
// have dumb failure modes: a crash mid-append leaves exactly one torn
// trailing line, which replay detects (bad CRC) and drops.
//
// Layout:
//   H <fingerprint-hex> <crc32-hex>        header: binds the journal to a
//                                          campaign identity (seed + config)
//   R <payload> <crc32-hex>                one record per line
//
// Payloads are opaque to this layer (no '\n' allowed); the collect
// subsystem encodes per-meter readings into them.  Doubles inside payloads
// must be printed with max_digits10 so replayed values are bit-identical
// to the originals — that is what makes kill-and-resume reports byte-equal
// to uninterrupted runs.

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace pv {

/// CRC32 (IEEE 802.3 polynomial, reflected) of a byte string, computed
/// eight bytes per step (slicing-by-8).
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Append-only journal writer.  Each append is flushed to the OS before
/// returning, so a record either fully precedes a crash or is a torn tail
/// the reader drops.
class WalWriter {
 public:
  /// Creates `path` (truncating any previous file) and writes the header.
  WalWriter(const std::string& path, std::uint64_t fingerprint);
  /// Opens `path` for appending after a replay validated its header.
  static WalWriter append_to(const std::string& path,
                             std::uint64_t fingerprint);

  /// Appends one record line.  `payload` must not contain newlines.
  void append(const std::string& payload);

  [[nodiscard]] std::size_t records_written() const { return written_; }

 private:
  WalWriter() = default;
  std::ofstream out_;
  std::size_t written_ = 0;
};

/// Result of replaying a journal.
struct WalReplay {
  bool exists = false;             ///< file was present and had a header
  std::uint64_t fingerprint = 0;   ///< campaign identity from the header
  std::vector<std::string> records;
  std::size_t torn_lines = 0;      ///< trailing lines dropped (bad CRC/format)
};

/// Replays `path`.  Missing file -> exists=false.  A malformed header
/// throws (the file is not a journal); malformed or torn record lines end
/// the replay — everything after the first bad line is dropped and
/// counted, because an append-only log is only trustworthy up to its first
/// tear.
[[nodiscard]] WalReplay replay_wal(const std::string& path);

}  // namespace pv
