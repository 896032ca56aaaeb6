// Tests for the crash-safe write-ahead journal and the meter-record codec.

#include "trace/wal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "collect/journal.hpp"
#include "util/expects.hpp"

namespace pv {
namespace {

std::string temp_wal(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void append_raw(const std::string& path, const std::string& line) {
  std::ofstream f(path, std::ios::app);
  f << line;
}

TEST(Crc32, MatchesKnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);  // the classic check value
  EXPECT_NE(crc32("a"), crc32("b"));
}

/// The textbook bytewise CRC-32 (reflected IEEE polynomial, one table
/// lookup per byte): the oracle the sliced implementation must equal.
std::uint32_t crc32_bytewise(std::string_view data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string pseudo_random_bytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  std::uint64_t x = seed;
  for (char& ch : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ch = static_cast<char>(x >> 56);
  }
  return out;
}

TEST(Crc32, EqualsTheBytewiseReferenceOnEveryShortLength) {
  const std::string bytes = pseudo_random_bytes(64, 1);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::string_view v(bytes.data(), len);
    EXPECT_EQ(crc32(v), crc32_bytewise(v)) << "length " << len;
  }
}

TEST(Crc32, EqualsTheBytewiseReferenceFromUnalignedStarts) {
  const std::string bytes = pseudo_random_bytes(300, 2);
  for (std::size_t start = 0; start < 16; ++start) {
    for (const std::size_t len : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 255u}) {
      const std::string_view v(bytes.data() + start, len);
      EXPECT_EQ(crc32(v), crc32_bytewise(v))
          << "start " << start << ", length " << len;
    }
  }
}

TEST(Crc32, EqualsTheBytewiseReferenceOnAMegabyte) {
  const std::string bytes = pseudo_random_bytes(std::size_t{1} << 20, 3);
  EXPECT_EQ(crc32(bytes), crc32_bytewise(bytes));
  // High bytes exercise every table index the 0..127 text range misses.
  const std::string ones(std::size_t{1} << 20, static_cast<char>(0xFF));
  EXPECT_EQ(crc32(ones), crc32_bytewise(ones));
}

TEST(Wal, WriteThenReplayRoundTrips) {
  const std::string path = temp_wal("wal_roundtrip.wal");
  {
    WalWriter w(path, 0xDEADBEEFCAFEF00DULL);
    w.append("first record");
    w.append("second 3.14159 record");
    EXPECT_EQ(w.records_written(), 2u);
  }
  const WalReplay r = replay_wal(path);
  ASSERT_TRUE(r.exists);
  EXPECT_EQ(r.fingerprint, 0xDEADBEEFCAFEF00DULL);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "first record");
  EXPECT_EQ(r.records[1], "second 3.14159 record");
  EXPECT_EQ(r.torn_lines, 0u);
}

TEST(Wal, MissingFileIsAFreshCampaign) {
  const WalReplay r = replay_wal(temp_wal("wal_never_created.wal"));
  EXPECT_FALSE(r.exists);
  EXPECT_TRUE(r.records.empty());
}

TEST(Wal, EmptyFileIsAFreshCampaign) {
  const std::string path = temp_wal("wal_empty.wal");
  { std::ofstream f(path); }
  EXPECT_FALSE(replay_wal(path).exists);
}

TEST(Wal, TornTrailingLineIsDroppedAndCounted) {
  const std::string path = temp_wal("wal_torn.wal");
  {
    WalWriter w(path, 42);
    w.append("complete record");
  }
  append_raw(path, "R half-written-before-the-crash");  // no CRC, no newline
  const WalReplay r = replay_wal(path);
  ASSERT_TRUE(r.exists);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "complete record");
  EXPECT_EQ(r.torn_lines, 1u);
}

TEST(Wal, CorruptedRecordEndsTheTrustworthyPrefix) {
  const std::string path = temp_wal("wal_corrupt.wal");
  {
    WalWriter w(path, 42);
    w.append("good one");
    w.append("about to corrupt");
    w.append("after the corruption");
  }
  // Flip a payload byte of the middle record: its CRC no longer matches,
  // and the final (intact) record must NOT be resurrected past the tear.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t at = text.find("about");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'X';
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();

  const WalReplay r = replay_wal(path);
  ASSERT_TRUE(r.exists);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], "good one");
  EXPECT_EQ(r.torn_lines, 2u);  // the corrupted line and everything after
}

TEST(Wal, GarbageFileIsNotAJournal) {
  const std::string path = temp_wal("wal_garbage.wal");
  { std::ofstream f(path); f << "t_s,power_w\n0,100\n"; }
  EXPECT_THROW(replay_wal(path), std::runtime_error);
}

TEST(Wal, AppendToContinuesAnExistingJournal) {
  const std::string path = temp_wal("wal_append.wal");
  {
    WalWriter w(path, 7);
    w.append("from the first run");
  }
  {
    WalWriter w = WalWriter::append_to(path, 7);
    w.append("from the resumed run");
  }
  const WalReplay r = replay_wal(path);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0], "from the first run");
  EXPECT_EQ(r.records[1], "from the resumed run");
}

TEST(Wal, AppendToRejectsFingerprintMismatch) {
  const std::string path = temp_wal("wal_mismatch.wal");
  { WalWriter w(path, 7); }
  EXPECT_THROW(WalWriter::append_to(path, 8), std::runtime_error);
  EXPECT_THROW(WalWriter::append_to(temp_wal("wal_absent.wal"), 7),
               std::runtime_error);
}

TEST(Wal, RejectsMultilinePayloads) {
  WalWriter w(temp_wal("wal_multiline.wal"), 1);
  EXPECT_THROW(w.append("two\nlines"), contract_error);
}

// --- torture: seeded corruption drills ------------------------------------
//
// The journal's contract under arbitrary tail damage: replay returns an
// exact prefix of what was written (resume cleanly), or throws (refuse
// loudly).  It must never surface a record that was not appended, drop a
// record silently, or let a duplicated chunk double-count a meter.

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

std::vector<std::string> write_journal(const std::string& path,
                                       std::size_t n_records) {
  std::vector<std::string> payloads;
  WalWriter w(path, 0xF00DULL);
  for (std::size_t i = 0; i < n_records; ++i) {
    payloads.push_back("record " + std::to_string(i) + " payload 3.14159");
    w.append(payloads.back());
  }
  return payloads;
}

// True iff `got` is an exact prefix of `wrote`.
bool is_prefix(const std::vector<std::string>& got,
               const std::vector<std::string>& wrote) {
  if (got.size() > wrote.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != wrote[i]) return false;
  }
  return true;
}

TEST(WalTorture, SeededTruncationsAlwaysLeaveACleanPrefix) {
  const std::string path = temp_wal("wal_torture_trunc.wal");
  const std::vector<std::string> wrote = write_journal(path, 20);
  const std::string pristine = slurp(path);
  const std::size_t header_end = pristine.find('\n') + 1;

  Rng rng(0xC0FFEE);
  for (int drill = 0; drill < 50; ++drill) {
    // Cut anywhere after the header — mid-payload, mid-CRC, mid-newline.
    const std::size_t cut =
        header_end + static_cast<std::size_t>(rng.uniform_index(
                         pristine.size() - header_end));
    dump(path, pristine.substr(0, cut));
    const WalReplay r = replay_wal(path);
    ASSERT_TRUE(r.exists);
    EXPECT_TRUE(is_prefix(r.records, wrote)) << "cut at byte " << cut;
    // Nothing between the last good record and the cut goes uncounted.
    if (r.records.size() < wrote.size() && cut > header_end) {
      const bool cut_mid_line = pristine[cut - 1] != '\n';
      if (cut_mid_line) {
        EXPECT_GE(r.torn_lines, 1u) << "cut at byte " << cut;
      }
    }
  }
}

TEST(WalTorture, SeededBitFlipsNeverSurfaceACorruptedRecord) {
  const std::string path = temp_wal("wal_torture_flip.wal");
  const std::vector<std::string> wrote = write_journal(path, 20);
  const std::string pristine = slurp(path);
  const std::size_t header_end = pristine.find('\n') + 1;

  Rng rng(0xBADC0DE);
  for (int drill = 0; drill < 50; ++drill) {
    std::string text = pristine;
    // A handful of bit flips anywhere in the record region.
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at =
          header_end + static_cast<std::size_t>(rng.uniform_index(
                           text.size() - header_end));
      text[at] = static_cast<char>(
          text[at] ^ static_cast<char>(1 << rng.uniform_index(8)));
    }
    dump(path, text);
    const WalReplay r = replay_wal(path);
    ASSERT_TRUE(r.exists);
    // Every surfaced record is one we wrote, in order, from the start:
    // the CRC tear ends the trustworthy prefix, it never invents data.
    EXPECT_TRUE(is_prefix(r.records, wrote)) << "drill " << drill;
    EXPECT_EQ(r.records.size() == wrote.size(), r.torn_lines == 0u);
  }
}

TEST(WalTorture, HeaderBitFlipRefusesLoudly) {
  const std::string path = temp_wal("wal_torture_header.wal");
  write_journal(path, 3);
  std::string text = slurp(path);
  text[2] ^= 0x01;  // inside the fingerprint hex
  dump(path, text);
  // A journal whose identity cannot be verified is not a journal: loud
  // refusal, not a silent fresh start that would re-poll and double-log.
  EXPECT_THROW(replay_wal(path), std::runtime_error);
}

TEST(WalTorture, DuplicatedChunkIsVisibleAndDedupByKeyIsExact) {
  const std::string path = temp_wal("wal_torture_dup.wal");
  // Real meter records, so the consumer-level dedup can be exercised.
  std::vector<MeterRecord> recs(6);
  {
    WalWriter w(path, 0xF00DULL);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      recs[i].reading.node = 100 + i;
      recs[i].reading.mean_w = 400.0 + 0.125 * static_cast<double>(i);
      recs[i].reading.energy_j = 7.0e5 + static_cast<double>(i);
      w.append(encode_meter_record(recs[i]));
    }
  }
  // A buffered retry re-appends the last three complete lines.
  std::string text = slurp(path);
  std::size_t tail_start = text.size();
  for (int lines = 0; lines < 3; ++lines) {
    tail_start = text.rfind('\n', tail_start - 2) + 1;
  }
  dump(path, text + text.substr(tail_start));

  const WalReplay r = replay_wal(path);
  ASSERT_TRUE(r.exists);
  // The WAL layer reports what is on disk — 9 valid lines, no tears.
  EXPECT_EQ(r.records.size(), 9u);
  EXPECT_EQ(r.torn_lines, 0u);
  // Keyed dedup (what the collector's resume does) must reconstruct each
  // meter exactly once, bit-identical to what was first journaled.
  std::vector<bool> seen(recs.size(), false);
  std::size_t kept = 0;
  for (const std::string& payload : r.records) {
    const MeterRecord rec = decode_meter_record(payload);
    const std::size_t i = rec.reading.node - 100;
    ASSERT_LT(i, recs.size());
    if (seen[i]) {
      // The duplicate must be byte-identical, so keep-first cannot lose
      // information, and keep-any cannot double-count.
      EXPECT_EQ(rec.reading.mean_w, recs[i].reading.mean_w);
      EXPECT_EQ(rec.reading.energy_j, recs[i].reading.energy_j);
      continue;
    }
    seen[i] = true;
    ++kept;
    EXPECT_EQ(rec.reading.mean_w, recs[i].reading.mean_w);
    EXPECT_EQ(rec.reading.energy_j, recs[i].reading.energy_j);
  }
  EXPECT_EQ(kept, recs.size());
}

TEST(MeterRecordCodec, RoundTripsBitExactly) {
  MeterRecord rec;
  rec.reading.node = 137;
  rec.reading.lost = false;
  rec.reading.mean_w = 431.72839456120031;  // full-precision doubles
  rec.reading.energy_j = 777013.00000000012;
  rec.abandoned = true;
  rec.samples_expected = 1800;
  rec.samples_lost = 63;
  rec.polls = 40;
  rec.timeouts = 9;
  rec.retries = 7;
  rec.duplicates = 2;
  rec.breaker_trips = 1;
  rec.busy_s = 12.000000000000302;

  const MeterRecord back = decode_meter_record(encode_meter_record(rec));
  EXPECT_EQ(back.reading.node, rec.reading.node);
  EXPECT_EQ(back.reading.lost, rec.reading.lost);
  EXPECT_EQ(back.reading.mean_w, rec.reading.mean_w);    // bit-exact
  EXPECT_EQ(back.reading.energy_j, rec.reading.energy_j);
  EXPECT_EQ(back.abandoned, rec.abandoned);
  EXPECT_EQ(back.samples_expected, rec.samples_expected);
  EXPECT_EQ(back.samples_lost, rec.samples_lost);
  EXPECT_EQ(back.polls, rec.polls);
  EXPECT_EQ(back.timeouts, rec.timeouts);
  EXPECT_EQ(back.retries, rec.retries);
  EXPECT_EQ(back.duplicates, rec.duplicates);
  EXPECT_EQ(back.breaker_trips, rec.breaker_trips);
  EXPECT_EQ(back.busy_s, rec.busy_s);
}

TEST(MeterRecordCodec, RejectsMalformedPayloads) {
  EXPECT_THROW(decode_meter_record(""), std::runtime_error);
  EXPECT_THROW(decode_meter_record("1 2 3"), std::runtime_error);
  EXPECT_THROW(decode_meter_record("not a record at all"),
               std::runtime_error);
  // A well-formed record with trailing garbage is a different format.
  MeterRecord rec;
  EXPECT_THROW(decode_meter_record(encode_meter_record(rec) + " extra"),
               std::runtime_error);
  // Flags must be exactly 0 or 1.
  EXPECT_THROW(decode_meter_record("5 2 0 1 1 0 0 0 0 0 0 0 0"),
               std::runtime_error);
}

TEST(MeterRecordCodec, SurvivesTheWalRoundTrip) {
  const std::string path = temp_wal("wal_meter_record.wal");
  MeterRecord rec;
  rec.reading.node = 9;
  rec.reading.mean_w = 1.0 / 3.0;
  rec.reading.energy_j = std::sqrt(2.0) * 1e6;
  rec.busy_s = 0.1 + 0.2;  // famously unrepresentable
  {
    WalWriter w(path, 5);
    w.append(encode_meter_record(rec));
  }
  const WalReplay r = replay_wal(path);
  ASSERT_EQ(r.records.size(), 1u);
  const MeterRecord back = decode_meter_record(r.records[0]);
  EXPECT_EQ(back.reading.mean_w, rec.reading.mean_w);
  EXPECT_EQ(back.reading.energy_j, rec.reading.energy_j);
  EXPECT_EQ(back.busy_s, rec.busy_s);
}

}  // namespace
}  // namespace pv
