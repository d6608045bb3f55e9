// Edge cases for the snapshot container: the scenarios most likely to
// corrupt state silently — empty snapshots, missing sections, and torn or
// bit-flipped snapshot files (which must fail loudly, naming the offset).
#include <gtest/gtest.h>

#include <string>

#include "store/encoding.h"
#include "store/snapshot.h"

namespace blameit::store {
namespace {

TEST(SnapshotContainer, EmptySnapshotRoundTrips) {
  SnapshotWriter writer;
  const std::string bytes = writer.serialize();
  const auto reader = SnapshotReader::from_bytes(bytes, "<empty>");
  EXPECT_FALSE(reader.has_section("anything"));
}

TEST(SnapshotContainer, SectionsRoundTripByName) {
  SnapshotWriter writer;
  put_varint(writer.section("alpha"), 42);
  auto& beta = writer.section("beta");
  put_svarint(beta, -7);
  put_f64(beta, 2.5);

  const auto reader = SnapshotReader::from_bytes(writer.serialize(), "<rt>");
  EXPECT_TRUE(reader.has_section("alpha"));
  EXPECT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));

  auto a = reader.section("alpha");
  EXPECT_EQ(a.varint(), 42u);
  a.expect_done();
  auto b = reader.section("beta");
  EXPECT_EQ(b.svarint(), -7);
  EXPECT_EQ(b.f64(), 2.5);
  b.expect_done();
}

TEST(SnapshotContainer, MissingSectionNamesItAndTheOrigin) {
  SnapshotWriter writer;
  writer.section("present");
  const auto reader =
      SnapshotReader::from_bytes(writer.serialize(), "<origin>");
  try {
    (void)reader.section("absent");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string{e.what()}.find("absent"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("<origin>"), std::string::npos);
  }
}

TEST(SnapshotContainer, CorruptPayloadFailsChecksumNamingSectionAndOffset) {
  SnapshotWriter writer;
  auto& payload = writer.section("learner");
  for (int i = 0; i < 64; ++i) put_varint(payload, 1000 + i);
  std::string bytes = writer.serialize();

  // Flip one bit inside the payload (past the 12-byte header and the
  // section preamble).
  bytes[bytes.size() - 5] ^= 0x10;
  try {
    (void)SnapshotReader::from_bytes(bytes, "<corrupt>");
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("learner"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(SnapshotContainer, TruncatedStreamIsRejected) {
  SnapshotWriter writer;
  auto& payload = writer.section("verdicts");
  for (int i = 0; i < 64; ++i) put_u64(payload, 7777);
  const std::string bytes = writer.serialize();

  // Any truncation point — inside the header, the preamble, or the payload —
  // must be rejected, never parsed as a shorter-but-valid snapshot.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{11}, std::size_t{13},
        bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)SnapshotReader::from_bytes(bytes.substr(0, keep),
                                                  "<truncated>"),
                 SnapshotError)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(SnapshotContainer, WrongMagicAndVersionAreRejected) {
  SnapshotWriter writer;
  writer.section("s");
  std::string bytes = writer.serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)SnapshotReader::from_bytes(bad_magic, "<magic>"),
               SnapshotError);

  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(0xEE);  // version u32, little-endian
  EXPECT_THROW((void)SnapshotReader::from_bytes(bad_version, "<version>"),
               SnapshotError);
}

}  // namespace
}  // namespace blameit::store
