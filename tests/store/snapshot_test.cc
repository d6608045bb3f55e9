// Edge cases for the snapshot container: the scenarios most likely to
// corrupt state silently — empty snapshots, missing sections, and torn or
// bit-flipped snapshot files (which must fail loudly, naming the offset).
#include <gtest/gtest.h>

#include <filesystem>
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

/// A fresh directory under the system temp dir, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string{"blameit_snapshot_"} + info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::filesystem::path path() const { return path_; }

 private:
  std::filesystem::path path_;
};

SnapshotWriter one_section_writer(std::uint64_t value) {
  SnapshotWriter writer;
  put_varint(writer.section("cursor"), value);
  return writer;
}

std::uint64_t cursor_of(const std::string& path) {
  const auto reader = SnapshotReader::from_file(path);
  auto in = reader.section("cursor");
  return in.varint();
}

TEST(SnapshotFile, WriteReplacesWholeFileAndLeavesNoTemp) {
  const ScratchDir dir;
  const std::string path = dir.file("state.snap");
  one_section_writer(1).write_file(path);
  EXPECT_EQ(cursor_of(path), 1u);
  one_section_writer(2).write_file(path);
  EXPECT_EQ(cursor_of(path), 2u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator{dir.path()},
                          std::filesystem::directory_iterator{}),
            1);
}

TEST(SnapshotFile, FailedWriteKeepsPreviousSnapshot) {
  const ScratchDir dir;
  const std::string path = dir.file("state.snap");
  one_section_writer(7).write_file(path);
  // A directory where the temp file must go makes the write fail before
  // the live file is touched.
  std::filesystem::create_directory(path + ".tmp");
  try {
    one_section_writer(8).write_file(path);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cursor_of(path), 7u);
  EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_empty(path + ".tmp"));
  // Nothing but the old snapshot and the obstacle.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator{dir.path()},
                          std::filesystem::directory_iterator{}),
            2);
}

TEST(SnapshotFile, FailedRenameRemovesTemp) {
  const ScratchDir dir;
  // The live path is a non-empty directory: the temp file is written, the
  // rename over it fails, and the temp file is removed again.
  const std::string path = dir.file("state.snap");
  std::filesystem::create_directories(path + "/occupied");
  EXPECT_THROW(one_section_writer(3).write_file(path), SnapshotError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
}

}  // namespace
}  // namespace blameit::store
