// Versioned, checksummed snapshot container.
//
// A snapshot file is a sequence of named sections, each independently
// checksummed with util::Digest64 so corruption is localized to a section
// and reported with the exact byte offset:
//
//   offset 0   magic   "BLMTSNAP"                      (8 bytes)
//   offset 8   u32     format version (currently 1)
//   offset 12  u32     section count
//   then, per section:
//              varint  name length, name bytes
//              varint  payload length
//              u64     Digest64 of the payload bytes
//              raw     payload
//
// Sections are written in the order the writer created them and looked up
// by name on read, so components can be snapshotted/restored independently
// and a reader tolerates sections it does not know about (forward-compat
// within a format version). The reader validates the header and EVERY
// section checksum eagerly at open — a torn write or bit flip fails fast
// with a message naming the file, the section, and the offset, never as a
// silently wrong restore.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "store/encoding.h"

namespace blameit::store {

inline constexpr std::string_view kSnapshotMagic = "BLMTSNAP";
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Accumulates named sections in memory, then writes the whole file at
/// once.
class SnapshotWriter {
 public:
  /// Starts a new section and returns its payload buffer; append with the
  /// put_* helpers. Section names must be unique per snapshot.
  std::string& section(std::string name);

  /// Serializes header + all sections to `<path>.tmp`, fsyncs it, renames
  /// it over `path` and fsyncs the directory, so a crash at any point
  /// leaves either the previous file or the new one, never a torn one.
  /// Throws SnapshotError on I/O failure. A failure up to and including
  /// the rename leaves the previous file intact and removes the temp file
  /// this call created; only the final directory fsync can fail after the
  /// new file is in place.
  void write_file(const std::string& path) const;

  /// The full serialized byte stream (what write_file persists) — used by
  /// tests and in-memory round trips.
  [[nodiscard]] std::string serialize() const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Parses and validates a snapshot file: magic, version, and every section
/// checksum, all eagerly at construction.
class SnapshotReader {
 public:
  /// Loads from a file. Throws SnapshotError naming the path and offset on
  /// any structural or checksum problem.
  static SnapshotReader from_file(const std::string& path);
  /// Parses an in-memory byte stream; `origin` names it in error messages.
  static SnapshotReader from_bytes(std::string bytes, std::string origin);

  [[nodiscard]] bool has_section(std::string_view name) const;
  /// Positioned reader over a section's payload. Throws SnapshotError if
  /// the section is absent.
  [[nodiscard]] ByteReader section(std::string_view name) const;

 private:
  SnapshotReader() = default;
  void parse();

  std::string origin_;
  std::string bytes_;
  // name -> (payload offset in bytes_, payload length)
  std::map<std::string, std::pair<std::size_t, std::size_t>, std::less<>>
      sections_;
};

}  // namespace blameit::store
