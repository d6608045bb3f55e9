// Byte-level encoding primitives for snapshot files: fixed-width
// little-endian integers, LEB128 varints with zigzag for signed values, and
// raw IEEE-754 doubles (medians must restore bit-identically, so floats are
// never quantized).
//
// Reads go through ByteReader, which carries the absolute file offset and a
// context string so every decode failure — truncation, varint overrun,
// trailing garbage — names the exact byte it choked on. A corrupted snapshot
// must say "section \"learner\": checksum mismatch at offset 4242", not
// "bad file".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace blameit::store {

/// Malformed, truncated, or checksum-failed snapshot data. The message is
/// fully formatted and names the offending byte offset.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- Append-style writers (buffers are std::string byte sinks) -----------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// LEB128: 7 bits per byte, high bit = continuation.
void put_varint(std::string& out, std::uint64_t v);
/// Zigzag-mapped varint for signed values (small magnitudes stay small).
void put_svarint(std::string& out, std::int64_t v);
/// Raw IEEE-754 bits, little-endian (bit-exact round trip).
void put_f64(std::string& out, double v);
/// Varint length prefix + raw bytes.
void put_string(std::string& out, std::string_view s);

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Sequential decoder over a byte range. `base_offset` is where this range
/// starts in the enclosing file, so failure messages report file-absolute
/// offsets; `context` prefixes every message (e.g. `snapshot x.snap: section
/// "learner"`).
class ByteReader {
 public:
  ByteReader(std::string_view data, std::size_t base_offset,
             std::string context)
      : data_(data), base_(base_offset), context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string_view string();
  /// Raw byte run of exactly `n` bytes.
  [[nodiscard]] std::string_view bytes(std::size_t n);
  /// Next key of a strictly ascending, delta-coded key list (a varint delta
  /// from `prev`; the `first` key's delta is from 0). A zero delta after the
  /// first key, or one that wraps past 2^64, fails as a duplicate key rather
  /// than being read as a second record for an earlier key.
  [[nodiscard]] std::uint64_t next_key(std::uint64_t prev, bool first);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  /// Absolute file offset of the next unread byte.
  [[nodiscard]] std::size_t offset() const noexcept { return base_ + pos_; }

  /// Throws unless every byte was consumed — trailing garbage in a section
  /// means the writer and reader disagree about the format.
  void expect_done() const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string_view data_;
  std::size_t pos_ = 0;
  std::size_t base_;
  std::string context_;
};

}  // namespace blameit::store
