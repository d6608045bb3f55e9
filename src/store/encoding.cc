#include "store/encoding.h"

#include <cstring>

namespace blameit::store {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(buf, 8);
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

void ByteReader::need(std::size_t n, const char* what) const {
  if (data_.size() - pos_ < n) {
    fail(std::string{"unexpected end of data reading "} + what);
  }
}

std::uint8_t ByteReader::u8() {
  need(1, "u8");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1, "varint");
    const auto byte = static_cast<unsigned char>(data_[pos_++]);
    if (shift == 63 && (byte & 0xFE) != 0) fail("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) fail("varint longer than 10 bytes");
  }
}

std::int64_t ByteReader::svarint() { return unzigzag(varint()); }

std::uint64_t ByteReader::next_key(std::uint64_t prev, bool first) {
  const std::uint64_t delta = varint();
  if (first) return delta;
  if (delta == 0 || prev + delta < prev) fail("duplicate or out-of-order key");
  return prev + delta;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view ByteReader::string() {
  const std::uint64_t n = varint();
  if (n > data_.size() - pos_) fail("string length exceeds available data");
  return bytes(static_cast<std::size_t>(n));
}

std::string_view ByteReader::bytes(std::size_t n) {
  need(n, "byte run");
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

void ByteReader::expect_done() const {
  if (!done()) {
    throw SnapshotError{context_ + ": " + std::to_string(remaining()) +
                        " trailing bytes at offset " + std::to_string(offset())};
  }
}

void ByteReader::fail(const std::string& what) const {
  throw SnapshotError{context_ + ": " + what + " at offset " +
                      std::to_string(offset())};
}

}  // namespace blameit::store
