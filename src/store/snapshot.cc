#include "store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/digest.h"

namespace blameit::store {

namespace {

std::string quoted(std::string_view name) {
  std::string out = "\"";
  out.append(name);
  out += '"';
  return out;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = kDigits[(v >> (60 - 4 * i)) & 0xF];
  }
  return out;
}

}  // namespace

std::string& SnapshotWriter::section(std::string name) {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) {
      throw SnapshotError{"snapshot writer: duplicate section " +
                          quoted(name)};
    }
  }
  sections_.emplace_back(std::move(name), std::string{});
  return sections_.back().second;
}

std::string SnapshotWriter::serialize() const {
  std::string out;
  out.append(kSnapshotMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    put_string(out, name);
    put_varint(out, payload.size());
    util::Digest64 digest;
    digest.update_bytes(payload.data(), payload.size());
    put_u64(out, digest.value());
    out.append(payload);
  }
  return out;
}

void SnapshotWriter::write_file(const std::string& path) const {
  const std::string bytes = serialize();
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& what) {
    throw SnapshotError{"snapshot " + path + ": " + what + ": " +
                        std::strerror(errno)};
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) fail("cannot open " + tmp + " for writing");
  // From here on a failure removes the temp file; the live file is only
  // ever replaced whole, by the rename.
  const auto fail_and_remove = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    fail(what);
  };
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail_and_remove("write failed");
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail_and_remove("fsync failed");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail("rename into place failed");
  }
  // Make the rename itself durable.
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) fail("cannot open directory " + dir);
  const bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) fail("fsync of directory " + dir + " failed");
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw SnapshotError{"snapshot " + path + ": cannot open"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    throw SnapshotError{"snapshot " + path + ": read failed"};
  }
  return from_bytes(std::move(buf).str(), "snapshot " + path);
}

SnapshotReader SnapshotReader::from_bytes(std::string bytes,
                                          std::string origin) {
  SnapshotReader reader;
  reader.origin_ = std::move(origin);
  reader.bytes_ = std::move(bytes);
  reader.parse();
  return reader;
}

void SnapshotReader::parse() {
  ByteReader header{bytes_, 0, origin_};
  const std::string_view magic = header.bytes(kSnapshotMagic.size());
  if (magic != kSnapshotMagic) {
    throw SnapshotError{origin_ + ": bad magic (not a snapshot file)"};
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    throw SnapshotError{origin_ + ": unsupported format version " +
                        std::to_string(version) + " (this build reads " +
                        std::to_string(kSnapshotVersion) + ")"};
  }
  const std::uint32_t count = header.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name{header.string()};
    const std::uint64_t length = header.varint();
    const std::uint64_t stored_digest = header.u64();
    if (length > header.remaining()) {
      throw SnapshotError{origin_ + ": section " + quoted(name) +
                          ": payload truncated at offset " +
                          std::to_string(header.offset()) + " (want " +
                          std::to_string(length) + " bytes, have " +
                          std::to_string(header.remaining()) + ")"};
    }
    const std::size_t payload_offset = header.offset();
    const std::string_view payload =
        header.bytes(static_cast<std::size_t>(length));
    util::Digest64 digest;
    digest.update_bytes(payload.data(), payload.size());
    if (digest.value() != stored_digest) {
      throw SnapshotError{origin_ + ": section " + quoted(name) +
                          ": checksum mismatch at offset " +
                          std::to_string(payload_offset) + " (stored " +
                          hex64(stored_digest) + ", computed " +
                          hex64(digest.value()) + ")"};
    }
    if (!sections_
             .emplace(name, std::make_pair(payload_offset,
                                           static_cast<std::size_t>(length)))
             .second) {
      throw SnapshotError{origin_ + ": duplicate section " + quoted(name)};
    }
  }
  header.expect_done();
}

bool SnapshotReader::has_section(std::string_view name) const {
  return sections_.find(name) != sections_.end();
}

ByteReader SnapshotReader::section(std::string_view name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw SnapshotError{origin_ + ": missing section " + quoted(name)};
  }
  const auto [offset, length] = it->second;
  return ByteReader{std::string_view{bytes_}.substr(offset, length), offset,
                    origin_ + ": section " + quoted(std::string{name})};
}

}  // namespace blameit::store
