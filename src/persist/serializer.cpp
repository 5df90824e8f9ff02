#include "persist/serializer.hpp"

#include <array>
#include <cstring>

#include "util/assert.hpp"

namespace dtn::persist {

namespace {

constexpr std::array<std::uint8_t, kMagicSize> kMagic = {
    'D', 'T', 'N', 'C', 'K', 'P', 'T', '\n'};

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// tables[0] is the bytewise table, and tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table reads fold eight input bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFU] ^ (prev >> 8);
    }
  }
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_u64_at(std::vector<std::uint8_t>& buf, std::size_t pos,
                  std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

const std::uint8_t* magic() { return kMagic.data(); }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

// buf_ starts as the magic: GCC 12 at -O3 reports a bogus
// -Wstringop-overflow for an insert of it into the empty vector.
Writer::Writer() : buf_(kMagic.begin(), kMagic.end()) {
  u32(kSchemaVersion);
  u32(0);  // flags, reserved
}

void Writer::begin_section(std::string_view name) {
  DTN_ASSERT(!in_section_ && !finished_);
  DTN_ASSERT(!name.empty());
  u32(static_cast<std::uint32_t>(name.size()));
  buf_.insert(buf_.end(), name.begin(), name.end());
  size_pos_ = buf_.size();
  u64(0);  // payload_len, patched in end_section
  payload_pos_ = buf_.size();
  section_name_.assign(name);
  in_section_ = true;
}

void Writer::end_section() {
  DTN_ASSERT(in_section_);
  const std::size_t payload_len = buf_.size() - payload_pos_;
  store_u64_at(buf_, size_pos_, payload_len);
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(buf_.data() + payload_pos_, payload_len));
  in_section_ = false;
  u32(crc);
  sections_.emplace_back(section_name_, crc);
}

void Writer::finish() {
  DTN_ASSERT(!in_section_ && !finished_);
  u32(0);  // end marker: a zero-length section name terminates the stream
  finished_ = true;
}

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::str(std::string_view s, const char* name) {
  const std::size_t at = buf_.size();
  u32(static_cast<std::uint32_t>(s.size()));
  note(name, at, true);
  buf_.insert(buf_.end(), s.begin(), s.end());
  if (!s.empty()) note(name, at + 4, false);
}

Reader::Reader(std::vector<std::uint8_t> data) : data_(std::move(data)) {
  if (data_.size() < kMagicSize + 8) {
    throw FormatError("checkpoint truncated: shorter than the header");
  }
  if (std::memcmp(data_.data(), kMagic.data(), kMagicSize) != 0) {
    throw FormatError("not a checkpoint: bad magic");
  }
  pos_ = kMagicSize;
  version_ = raw_u32();
  if (version_ != kSchemaVersion) {
    throw FormatError("unsupported checkpoint schema version " +
                      std::to_string(version_) + " (this build reads version " +
                      std::to_string(kSchemaVersion) + ")");
  }
  raw_u32();  // flags, reserved
}

std::size_t Reader::remaining() const {
  return (in_section_ ? section_end_ : data_.size()) - pos_;
}

void Reader::fail(const std::string& what) {
  throw FormatError("checkpoint " + what);
}

void Reader::count(const char* name, std::size_t& n, std::size_t width) {
  const std::uint64_t c = u64();
  if (width > 0 && c > remaining() / width) {
    fail(std::string(name) + " count " + std::to_string(c) +
         " exceeds the bytes left");
  }
  n = static_cast<std::size_t>(c);
}

void Reader::need(std::size_t n) const {
  if (n > remaining()) {
    throw FormatError(in_section_
                          ? "checkpoint section '" + section_name_ +
                                "' truncated: read past payload end"
                          : "checkpoint truncated: read past end of stream");
  }
}

std::uint32_t Reader::raw_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::raw_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

void Reader::expect_section(std::string_view name) {
  DTN_ASSERT(!in_section_);
  const std::uint32_t name_len = raw_u32();
  if (name_len == 0) {
    throw FormatError("checkpoint ended early: wanted section '" +
                      std::string(name) + "'");
  }
  need(name_len);
  std::string found(reinterpret_cast<const char*>(data_.data()) + pos_,
                    name_len);
  pos_ += name_len;
  if (found != name) {
    throw FormatError("checkpoint section order mismatch: wanted '" +
                      std::string(name) + "', found '" + found + "'");
  }
  const std::uint64_t payload_len = raw_u64();
  if (payload_len > data_.size() - pos_ || data_.size() - pos_ - payload_len < 4) {
    throw FormatError("checkpoint section '" + found +
                      "' truncated: payload length exceeds stream");
  }
  const auto payload = std::span<const std::uint8_t>(
      data_.data() + pos_, static_cast<std::size_t>(payload_len));
  const std::size_t crc_pos = pos_ + static_cast<std::size_t>(payload_len);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(data_[crc_pos + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (crc32(payload) != stored) {
    throw FormatError("checkpoint section '" + found +
                      "' corrupt: CRC mismatch");
  }
  section_end_ = crc_pos;
  section_name_ = std::move(found);
  in_section_ = true;
}

void Reader::end_section() {
  DTN_ASSERT(in_section_);
  if (pos_ != section_end_) {
    throw FormatError("checkpoint section '" + section_name_ +
                      "' has unconsumed payload bytes");
  }
  pos_ += 4;  // skip the (already verified) CRC
  in_section_ = false;
}

void Reader::finish() {
  DTN_ASSERT(!in_section_);
  const std::uint32_t name_len = raw_u32();
  if (name_len != 0) {
    throw FormatError("checkpoint has trailing sections past the end marker");
  }
  if (pos_ != data_.size()) {
    throw FormatError("checkpoint has trailing garbage past the end marker");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() { return raw_u32(); }

std::uint64_t Reader::u64() { return raw_u64(); }

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw FormatError("checkpoint section '" + section_name_ +
                      "' corrupt: boolean out of range");
  }
  return v != 0;
}

std::string Reader::str() {
  const std::uint32_t len = raw_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, len);
  pos_ += len;
  return s;
}

}  // namespace dtn::persist
