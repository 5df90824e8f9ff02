#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Versioned, endianness-explicit binary serialization for checkpoints
// (docs/checkpointing.md).  A checkpoint is a flat byte stream:
//
//   magic "DTNCKPT\n" | u32 schema version | u32 flags
//   section*          | u32 0 (end marker)
//
// where each section is
//
//   u32 name_len | name bytes | u64 payload_len | payload | u32 crc32(payload)
//
// All integers are little-endian regardless of host order; doubles are
// bit_cast to u64 first, so a checkpoint round-trips bit-exactly.  The
// Writer/Reader pair is purely in-memory — CheckpointManager owns all
// filesystem concerns (atomic write, discovery, retention).
//
// Readers consume sections in the exact order writers emitted them and
// must drain each payload completely; any mismatch (magic, schema
// version, section name, CRC, truncation, trailing bytes) throws
// FormatError rather than yielding partial state.

namespace dtn::persist {

inline constexpr std::uint32_t kSchemaVersion = 4;
inline constexpr std::size_t kMagicSize = 8;

const std::uint8_t* magic();  // kMagicSize bytes

// Any structural problem with a checkpoint byte stream.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::uint32_t crc32(std::span<const std::uint8_t> data);

class Writer {
 public:
  Writer();

  void begin_section(std::string_view name);
  void end_section();
  void finish();  // appends the end marker; no sections may follow

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  // (name, crc32) of every closed section, in write order.  The
  // InvariantAuditor compares these against a fresh serialization of
  // live state to prove a snapshot still matches the simulation.
  const std::vector<std::pair<std::string, std::uint32_t>>& sections() const {
    return sections_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::pair<std::string, std::uint32_t>> sections_;
  std::string section_name_;
  std::size_t size_pos_ = 0;     // offset of the current payload_len field
  std::size_t payload_pos_ = 0;  // offset of the current payload start
  bool in_section_ = false;
  bool finished_ = false;
};

class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> data);

  // Positions the reader inside the next section, which must be named
  // `name`, after verifying its CRC.  Throws FormatError otherwise.
  void expect_section(std::string_view name);
  void end_section();  // payload must be fully consumed
  void finish();       // end marker must follow, then end of stream

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();

  std::uint32_t schema_version() const { return version_; }

 private:
  void need(std::size_t n) const;  // bounds check against section/stream end
  std::uint32_t raw_u32();
  std::uint64_t raw_u64();

  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::string section_name_;
  std::uint32_t version_ = 0;
  bool in_section_ = false;
};

}  // namespace dtn::persist
