#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/flat_matrix.hpp"
#include "util/rng.hpp"

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
//
// Field lists.  Each checkpointed type states its image once, in a
// `template <class Ar> void fields(Ar& ar)` that save (`const_cast`
// to it: a Writer only reads) and load both call.  The archive is a
// Writer, a Reader, or a Recorder (a Writer that logs every field's
// name, offset and width); all spell one vocabulary, whose validators
// only a Reader enforces:
//
//   value(name, x)         scalar: double f64, bool 0/1, else by size
//   index(name, i, n)      i < n; index_or_none also takes all-ones
//   non_negative(name, d)  d >= 0, NaN refused
//   expect(name, v)        equals what this run already fixes
//   check(ok, what)        ok
//   count(name, n, width)  u64 length; n x width fits the bytes left
//   vec / fixed(name, v)   counted scalars; fixed keeps v's length
//   array(name, v)         v.size() scalars, uncounted
//   matrix(name, m)        FlatMatrix cells, m's shape
//   seq(name, v, fn)       counted records, fn per element; loading
//                          grows v one read element at a time
//   rng(name, g), object(x)  generator state; x.save / x.load
//
// Adding a field is one line.  Loading work beyond reading (derived
// indices) is an `if constexpr (Ar::loading)` step in the same list.

namespace dtn::persist {

inline constexpr std::uint32_t kSchemaVersion = 12;
inline constexpr std::size_t kMagicSize = 8;

const std::uint8_t* magic();  // kMagicSize bytes

// Any structural problem with a checkpoint byte stream.
class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Encoded width of a scalar field of type T.
template <typename T>
inline constexpr std::size_t kWireSize =
    std::is_same_v<T, double> ? 8
    : sizeof(T) <= 1          ? 1
    : sizeof(T) <= 4          ? 4
                              : 8;

/// One field the Recorder saw: where its bytes sit in the image.
struct FieldSpan {
  const char* name;
  std::size_t offset;  ///< from the start of the image
  std::size_t width;   ///< bytes
  bool length;         ///< a count or shape the following bytes depend on
};

/// The field-list vocabulary (see the header comment), written once
/// over the primitives each archive `A` supplies: value(name, x),
/// count(name, n, width), array(name, v), str() and `loading`.
template <class A>
class Archive {
 public:
  template <typename T>
  void index(const char* name, T& v, std::size_t n) {
    self().value(name, v);
    check(static_cast<std::size_t>(v) < n, name, " out of range");
  }
  template <typename T>
  void index_or_none(const char* name, T& v, std::size_t n) {
    self().value(name, v);
    check(v == static_cast<T>(-1) || v < n, name, " out of range");
  }
  void non_negative(const char* name, double& v) {
    self().value(name, v);
    check(v >= 0.0, name, " negative or NaN");
  }
  template <typename T>
  void expect(const char* name, const T& v) {
    if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      if constexpr (A::loading) {
        check(self().str() == std::string_view(v), name, kMismatch);
      } else {
        self().str(v, name);
      }
    } else {
      T x = v;
      self().value(name, x);
      if constexpr (std::is_same_v<T, double>) {  // by bit pattern
        check(std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(v),
              name, kMismatch);
      } else {
        check(x == v, name, kMismatch);
      }
    }
  }
  /// Loading throws FormatError("checkpoint " + what + detail) unless ok.
  void check(bool ok, const char* what, const char* detail = "") {
    if constexpr (A::loading) {
      if (!ok) A::fail(std::string(what) + detail);
    }
  }
  template <typename T>
  void vec(const char* name, std::vector<T>& v) {
    std::size_t n = v.size();
    self().count(name, n, kWireSize<T>);
    if constexpr (A::loading) v.resize(n);
    self().array(name, v);
  }
  template <typename T>
  void fixed(const char* name, std::vector<T>& v) {
    std::size_t n = v.size();
    self().count(name, n, kWireSize<T>);
    check(n == v.size(), name, kMismatch);
    self().array(name, v);
  }
  template <typename T>
  void matrix(const char* name, FlatMatrix<T>& m) {
    std::size_t rows = m.rows();
    std::size_t cols = m.cols();
    self().count(name, rows, 0);
    self().count(name, cols, 0);
    check(rows == m.rows() && cols == m.cols(), name, kMismatch);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) self().value(name, m.at(r, c));
    }
  }
  template <typename T, typename Fn>
  void seq(const char* name, std::vector<T>& v, Fn&& fn) {
    std::size_t n = v.size();
    self().count(name, n, 1);
    if constexpr (A::loading) {
      v.clear();
      for (std::size_t i = 0; i < n; ++i) fn(v.emplace_back());
    } else {
      for (T& x : v) fn(x);
    }
  }
  void rng(const char* name, Rng& g) {
    std::array<std::uint64_t, 4> state = g.state();
    for (std::uint64_t& word : state) self().value(name, word);
    if constexpr (A::loading) g.set_state(state);
  }
  template <typename T>
  void object(T& x) {
    if constexpr (A::loading) {
      x.load(self());
    } else {
      x.save(self());
    }
  }

 private:
  friend A;
  Archive() = default;

  static constexpr const char* kMismatch = " disagrees with this run";

  A& self() { return static_cast<A&>(*this); }
};

class Writer : public Archive<Writer> {
 public:
  static constexpr bool loading = false;

  Writer();

  void begin_section(std::string_view name);
  void end_section();
  void finish();  // appends the end marker; no sections may follow

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s, const char* name = "string");

  // -- archive primitives (see Archive) ---------------------------------
  template <typename T>
  void value(const char* name, const T& v) {
    const std::size_t at = buf_.size();
    put(v);
    note(name, at, false);
  }
  void count(const char* name, std::size_t n, std::size_t /*width*/) {
    const std::size_t at = buf_.size();
    u64(n);
    note(name, at, true);
  }
  template <typename T>
  void array(const char* name, const std::vector<T>& v) {
    if (v.empty()) return;
    const std::size_t at = buf_.size();
    for (const T& x : v) put(x);
    note(name, at, false);
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  // (name, crc32) of every closed section, in write order.  The
  // InvariantAuditor compares these against a fresh serialization of
  // live state to prove a snapshot still matches the simulation.
  const std::vector<std::pair<std::string, std::uint32_t>>& sections() const {
    return sections_;
  }

 protected:
  /// Set by the Recorder: every field is then logged into fields_.
  bool recording_ = false;
  std::vector<FieldSpan> fields_;

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (kWireSize<T> == 1) {
      u8(static_cast<std::uint8_t>(v));  // a bool as 0 or 1
    } else if constexpr (kWireSize<T> == 4) {
      u32(static_cast<std::uint32_t>(v));
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
  void note(const char* name, std::size_t at, bool length) {
    if (recording_) fields_.push_back({name, at, buf_.size() - at, length});
  }

  std::vector<std::uint8_t> buf_;
  std::vector<std::pair<std::string, std::uint32_t>> sections_;
  std::string section_name_;
  std::size_t size_pos_ = 0;     // offset of the current payload_len field
  std::size_t payload_pos_ = 0;  // offset of the current payload start
  bool in_section_ = false;
  bool finished_ = false;
};

/// A Writer that also logs every field it writes (FieldSpan), so tools
/// and tests can address an image field by field.  It passes wherever a
/// Writer does, the virtual Router::checkpoint_save included.
class Recorder : public Writer {
 public:
  Recorder() { recording_ = true; }

  [[nodiscard]] const std::vector<FieldSpan>& fields() const {
    return fields_;
  }
};

class Reader : public Archive<Reader> {
 public:
  static constexpr bool loading = true;

  explicit Reader(std::vector<std::uint8_t> data);

  // Positions the reader inside the next section, which must be named
  // `name`, after verifying its CRC.  Throws FormatError otherwise.
  void expect_section(std::string_view name);
  void begin_section(std::string_view name) { expect_section(name); }
  void end_section();  // payload must be fully consumed
  void finish();       // end marker must follow, then end of stream

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();

  std::uint32_t schema_version() const { return version_; }
  /// Bytes left before the end of the current section (or stream).
  [[nodiscard]] std::size_t remaining() const;

  /// Throws FormatError("checkpoint " + what).
  [[noreturn]] static void fail(const std::string& what);

  // -- archive primitives (see Archive) ---------------------------------
  template <typename T>
  void value(const char* /*name*/, T& v) {
    if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (kWireSize<T> == 1) {
      v = static_cast<T>(u8());
    } else if constexpr (kWireSize<T> == 4) {
      v = static_cast<T>(u32());
    } else {
      v = static_cast<T>(u64());
    }
  }
  /// Checked before anything is allocated from it: a forged count cannot
  /// claim more elements of `width` bytes than the bytes left could hold.
  void count(const char* name, std::size_t& n, std::size_t width);
  template <typename T>
  void array(const char* name, std::vector<T>& v) {
    for (T& x : v) value(name, x);
  }

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
