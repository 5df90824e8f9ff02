#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "trace/cursor.hpp"

namespace dtn::trace {
namespace {

Trace sample() {
  Trace t(2, 2);
  t.add_visit({0, 0, 0.0, 10.5});
  t.add_visit({0, 1, 20.0, 30.0});
  t.add_visit({1, 1, 1.25, 2.75});
  t.finalize();
  return t;
}

TEST(TraceIo, RoundTripPreservesVisits) {
  const Trace original = sample();
  std::stringstream buf;
  write_trace_csv(original, buf);
  const Trace loaded = read_trace_csv(buf);
  EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.num_landmarks(), original.num_landmarks());
  ASSERT_EQ(loaded.total_visits(), original.total_visits());
  for (NodeId n = 0; n < original.num_nodes(); ++n) {
    const auto a = original.visits(n);
    const auto b = loaded.visits(n);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(TraceIo, HeaderWritten) {
  std::stringstream buf;
  write_trace_csv(sample(), buf);
  std::string first;
  std::getline(buf, first);
  EXPECT_EQ(first, "node,landmark,start,end");
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream buf("0,0,0,1\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsBadFieldCount) {
  std::stringstream buf("node,landmark,start,end\n0,0,1\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsNonNumeric) {
  std::stringstream buf("node,landmark,start,end\n0,zero,0,1\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsInvertedInterval) {
  std::stringstream buf("node,landmark,start,end\n0,0,5,3\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream buf("");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, SkipsBlankLines) {
  std::stringstream buf("node,landmark,start,end\n0,0,0,1\n\n1,1,2,3\n");
  const Trace t = read_trace_csv(buf);
  EXPECT_EQ(t.total_visits(), 2u);
  EXPECT_EQ(t.num_nodes(), 2u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "trace_io_test.csv";
  write_trace_csv(sample(), path);
  const Trace loaded = read_trace_csv(path);
  EXPECT_EQ(loaded.total_visits(), 3u);
  std::remove(path.c_str());
}

TEST(TraceIo, ThrowsOnMissingFile) {
  EXPECT_THROW(read_trace_csv(std::string("/no/such/file.csv")),
               std::runtime_error);
}

// Parse errors must be attributable: loading a broken file names the
// file (and the line) in the exception, not just "bad number somewhere".
TEST(TraceIo, ParseErrorNamesTheFile) {
  const std::string path = ::testing::TempDir() + "trace_io_broken.csv";
  {
    std::ofstream out(path);
    out << "node,landmark,start,end\n0,zero,0,1\n";
  }
  try {
    (void)read_trace_csv(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

// The stream overload labels errors with the caller-supplied source
// name (default "<stream>").
TEST(TraceIo, StreamParseErrorUsesSourceLabel) {
  std::stringstream bad("node,landmark,start,end\n0,0,5,3\n");
  try {
    (void)read_trace_csv(bad, "unit-test-buffer");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unit-test-buffer"),
              std::string::npos)
        << e.what();
  }
  std::stringstream also_bad("node,landmark,start,end\n0,0,5,3\n");
  try {
    (void)read_trace_csv(also_bad);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("<stream>"), std::string::npos)
        << e.what();
  }
}

// A file cut mid-record (what a crashed writer leaves behind) must be a
// clean error, not a silent EOF: the cut value can parse as a *wrong*
// number ("...,27.5" truncated to "...,2" below), so crash-resume reads
// would otherwise ingest corrupt visits (docs/checkpointing.md).
TEST(TraceIo, RejectsTruncatedTrailingRecord) {
  std::stringstream cut("node,landmark,start,end\n0,0,0,1\n1,1,2,2");
  try {
    (void)read_trace_csv(cut, "cut-buffer");
    FAIL() << "expected a truncation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("cut-buffer"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }

  const std::string path = ::testing::TempDir() + "trace_io_truncated.csv";
  {
    std::ofstream out(path);
    out << "node,landmark,start,end\n0,0,0,1\n1,1,2,2";  // cut from 27.5
  }
  EXPECT_THROW((void)read_trace_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

// ... including a record whose *fields* are cut, not just the value.
TEST(TraceIo, RejectsTrailingRecordCutMidFields) {
  std::stringstream cut("node,landmark,start,end\n0,0,0,1\n1,1");
  EXPECT_THROW((void)read_trace_csv(cut), std::runtime_error);
}

// Rows that parse as numbers but cannot be replayed are rejected with
// their line number instead of aborting later in Trace or the cursor.
void expect_rejected(const std::string& body, const std::string& needle) {
  std::stringstream buf("node,landmark,start,end\n" + body);
  try {
    (void)read_trace_csv(buf);
    FAIL() << "expected an error for: " << body;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsNonFiniteTimes) {
  expect_rejected("0,1,0,100\n0,1,200,nan\n", "non-finite time at line 3");
  expect_rejected("0,1,nan,200\n", "non-finite time at line 2");
  expect_rejected("0,1,0,inf\n", "non-finite time at line 2");
  expect_rejected("0,1,-inf,5\n", "non-finite time at line 2");
}

TEST(TraceIo, RejectsNegativeStart) {
  expect_rejected("0,1,-5,100\n", "negative start at line 2");
  expect_rejected("1,0,3,4\n0,1,-0.5,1\n", "negative start at line 3");
}

TEST(TraceIo, RejectsOverlappingVisitsOfOneNode) {
  expect_rejected("0,0,0,100\n1,1,10,20\n0,1,50,150\n",
                  "visits of node 0 overlap at lines 2 and 4");
  // Listed out of time order, and with identical starts.
  expect_rejected("2,0,50,60\n2,1,0,100\n", "overlap at lines 2 and 3");
  expect_rejected("0,0,7,8\n0,1,7,9\n", "overlap at lines 2 and 3");
}

TEST(TraceIo, AcceptsBackToBackVisitsAndCrossNodeOverlap) {
  // Leaving one landmark and reaching the next at the same instant is
  // no overlap, and different nodes may share any interval.
  std::stringstream buf(
      "node,landmark,start,end\n0,0,0,10\n0,1,10,20\n1,1,5,15\n");
  const Trace t = read_trace_csv(buf);
  EXPECT_EQ(t.total_visits(), 3u);
  ASSERT_EQ(t.visits(0).size(), 2u);
  EXPECT_EQ(t.visits(0)[1].start, 10.0);
}

TEST(TraceIo, NegativeZeroStartBecomesPositiveZero) {
  std::stringstream buf("node,landmark,start,end\n0,1,-0,5\n1,0,0.5,2\n");
  const Trace t = read_trace_csv(buf);
  ASSERT_EQ(t.visits(0).size(), 1u);
  EXPECT_EQ(t.visits(0)[0].start, 0.0);
  EXPECT_FALSE(std::signbit(t.visits(0)[0].start));
  // The replay cursor's bit-pattern key then orders it first.
  TraceCursor cursor(t);
  EXPECT_EQ(cursor.peek().a, 0u);
  EXPECT_EQ(cursor.peek().time, 0.0);
}

}  // namespace
}  // namespace dtn::trace
