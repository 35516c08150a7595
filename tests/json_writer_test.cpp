// Unit tests for the JSON writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/solve_report.hpp"
#include "io/json_writer.hpp"

namespace dabs {
namespace {

TEST(JsonWriter, SimpleObject) {
  std::ostringstream out;
  {
    io::JsonWriter j(out);
    j.begin_object()
        .value("name", "dabs")
        .value("n", std::int64_t{2000})
        .value("ok", true)
        .end_object();
    EXPECT_TRUE(j.complete());
  }
  EXPECT_EQ(out.str(), R"({"name":"dabs","n":2000,"ok":true})");
}

TEST(JsonWriter, NestedStructures) {
  std::ostringstream out;
  {
    io::JsonWriter j(out);
    j.begin_object().begin_array("xs");
    j.element(std::int64_t{1}).element(std::int64_t{2});
    j.end_array().begin_object("meta").value("k", "v").end_object();
    j.end_object();
  }
  EXPECT_EQ(out.str(), R"({"xs":[1,2],"meta":{"k":"v"}})");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(io::JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(io::JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // All of 0x00..0x1F must come out escaped; the named short forms for the
  // common ones, \u00XX for the rest.
  for (int c = 0; c < 0x20; ++c) {
    const std::string in(1, static_cast<char>(c));
    const std::string out = io::JsonWriter::escape(in);
    ASSERT_GE(out.size(), 2u) << "control char " << c << " left unescaped";
    EXPECT_EQ(out[0], '\\') << "control char " << c;
  }
  EXPECT_EQ(io::JsonWriter::escape("\r"), "\\r");
  EXPECT_EQ(io::JsonWriter::escape("\t"), "\\t");
  EXPECT_EQ(io::JsonWriter::escape("\x1f"), "\\u001f");
  EXPECT_EQ(io::JsonWriter::escape("\x7f"), "\x7f");  // DEL needs no escape
}

TEST(JsonWriter, EscapesExtrasStyleKeysAndValues) {
  // Report extras are caller-controlled strings: keys and values with
  // quotes, backslashes, and control chars must produce parseable JSON.
  std::ostringstream out;
  {
    io::JsonWriter j(out);
    j.begin_object()
        .value("path\\with\"quote", "C:\\tmp\n\"x\"")
        .end_object();
  }
  EXPECT_EQ(out.str(),
            R"({"path\\with\"quote":"C:\\tmp\n\"x\""})");
}

TEST(JsonWriter, Uint64RoundTripsFullRange) {
  std::ostringstream out;
  {
    io::JsonWriter j(out);
    j.begin_object()
        .value("job_id", std::uint64_t{18446744073709551615ULL})
        .begin_array("ids");
    j.element(std::uint64_t{0}).element(std::uint64_t{9007199254740993ULL});
    j.end_array().end_object();
  }
  // Top of the uint64 range must not collapse into a negative int64.
  EXPECT_EQ(out.str(),
            R"({"job_id":18446744073709551615,"ids":[0,9007199254740993]})");
}

TEST(JsonWriter, DestructorClosesOpenScopes) {
  std::ostringstream out;
  {
    io::JsonWriter j(out);
    j.begin_object().begin_array("xs").element(std::int64_t{1});
    // forgot end_array / end_object
  }
  EXPECT_EQ(out.str(), R"({"xs":[1]})");
}

TEST(JsonWriter, RejectsKeylessObjectMember) {
  std::ostringstream out;
  io::JsonWriter j(out);
  j.begin_object();
  EXPECT_THROW(j.element(std::int64_t{1}), std::invalid_argument);
}

TEST(JsonWriter, RejectsKeyedArrayElement) {
  std::ostringstream out;
  io::JsonWriter j(out);
  j.begin_array();
  EXPECT_THROW(j.value("k", std::int64_t{1}), std::invalid_argument);
}

TEST(JsonWriter, RejectsMismatchedScopes) {
  std::ostringstream out;
  io::JsonWriter j(out);
  j.begin_object();
  EXPECT_THROW(j.end_array(), std::invalid_argument);
}

TEST(JsonWriter, RejectsNonFiniteDoubles) {
  std::ostringstream out;
  io::JsonWriter j(out);
  j.begin_object();
  EXPECT_THROW(j.value("x", std::nan("")), std::invalid_argument);
}

TEST(JsonWriter, RejectsTwoTopLevelValues) {
  std::ostringstream out;
  io::JsonWriter j(out);
  j.begin_object().end_object();
  EXPECT_THROW(j.begin_object(), std::invalid_argument);
}

TEST(JsonWriter, StreamsChunkedEventObjects) {
  // The events endpoint writes one self-contained JSON object per HTTP
  // chunk: a fresh JsonWriter per page over a reused stringstream.  Each
  // chunk must be complete, independently parseable JSON, and the writer
  // must not leak state between pages.
  std::vector<std::string> chunks;
  std::ostringstream out;
  for (int page = 0; page < 3; ++page) {
    out.str("");
    {
      io::JsonWriter json(out);
      json.begin_object()
          .value("job_id", std::uint64_t{42})
          .value("cursor", static_cast<std::uint64_t>(page + 1) * 2)
          .begin_array("events");
      for (int i = 0; i < 2; ++i) {
        json.begin_object()
            .value("kind", i == 0 ? "new_best" : "tick")
            .value("elapsed_seconds", 0.25 * (page * 2 + i))
            .value("best_energy", std::int64_t{-17 - page})
            .value("work", std::uint64_t{1000})
            .end_object();
      }
      json.end_array().end_object();
      EXPECT_TRUE(json.complete());
    }
    chunks.push_back(out.str() + "\n");
  }

  ASSERT_EQ(chunks.size(), 3u);
  for (const std::string& chunk : chunks) {
    EXPECT_EQ(chunk.back(), '\n');  // JSONL framing for line readers
    EXPECT_EQ(chunk.find('\n'), chunk.size() - 1);  // one object per chunk
    EXPECT_EQ(chunk.front(), '{');
  }
  // Pages carry their own cursors — nothing bled across writer instances.
  EXPECT_NE(chunks[0].find("\"cursor\":2"), std::string::npos);
  EXPECT_NE(chunks[2].find("\"cursor\":6"), std::string::npos);
  EXPECT_NE(chunks[2].find("\"best_energy\":-19"), std::string::npos);
}

TEST(JsonWriter, EscapeIsSafeForEventPayloads) {
  // Error details spliced into streamed pages go through escape(); pin the
  // characters that would otherwise break chunk framing or JSON syntax.
  EXPECT_EQ(io::JsonWriter::escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(io::JsonWriter::escape("quote\" back\\"), "quote\\\" back\\\\");
  EXPECT_EQ(io::JsonWriter::escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(io::JsonWriter::escape("plain"), "plain");
}

/// A dabs-style report with 60 extras whose keys and values cover what the
/// writer's byte loop must get right: strings past the small-string size,
/// every named escape, every other control byte, NUL, DEL (passed
/// through), UTF-8 multibyte text (passed through byte for byte), an empty
/// value and runs of escapes with no plain byte between them.
SolveReport golden_report() {
  SolveReport r;
  r.solver = "dabs";
  r.best_energy = -33337;
  r.reached_target = true;
  r.tts_seconds = 0.015625;
  r.elapsed_seconds = 1.2345678901;
  r.flips = 4157401;
  r.batches = 2031;
  r.restarts = 17;
  auto& x = r.extras;
  for (int c = 0x01; c < 0x20; ++c) {
    char key[16];
    std::snprintf(key, sizeof key, "ctl_%02x", c);
    const std::string byte(1, static_cast<char>(c));
    x[key] = c % 2 == 0 ? "<" + byte + ">"
                        : "a control byte " + byte + " inside a long value";
  }
  x["quote"] = "say \"hi\"";
  x["backslash"] = "C:\\dabs\\runs\\k2000";
  x["newline"] = "line one\nline two";
  x["carriage_return"] = "a\r\nb";
  x["tab"] = "col\tcol\tcol";
  x["key \"quoted\" with \\ and \t tab"] = "v";
  x["a_key_well_past_the_small_string_buffer_size"] =
      std::string(300, 'p') + " then a quote \" and the end";
  x["del"] = "x\x7fy";
  x["del_key_\x7f"] = "\x7f";
  x["utf8_greek"] = "\xcf\x80 \xe2\x89\x88 3.14159, \xce\xa3 \xce\x94";
  x["utf8_cjk"] = "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e";
  x["utf8_emoji"] = "ok \xf0\x9f\x99\x82 done";
  x["\xd0\xba\xd0\xbb\xd1\x8e\xd1\x87"] = "\xd0\xb7\xd0\xbd\xd0\xb0\xd1\x87";
  x["empty"] = "";
  std::string escapes("\0", 1);
  for (int c = 0x01; c < 0x20; ++c) escapes += static_cast<char>(c);
  x["all_escapes"] = escapes + "\"\\\"\\";
  x["batch_threads"] = "2";
  x["first_finder_algo"] = "CyclicMin";
  x["first_finder_op"] = "One";
  x["freq_op_Xrossover"] = "0.5";
  x["pool_entropy"] = "0.68413";
  x["pool_mean_hamming"] = "99.3333";
  x["problem"] = "maxcut(n=200,m=2000,weights=pm1,seed=1)";
  x["model"] = "QUBO n=200 edges=2000 sparse backend=csr delta=int16";
  x["model_cache"] = "hit";
  x["fingerprint"] = "0123456789abcdef";
  x["job_id"] = "18446744073709551615";
  x["verified"] = "true";
  x["verify_message"] = "partition length mismatch";
  x["total_seconds"] = "0.000612";
  return r;
}

// The report's bytes as the writer wrote them before its byte loop was
// rewritten: any change to escaping, key order or number formatting shows.
constexpr char kGoldenReportJson[] =
    "{\"solver\":\"dabs\""
    ",\"best_energy\":-33337"
    ",\"reached_target\":true"
    ",\"tts_seconds\":0.015625"
    ",\"elapsed_seconds\":1.23457"
    ",\"flips\":4157401"
    ",\"batches\":2031"
    ",\"restarts\":17"
    ",\"cancelled\":false"
    ",\"extras\":{\"a_key_well_past_the_small_string_buffer_size\":\"pppppp"
    "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
    "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
    "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
    "pppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppppp"
    "pppppppppppppp then a quote \\\" and the end\""
    ",\"all_escapes\":\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\"
    "u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012"
    "\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c"
    "\\u001d\\u001e\\u001f\\\"\\\\\\\"\\\\\""
    ",\"backslash\":\"C:\\\\dabs\\\\runs\\\\k2000\""
    ",\"batch_threads\":\"2\""
    ",\"carriage_return\":\"a\\r\\nb\""
    ",\"ctl_01\":\"a control byte \\u0001 inside a long value\""
    ",\"ctl_02\":\"<\\u0002>\""
    ",\"ctl_03\":\"a control byte \\u0003 inside a long value\""
    ",\"ctl_04\":\"<\\u0004>\""
    ",\"ctl_05\":\"a control byte \\u0005 inside a long value\""
    ",\"ctl_06\":\"<\\u0006>\""
    ",\"ctl_07\":\"a control byte \\u0007 inside a long value\""
    ",\"ctl_08\":\"<\\u0008>\""
    ",\"ctl_09\":\"a control byte \\t inside a long value\""
    ",\"ctl_0a\":\"<\\n>\""
    ",\"ctl_0b\":\"a control byte \\u000b inside a long value\""
    ",\"ctl_0c\":\"<\\u000c>\""
    ",\"ctl_0d\":\"a control byte \\r inside a long value\""
    ",\"ctl_0e\":\"<\\u000e>\""
    ",\"ctl_0f\":\"a control byte \\u000f inside a long value\""
    ",\"ctl_10\":\"<\\u0010>\""
    ",\"ctl_11\":\"a control byte \\u0011 inside a long value\""
    ",\"ctl_12\":\"<\\u0012>\""
    ",\"ctl_13\":\"a control byte \\u0013 inside a long value\""
    ",\"ctl_14\":\"<\\u0014>\""
    ",\"ctl_15\":\"a control byte \\u0015 inside a long value\""
    ",\"ctl_16\":\"<\\u0016>\""
    ",\"ctl_17\":\"a control byte \\u0017 inside a long value\""
    ",\"ctl_18\":\"<\\u0018>\""
    ",\"ctl_19\":\"a control byte \\u0019 inside a long value\""
    ",\"ctl_1a\":\"<\\u001a>\""
    ",\"ctl_1b\":\"a control byte \\u001b inside a long value\""
    ",\"ctl_1c\":\"<\\u001c>\""
    ",\"ctl_1d\":\"a control byte \\u001d inside a long value\""
    ",\"ctl_1e\":\"<\\u001e>\""
    ",\"ctl_1f\":\"a control byte \\u001f inside a long value\""
    ",\"del\":\"x\177y\""
    ",\"del_key_\177\":\"\177\""
    ",\"empty\":\"\""
    ",\"fingerprint\":\"0123456789abcdef\""
    ",\"first_finder_algo\":\"CyclicMin\""
    ",\"first_finder_op\":\"One\""
    ",\"freq_op_Xrossover\":\"0.5\""
    ",\"job_id\":\"18446744073709551615\""
    ",\"key \\\"quoted\\\" with \\\\ and \\t tab\":\"v\""
    ",\"model\":\"QUBO n=200 edges=2000 sparse backend=csr delta=int16\""
    ",\"model_cache\":\"hit\""
    ",\"newline\":\"line one\\nline two\""
    ",\"pool_entropy\":\"0.68413\""
    ",\"pool_mean_hamming\":\"99.3333\""
    ",\"problem\":\"maxcut(n=200,m=2000,weights=pm1,seed=1)\""
    ",\"quote\":\"say \\\"hi\\\"\""
    ",\"tab\":\"col\\tcol\\tcol\""
    ",\"total_seconds\":\"0.000612\""
    ",\"utf8_cjk\":\"\346\227\245\346\234\254\350\252\236\""
    ",\"utf8_emoji\":\"ok \360\237\231\202 done\""
    ",\"utf8_greek\":\"\317\200 \342\211\210 3.14159, \316\243 \316\224\""
    ",\"verified\":\"true\""
    ",\"verify_message\":\"partition length mismatch\""
    ",\"\320\272\320\273\321\216\321\207\":\"\320\267\320\275\320\260\321"
    "\207\"}}";
TEST(JsonWriter, ReportBytesGolden) {
  const SolveReport r = golden_report();
  ASSERT_EQ(r.extras.size(), 60u);
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    r.write_json(json);
  }
  EXPECT_EQ(out.str(), kGoldenReportJson);
}

// escape() and the writer share one routine: a key or value written in
// place is the same bytes escape() returns, quoted.
TEST(JsonWriter, EscapeMatchesTheInPlacePath) {
  for (const auto& [k, v] : golden_report().extras) {
    SCOPED_TRACE(k);
    std::ostringstream out;
    {
      io::JsonWriter json(out);
      json.begin_object().value(k, v).begin_array("a").element(v);
    }
    EXPECT_EQ(out.str(), "{\"" + io::JsonWriter::escape(k) + "\":\"" +
                             io::JsonWriter::escape(v) + "\",\"a\":[\"" +
                             io::JsonWriter::escape(v) + "\"]}");
  }
}

}  // namespace
}  // namespace dabs
