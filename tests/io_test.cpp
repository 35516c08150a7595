// Tests for the IO module: Gset, QAPLIB, QUBO text formats, results table.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/gset.hpp"
#include "io/qaplib.hpp"
#include "io/qubo_text.hpp"
#include "io/results_writer.hpp"
#include "problems/maxcut.hpp"
#include "problems/qap.hpp"
#include "problems/standard_problems.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

TEST(GsetIo, ParsesOneBasedIndices) {
  std::istringstream in("3 2\n1 2 5\n2 3 -1\n");
  const auto inst = io::read_gset(in, "test");
  EXPECT_EQ(inst.n, 3u);
  ASSERT_EQ(inst.edges.size(), 2u);
  EXPECT_EQ(inst.edges[0].u, 0u);
  EXPECT_EQ(inst.edges[0].v, 1u);
  EXPECT_EQ(inst.edges[0].w, 5);
  EXPECT_EQ(inst.edges[1].w, -1);
}

TEST(GsetIo, RoundTripPreservesInstance) {
  const auto inst = problems::make_random_maxcut(
      40, 100, problems::EdgeWeights::kPlusMinusOne, 4, "rt");
  std::stringstream buf;
  io::write_gset(buf, inst);
  const auto back = io::read_gset(buf, "rt");
  ASSERT_EQ(back.n, inst.n);
  ASSERT_EQ(back.edges.size(), inst.edges.size());
  for (std::size_t i = 0; i < inst.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i].u, inst.edges[i].u);
    EXPECT_EQ(back.edges[i].v, inst.edges[i].v);
    EXPECT_EQ(back.edges[i].w, inst.edges[i].w);
  }
}

TEST(GsetIo, SignBitCompleteGraphRoundTrips) {
  // A complete graph stored as sign bits is written edge by edge and read
  // back as an edge list of the same graph.
  const auto inst = problems::make_complete_maxcut(20, 9, "K20");
  ASSERT_TRUE(inst.edges.empty());
  std::stringstream buf;
  io::write_gset(buf, inst);
  const auto back = io::read_gset(buf, "K20");
  ASSERT_EQ(back.n, 20u);
  EXPECT_TRUE(back.signs.empty());
  EXPECT_EQ(back.edges.size(), 190u);
  EXPECT_EQ(testing::model_digest(problems::maxcut_to_qubo(back)),
            testing::model_digest(problems::maxcut_to_qubo(inst)));
  Rng rng(3);
  for (int p = 0; p < 10; ++p) {
    const BitVector x = testing::random_solution(20, rng);
    EXPECT_EQ(back.cut_value(x), inst.cut_value(x));
  }
  const problems::MaxCutProblem problem(inst, QuboBackend::kAuto, "k20");
  EXPECT_NE(problem.describe().find("20 nodes, 190 edges"), std::string::npos)
      << problem.describe();
}

TEST(GsetIo, RejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW((void)io::read_gset(empty), std::invalid_argument);
  std::istringstream truncated("3 2\n1 2 5\n");
  EXPECT_THROW((void)io::read_gset(truncated), std::invalid_argument);
  std::istringstream selfloop("3 1\n2 2 1\n");
  EXPECT_THROW((void)io::read_gset(selfloop), std::invalid_argument);
  std::istringstream outofrange("3 1\n1 4 1\n");
  EXPECT_THROW((void)io::read_gset(outofrange), std::invalid_argument);
}

TEST(GsetIo, FileRoundTrip) {
  const auto inst = problems::make_random_maxcut(
      10, 20, problems::EdgeWeights::kPlusOne, 5, "file");
  const std::string path = ::testing::TempDir() + "/dabs_gset_test.txt";
  io::write_gset_file(path, inst);
  const auto back = io::read_gset_file(path);
  EXPECT_EQ(back.n, inst.n);
  EXPECT_EQ(back.edges.size(), inst.edges.size());
  EXPECT_EQ(back.name, "dabs_gset_test.txt");
}

TEST(QaplibIo, ParsesFlowThenDistance) {
  std::istringstream in(
      "2\n"
      "0 3\n3 0\n"
      "0 7\n7 0\n");
  const auto inst = io::read_qaplib(in, "t2");
  EXPECT_EQ(inst.n, 2u);
  EXPECT_EQ(inst.l(0, 1), 3);
  EXPECT_EQ(inst.d(0, 1), 7);
}

TEST(QaplibIo, RoundTripPreservesInstance) {
  const auto inst = problems::make_uniform_qap(6, 20, 8, "rt");
  std::stringstream buf;
  io::write_qaplib(buf, inst);
  const auto back = io::read_qaplib(buf, "rt");
  EXPECT_EQ(back.n, inst.n);
  EXPECT_EQ(back.flow, inst.flow);
  EXPECT_EQ(back.dist, inst.dist);
}

TEST(QaplibIo, RejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW((void)io::read_qaplib(empty), std::invalid_argument);
  std::istringstream truncated("3\n1 2 3\n");
  EXPECT_THROW((void)io::read_qaplib(truncated), std::invalid_argument);
}

TEST(QuboTextIo, RoundTripPreservesModel) {
  const QuboModel m = testing::random_model(30, 0.3, 9, 600);
  std::stringstream buf;
  io::write_qubo(buf, m);
  const QuboModel back = io::read_qubo(buf);
  ASSERT_EQ(back.size(), m.size());
  ASSERT_EQ(back.edge_count(), m.edge_count());
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const BitVector x = testing::random_solution(30, rng);
    EXPECT_EQ(back.energy(x), m.energy(x));
  }
}

TEST(QuboTextIo, SupportsCommentsAndBlankLines) {
  std::istringstream in(
      "# a comment\n"
      "qubo 3 1\n"
      "\n"
      "d 0 -4   # diagonal\n"
      "q 0 2 7\n");
  const QuboModel m = io::read_qubo(in);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.diag(0), -4);
  EXPECT_EQ(m.weight(0, 2), 7);
}

TEST(QuboTextIo, RejectsMalformedInput) {
  std::istringstream noheader("d 0 1\n");
  EXPECT_THROW((void)io::read_qubo(noheader), std::invalid_argument);
  std::istringstream badcount("qubo 3 2\nq 0 1 1\n");
  EXPECT_THROW((void)io::read_qubo(badcount), std::invalid_argument);
  std::istringstream badtag("qubo 2 0\nz 0 1\n");
  EXPECT_THROW((void)io::read_qubo(badtag), std::invalid_argument);
}

TEST(ResultsTable, PrintsAlignedColumnsAndTitle) {
  io::ResultsTable t("Table II");
  t.columns({"solver", "energy", "tts"});
  t.add_row({"DABS", "-33,337", "0.694s"});
  t.add_row({"Gurobi", "-33,241", "3600s"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("Table II"), std::string::npos);
  EXPECT_NE(s.find("DABS"), std::string::npos);
  EXPECT_NE(s.find("-33,241"), std::string::npos);
}

TEST(ResultsTable, RejectsMismatchedRowWidth) {
  io::ResultsTable t("x");
  t.columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(ResultsTable, WritesTsv) {
  io::ResultsTable t("x");
  t.columns({"a", "b"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/dabs_results_test.tsv";
  t.write_tsv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a\tb");
  std::getline(in, line);
  EXPECT_EQ(line, "1\t2");
}

TEST(Formatting, EnergyGroupsThousands) {
  EXPECT_EQ(io::fmt_energy(-33337), "-33,337");
  EXPECT_EQ(io::fmt_energy(0), "0");
  EXPECT_EQ(io::fmt_energy(1234567), "1,234,567");
  EXPECT_EQ(io::fmt_energy(-12), "-12");
}

TEST(Formatting, SecondsAndPercent) {
  EXPECT_EQ(io::fmt_seconds(0.694), "0.694s");
  EXPECT_EQ(io::fmt_percent(0.992), "99.2%");
  EXPECT_EQ(io::fmt_percent(0.005, 1), "0.5%");
}

}  // namespace
}  // namespace dabs
