// Tests for the BLIF-MV parser, writer, and flattener.
#include <gtest/gtest.h>

#include "blifmv/blifmv.hpp"

namespace hsis::blifmv {
namespace {

const char* kCounter = R"(
# a 4-valued counter
.model counter
.mv s, ns 4
.table s ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s
0
.end
)";

TEST(BlifmvParse, BasicModel) {
  Design d = parse(kCounter);
  ASSERT_EQ(d.models.size(), 1u);
  const Model& m = d.root();
  EXPECT_EQ(m.name, "counter");
  ASSERT_EQ(m.tables.size(), 1u);
  EXPECT_EQ(m.tables[0].inputs, std::vector<std::string>{"s"});
  EXPECT_EQ(m.tables[0].output, "ns");
  EXPECT_EQ(m.tables[0].rows.size(), 4u);
  ASSERT_EQ(m.latches.size(), 1u);
  EXPECT_EQ(m.latches[0].input, "ns");
  EXPECT_EQ(m.latches[0].output, "s");
  EXPECT_EQ(m.latches[0].resetValues, std::vector<std::string>{"0"});
  ASSERT_NE(m.declOf("s"), nullptr);
  EXPECT_EQ(m.declOf("s")->domain, 4u);
  EXPECT_EQ(m.declOf("unknown"), nullptr);
}

TEST(BlifmvParse, EntryKinds) {
  Design d = parse(R"(
.model kinds
.mv a 4
.table a b out
- 1 (0,1)
!2 - =a
.default 0
.end
)");
  const Table& t = d.root().tables[0];
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0].entries[0].kind, RowEntry::Kind::Any);
  EXPECT_EQ(t.rows[0].entries[1].kind, RowEntry::Kind::Values);
  EXPECT_EQ(t.rows[0].entries[2].kind, RowEntry::Kind::Values);
  EXPECT_EQ(t.rows[0].entries[2].values, (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(t.rows[1].entries[0].kind, RowEntry::Kind::Complement);
  EXPECT_EQ(t.rows[1].entries[0].values, std::vector<std::string>{"2"});
  EXPECT_EQ(t.rows[1].entries[2].kind, RowEntry::Kind::Equal);
  EXPECT_EQ(t.rows[1].entries[2].eqVar, "a");
  EXPECT_EQ(t.defaultValue, std::optional<std::string>("0"));
}

TEST(BlifmvParse, SymbolicValues) {
  Design d = parse(R"(
.model sym
.mv st 3 red green blue
.table st nx
red green
green blue
blue red
.mv nx 3 red green blue
.latch nx st
.reset st
red
.end
)");
  const Model& m = d.root();
  EXPECT_EQ(m.declOf("st")->valueNames,
            (std::vector<std::string>{"red", "green", "blue"}));
  EXPECT_EQ(m.latches[0].resetValues, std::vector<std::string>{"red"});
}

TEST(BlifmvParse, Continuations) {
  Design d = parse(".model c\n.inputs a \\\nb\n.end\n");
  EXPECT_EQ(d.root().inputs, (std::vector<std::string>{"a", "b"}));
}

TEST(BlifmvParse, Errors) {
  EXPECT_THROW(parse(""), ParseException);
  EXPECT_THROW(parse(".inputs a\n"), ParseException);           // before .model
  EXPECT_THROW(parse(".model m\n.table a b\n0\n.end\n"), ParseException);  // row width
  EXPECT_THROW(parse(".model m\n.reset q\n.end\n"), ParseException);  // unknown latch
  EXPECT_THROW(parse(".model m\n.bogus x\n.end\n"), ParseException);
  EXPECT_THROW(parse(".model m\n.mv x\n.end\n"), ParseException);
  EXPECT_THROW(parse(".model m\n0 1\n.end\n"), ParseException);  // stray row
  EXPECT_THROW(parse(".model m\n.table x\n"), ParseException);  // no .end
  EXPECT_THROW(parse(".model a\n.end\n.model b\n"), ParseException);  // b open
  try {
    parse(".model m\n.table a b\n0\n.end\n");
    FAIL();
  } catch (const ParseException& e) {
    EXPECT_EQ(e.error().line, 3);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(BlifmvWrite, RoundTrip) {
  Design d1 = parse(kCounter);
  std::string text = write(d1);
  Design d2 = parse(text);
  EXPECT_EQ(write(d2), text);  // fixpoint after one round
  EXPECT_EQ(d2.root().tables[0].rows.size(), 4u);
  EXPECT_EQ(d2.root().latches[0].resetValues, std::vector<std::string>{"0"});
}

TEST(BlifmvWrite, LineCount) {
  Design d = parse(kCounter);
  // .model + 2x .mv (one per signal) + .table + 4 rows + .latch + .reset
  // + value + .end = 12
  EXPECT_EQ(lineCount(d), 12u);
}

const char* kHier = R"(
.model top
.subckt cell u1 out=a
.subckt cell u2 out=b
.table a b both
1 1 1
.default 0
.end
.model cell
.outputs out
.table out
(0,1)
.end
)";

TEST(BlifmvFlatten, Hierarchy) {
  Design d = parse(kHier);
  Model flat = flatten(d);
  EXPECT_TRUE(flat.subckts.empty());
  // one table per instance plus the top-level one
  EXPECT_EQ(flat.tables.size(), 3u);
  // instance-internal outputs connected to actuals keep the actual name
  bool sawA = false, sawB = false;
  for (const Table& t : flat.tables) {
    if (t.output == "a") sawA = true;
    if (t.output == "b") sawB = true;
  }
  EXPECT_TRUE(sawA);
  EXPECT_TRUE(sawB);
}

TEST(BlifmvFlatten, PrefixesInternalSignals) {
  Design d = parse(R"(
.model top
.subckt sub u1 o=x
.end
.model sub
.outputs o
.table w
1
.table w o
- =w
.end
)");
  Model flat = flatten(d);
  bool sawPrefixed = false;
  for (const Table& t : flat.tables)
    if (t.output == "u1.w") sawPrefixed = true;
  EXPECT_TRUE(sawPrefixed);
}

TEST(BlifmvFlatten, Errors) {
  // unknown model
  EXPECT_THROW(flatten(parse(".model t\n.subckt nope u1 a=b\n.end\n")),
               std::runtime_error);
  // unknown port
  EXPECT_THROW(flatten(parse(R"(
.model t
.subckt sub u1 bogus=x
.end
.model sub
.outputs o
.table o
1
.end
)")),
               std::runtime_error);
  // unconnected input
  EXPECT_THROW(flatten(parse(R"(
.model t
.subckt sub u1 o=x
.end
.model sub
.inputs i
.outputs o
.table i o
- =i
.end
)")),
               std::runtime_error);
  // recursive instantiation
  EXPECT_THROW(flatten(parse(R"(
.model a
.subckt a u1
.end
)")),
               std::runtime_error);
  // domain mismatch across a connection (both ends declared)
  EXPECT_THROW(flatten(parse(R"(
.model t
.mv x 4
.subckt sub u1 o=x
.end
.model sub
.outputs o
.mv o 2
.table o
1
.end
)")),
               std::runtime_error);
}

TEST(BlifmvFlatten, MergesValueNames) {
  Design d = parse(R"(
.model t
.mv x 3
.subckt sub u1 o=x
.end
.model sub
.outputs o
.mv o 3 lo mid hi
.table o
mid
.end
)");
  Model flat = flatten(d);
  ASSERT_NE(flat.declOf("x"), nullptr);
  EXPECT_EQ(flat.declOf("x")->valueNames,
            (std::vector<std::string>{"lo", "mid", "hi"}));
}

}  // namespace
}  // namespace hsis::blifmv
