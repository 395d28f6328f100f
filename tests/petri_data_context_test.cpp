// Unit tests for the interpreted-net variable store.
#include "petri/data_context.h"

#include <gtest/gtest.h>

namespace pnut {
namespace {

TEST(DataContext, ScalarRoundTrip) {
  DataContext d;
  d.set("x", 42);
  EXPECT_TRUE(d.has("x"));
  EXPECT_EQ(d.get("x"), 42);
  d.set("x", -7);
  EXPECT_EQ(d.get("x"), -7);
}

TEST(DataContext, UnknownScalarThrows) {
  DataContext d;
  EXPECT_FALSE(d.has("missing"));
  EXPECT_THROW((void)d.get("missing"), std::out_of_range);
}

TEST(DataContext, TableRoundTrip) {
  DataContext d;
  d.set_table("operands", {0, 0, 1, 2});
  EXPECT_TRUE(d.has_table("operands"));
  EXPECT_EQ(d.table_size("operands"), 4u);
  EXPECT_EQ(d.get_table("operands", 0), 0);
  EXPECT_EQ(d.get_table("operands", 3), 2);
}

TEST(DataContext, TableEntryWrite) {
  DataContext d;
  d.set_table("t", {1, 2, 3});
  d.set_table_entry("t", 1, 99);
  EXPECT_EQ(d.get_table("t", 1), 99);
}

TEST(DataContext, TableBoundsChecked) {
  DataContext d;
  d.set_table("t", {1, 2, 3});
  EXPECT_THROW((void)d.get_table("t", 3), std::out_of_range);
  EXPECT_THROW((void)d.get_table("t", -1), std::out_of_range);
  EXPECT_THROW(d.set_table_entry("t", 3, 0), std::out_of_range);
  EXPECT_THROW(d.set_table_entry("missing", 0, 0), std::out_of_range);
}

TEST(DataContext, UnknownTableThrows) {
  DataContext d;
  EXPECT_THROW((void)d.get_table("missing", 0), std::out_of_range);
  EXPECT_THROW((void)d.table_size("missing"), std::out_of_range);
}

TEST(DataContext, ScalarsAndTablesAreSeparateNamespaces) {
  DataContext d;
  d.set("x", 1);
  d.set_table("x", {5});
  EXPECT_EQ(d.get("x"), 1);
  EXPECT_EQ(d.get_table("x", 0), 5);
}

TEST(DataContext, EqualityComparesContent) {
  DataContext a;
  DataContext b;
  a.set("x", 1);
  b.set("x", 1);
  EXPECT_EQ(a, b);
  b.set("x", 2);
  EXPECT_NE(a, b);
  b.set("x", 1);
  b.set_table("t", {1});
  EXPECT_NE(a, b);
}

TEST(DataContext, ClearRemovesEverything) {
  DataContext d;
  d.set("x", 1);
  d.set_table("t", {1});
  d.clear();
  EXPECT_FALSE(d.has("x"));
  EXPECT_FALSE(d.has_table("t"));
  EXPECT_EQ(d, DataContext{});
}

TEST(DataContext, ToStringIsDeterministicAndSorted) {
  DataContext d;
  d.set("zeta", 3);
  d.set("alpha", 1);
  d.set_table("ops", {1, 2});
  EXPECT_EQ(d.to_string(), "alpha=1 zeta=3 ops=[1,2]");
}

TEST(DataContext, EmptyToString) {
  DataContext d;
  EXPECT_EQ(d.to_string(), "");
}

}  // namespace
}  // namespace pnut
