#include "relational/table.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "relational/catalog.h"
#include "relational/schema.h"
#include "tests/test_util.h"

namespace ppdb::rel {
namespace {

Schema TwoColumnSchema() {
  return Schema::Create({{"age", DataType::kInt64, "years"},
                         {"weight", DataType::kDouble, "kg"}})
      .value();
}

// --- Schema -----------------------------------------------------------------

TEST(SchemaTest, CreateAndLookup) {
  Schema schema = TwoColumnSchema();
  EXPECT_EQ(schema.num_attributes(), 2);
  ASSERT_OK_AND_ASSIGN(int j, schema.IndexOf("weight"));
  EXPECT_EQ(j, 1);
  EXPECT_TRUE(schema.Contains("age"));
  EXPECT_FALSE(schema.Contains("height"));
  EXPECT_TRUE(schema.IndexOf("height").status().IsNotFound());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto r = Schema::Create({{"a", DataType::kInt64, ""},
                           {"a", DataType::kDouble, ""}});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(SchemaTest, RejectsInvalidNames) {
  EXPECT_TRUE(Schema::Create({{"9bad", DataType::kInt64, ""}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Schema::Create({{"", DataType::kInt64, ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, RejectsNullTypedAttributes) {
  EXPECT_TRUE(Schema::Create({{"a", DataType::kNull, ""}})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, ValidateRowChecksArityAndTypes) {
  Schema schema = TwoColumnSchema();
  EXPECT_OK(schema.ValidateRow({Value::Int64(30), Value::Double(72.5)}));
  // Nulls are allowed anywhere.
  EXPECT_OK(schema.ValidateRow({Value::Null(), Value::Null()}));
  EXPECT_TRUE(schema.ValidateRow({Value::Int64(30)})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      schema.ValidateRow({Value::Double(30.0), Value::Double(72.5)})
          .IsInvalidArgument());
}

TEST(SchemaTest, ToStringListsAttributes) {
  EXPECT_EQ(TwoColumnSchema().ToString(), "(age: int64, weight: double)");
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, InsertAndGet) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(1, {Value::Int64(34), Value::Double(81.0)}));
  ASSERT_OK(t.Insert(2, {Value::Int64(28), Value::Double(64.2)}));
  EXPECT_EQ(t.num_rows(), 2);
  ASSERT_OK_AND_ASSIGN(Row row, t.GetRow(2));
  EXPECT_EQ(row.provider, 2);
  EXPECT_EQ(row.values[0], Value::Int64(28));
}

TEST(TableTest, RejectsInvalidName) {
  EXPECT_TRUE(
      Table::Create("bad name", TwoColumnSchema()).status().IsInvalidArgument());
}

TEST(TableTest, OneRowPerProvider) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(1, {Value::Int64(34), Value::Double(81.0)}));
  // Assumption 5: a second tuple for the same provider is rejected.
  EXPECT_TRUE(t.Insert(1, {Value::Int64(35), Value::Double(80.0)})
                  .IsAlreadyExists());
}

TEST(TableTest, InsertValidatesSchema) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  EXPECT_TRUE(t.Insert(1, {Value::Int64(34)}).IsInvalidArgument());
  EXPECT_TRUE(
      t.Insert(1, {Value::String("x"), Value::Double(1.0)})
          .IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 0);
}

TEST(TableTest, GetCellByName) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(5, {Value::Int64(40), Value::Double(90.0)}));
  ASSERT_OK_AND_ASSIGN(Value v, t.GetCell(5, "weight"));
  EXPECT_EQ(v, Value::Double(90.0));
  EXPECT_TRUE(t.GetCell(5, "height").status().IsNotFound());
  EXPECT_TRUE(t.GetCell(6, "weight").status().IsNotFound());
}

TEST(TableTest, UpdateCell) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(1, {Value::Int64(34), Value::Double(81.0)}));
  ASSERT_OK(t.UpdateCell(1, 1, Value::Double(79.5)));
  ASSERT_OK_AND_ASSIGN(Value v, t.GetCell(1, "weight"));
  EXPECT_EQ(v, Value::Double(79.5));
  // Nulling a cell (suppression) is allowed.
  ASSERT_OK(t.UpdateCell(1, 1, Value::Null()));
  ASSERT_OK_AND_ASSIGN(Value n, t.GetCell(1, "weight"));
  EXPECT_TRUE(n.is_null());
}

TEST(TableTest, UpdateCellValidates) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(1, {Value::Int64(34), Value::Double(81.0)}));
  EXPECT_TRUE(t.UpdateCell(1, 1, Value::String("x")).IsInvalidArgument());
  EXPECT_TRUE(t.UpdateCell(1, 9, Value::Null()).IsInvalidArgument());
  EXPECT_TRUE(t.UpdateCell(2, 0, Value::Null()).IsNotFound());
}

TEST(TableTest, EraseProviderCompactsAndReindexes) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_OK(t.Insert(i, {Value::Int64(i * 10), Value::Double(1.0)}));
  }
  ASSERT_OK(t.EraseProvider(2));
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_FALSE(t.ContainsProvider(2));
  // Remaining providers still addressable after reindex.
  ASSERT_OK_AND_ASSIGN(Value v, t.GetCell(4, "age"));
  EXPECT_EQ(v, Value::Int64(40));
  EXPECT_TRUE(t.EraseProvider(2).IsNotFound());
}

TEST(TableTest, EraseProvidersBatch) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_OK(t.Insert(i, {Value::Int64(i), Value::Double(1.0)}));
  }
  // Mix of present and absent ids; absent ones are ignored.
  EXPECT_EQ(t.EraseProviders({2, 4, 99}), 2);
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_FALSE(t.ContainsProvider(2));
  EXPECT_TRUE(t.ContainsProvider(3));
  // Index still consistent after the batch compaction.
  ASSERT_OK_AND_ASSIGN(Value v, t.GetCell(6, "age"));
  EXPECT_EQ(v, Value::Int64(6));
  EXPECT_EQ(t.EraseProviders({}), 0);
}

TEST(TableTest, ProviderIdsInInsertionOrder) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  ASSERT_OK(t.Insert(3, {Value::Null(), Value::Null()}));
  ASSERT_OK(t.Insert(1, {Value::Null(), Value::Null()}));
  EXPECT_EQ(t.ProviderIds(), (std::vector<ProviderId>{3, 1}));
}

TEST(TableTest, ToStringTruncates) {
  ASSERT_OK_AND_ASSIGN(Table t, Table::Create("people", TwoColumnSchema()));
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_OK(t.Insert(i, {Value::Int64(i), Value::Double(1.0)}));
  }
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("3 more"), std::string::npos);
}

// --- Catalog ------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(Table* t,
                       catalog.CreateTable("people", TwoColumnSchema()));
  ASSERT_NE(t, nullptr);
  ASSERT_OK(t->Insert(1, {Value::Int64(30), Value::Double(70.0)}));
  ASSERT_OK_AND_ASSIGN(Table* again, catalog.GetTable("people"));
  EXPECT_EQ(again->num_rows(), 1);
  EXPECT_TRUE(catalog.Contains("people"));
  ASSERT_OK(catalog.DropTable("people"));
  EXPECT_FALSE(catalog.Contains("people"));
  EXPECT_TRUE(catalog.GetTable("people").status().IsNotFound());
  EXPECT_TRUE(catalog.DropTable("people").IsNotFound());
}

TEST(CatalogTest, RejectsDuplicateNames) {
  Catalog catalog;
  ASSERT_OK(catalog.CreateTable("t", TwoColumnSchema()).status());
  EXPECT_TRUE(
      catalog.CreateTable("t", TwoColumnSchema()).status().IsAlreadyExists());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_OK(catalog.CreateTable("zeta", TwoColumnSchema()).status());
  ASSERT_OK(catalog.CreateTable("alpha", TwoColumnSchema()).status());
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(catalog.num_tables(), 2);
}

TEST(CatalogTest, HandlesStayValidAfterOtherInsertions) {
  Catalog catalog;
  ASSERT_OK_AND_ASSIGN(Table* first,
                       catalog.CreateTable("first", TwoColumnSchema()));
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(
        catalog
            .CreateTable(StrCat({"t", std::to_string(i)}), TwoColumnSchema())
            .status());
  }
  ASSERT_OK(first->Insert(1, {Value::Int64(1), Value::Double(1.0)}));
  ASSERT_OK_AND_ASSIGN(Table* found, catalog.GetTable("first"));
  EXPECT_EQ(found, first);
}

}  // namespace
}  // namespace ppdb::rel
