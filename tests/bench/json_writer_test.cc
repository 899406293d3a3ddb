/**
 * @file
 * Exact-text tests of the BENCH report writer (bench/json.hh):
 * nesting, commas, one-line containers and fixed-precision numbers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/json.hh"

namespace hmtx::bench
{
namespace
{

TEST(JsonWriter, NestingCommasAndIndentation)
{
    JsonWriter w;
    w.obj()
        .u("a", 1)
        .obj("b")
        .str("s", "x")
        .arr("l")
        .obj(nullptr, true)
        .u("k", 2)
        .flag("t", true)
        .end()
        .obj(nullptr, true)
        .end()
        .end()
        .end()
        .flag("f", false)
        .end();
    EXPECT_EQ(w.text(),
              "{\n"
              " \"a\": 1,\n"
              " \"b\": {\n"
              "  \"s\": \"x\",\n"
              "  \"l\": [\n"
              "   {\"k\": 2, \"t\": true},\n"
              "   {}\n"
              "  ]\n"
              " },\n"
              " \"f\": false\n"
              "}\n");
}

TEST(JsonWriter, OneLineContainersNestOnOneLine)
{
    JsonWriter w;
    w.obj()
        .obj("c", true)
        .arr("xs")
        .u(nullptr, 1)
        .u(nullptr, 2)
        .end()
        .obj("o")
        .u("z", 0)
        .end()
        .end()
        .arr("empty")
        .end()
        .end();
    EXPECT_EQ(w.text(),
              "{\n"
              " \"c\": {\"xs\": [1, 2], \"o\": {\"z\": 0}},\n"
              " \"empty\": []\n"
              "}\n");
}

TEST(JsonWriter, FixedPrecisionMatchesPrintf)
{
    JsonWriter w;
    w.obj(nullptr, true)
        .num("p0", 436821.4, 0)
        .num("p1", 375.66, 1)
        .num("p2", 1.0, 2)
        .num("p3", 1.2264, 3)
        .num("p4", 0.0, 4)
        .num("neg", -0.125, 2)
        .u("big", 18446744073709551615ull)
        .end();
    EXPECT_EQ(w.text(),
              "{\"p0\": 436821, \"p1\": 375.7, \"p2\": 1.00, "
              "\"p3\": 1.226, \"p4\": 0.0000, \"neg\": -0.12, "
              "\"big\": 18446744073709551615}\n");
}

struct Counters
{
    std::uint64_t x = 0;
    std::uint64_t y = 0;

    static constexpr StatField<Counters> kFields[] = {
        {"c.y", &Counters::y, "second"},
        {"c.x", &Counters::x, "first"},
    };
};

TEST(JsonWriter, FieldsFollowTheTableOrder)
{
    Counters c;
    c.x = 1;
    c.y = 2;
    JsonWriter w;
    w.obj(nullptr, true).fields(c).end();
    EXPECT_EQ(w.text(), "{\"c.y\": 2, \"c.x\": 1}\n");
}

TEST(JsonWriter, SaveWritesTheText)
{
    JsonWriter w;
    w.obj().u("n", 3).end();
    const std::string path =
        ::testing::TempDir() + "json_writer_test.json";
    ASSERT_TRUE(w.save(path.c_str()));
    std::ifstream in(path);
    std::stringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), w.text());
    std::remove(path.c_str());
    EXPECT_FALSE(w.save("/nonexistent-dir/x.json"));
}

} // namespace
} // namespace hmtx::bench
