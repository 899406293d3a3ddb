/**
 * @file
 * Replay-format hardening (DESIGN.md §10). Witness files get
 * hand-edited during bug triage; a typo must fail parse() loudly, not
 * silently replay a different schedule. These tests pin the explicit
 * error paths — duplicate headers, out-of-range encodings, truncated
 * or over-long op lines — and the round-trip property that makes the
 * corpus stable: serialize(parse(x)) == x for everything serialize()
 * can emit, including the `program` branching extension (§14).
 */

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "check/schedule.hh"

namespace
{

using namespace hmtx;
using namespace hmtx::check;

std::string
parseErr(const std::string& text)
{
    Schedule s;
    std::string err;
    EXPECT_FALSE(parse(text, s, err)) << "parsed: " << text;
    EXPECT_FALSE(err.empty());
    return err;
}

Schedule
parseOk(const std::string& text)
{
    Schedule s;
    std::string err;
    EXPECT_TRUE(parse(text, s, err)) << err;
    return s;
}

/** A minimal valid file, assembled line by line so tests can splice
 *  mutations anywhere. */
std::string
minimalText(const std::string& extraHeader = "",
            const std::string& opLines = "L 0 1 8 0x40000 0x0\n")
{
    return "hmtx-fuzz-schedule v1\n"
           "cores 2\n"
           "l1kb 1\n"
           "l1assoc 2\n"
           "l2kb 8\n"
           "l2assoc 8\n"
           "vidbits 6\n"
           "unbounded 0\n"
           "sla 1\n"
           "btx 2 0\n"
           "limitedk 4\n" +
        extraHeader + opLines + "end\n";
}

TEST(ScheduleParse, RoundTripFuzzSchedules)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        Schedule s = generate(seed, 100);
        std::string text = serialize(s);
        Schedule back = parseOk(text);
        EXPECT_EQ(serialize(back), text) << "seed " << seed;
        EXPECT_EQ(back.omittedKnobs, 0u);
        EXPECT_FALSE(back.isProgram);
    }
}

TEST(ScheduleParse, RoundTripPrograms)
{
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        Schedule s = generateProgram(seed, 2 + seed % 2, 6);
        std::string text = serialize(s);
        Schedule back = parseOk(text);
        EXPECT_EQ(serialize(back), text) << "seed " << seed;
        EXPECT_TRUE(back.isProgram);
    }
}

TEST(ScheduleParse, DuplicateHeaderLine)
{
    EXPECT_NE(parseErr(minimalText("cores 2\n"))
                  .find("duplicate 'cores'"),
              std::string::npos);
    EXPECT_NE(parseErr(minimalText("limitedk 2\n"))
                  .find("duplicate 'limitedk'"),
              std::string::npos);
}

TEST(ScheduleParse, ConfigAfterFirstOp)
{
    std::string err = parseErr(
        minimalText("", "L 0 1 8 0x40000 0x0\nvidbits 4\n"));
    EXPECT_NE(err.find("after the first op"), std::string::npos);
}

TEST(ScheduleParse, OutOfRangeEncodings)
{
    auto swap = [&](const std::string& from, const std::string& to) {
        std::string t = minimalText();
        t.replace(t.find(from), from.size(), to);
        return parseErr(t);
    };
    EXPECT_NE(swap("cores 2", "cores 0").find("cores out of range"),
              std::string::npos);
    EXPECT_NE(swap("cores 2", "cores 65").find("cores out of range"),
              std::string::npos);
    EXPECT_NE(swap("vidbits 6", "vidbits 1").find("vidbits"),
              std::string::npos);
    EXPECT_NE(swap("unbounded 0", "unbounded 2").find("unbounded"),
              std::string::npos);
    EXPECT_NE(swap("btx 2 0", "btx 0 0").find("retries"),
              std::string::npos);
    EXPECT_NE(swap("btx 2 0", "btx 3 2").find("threshold"),
              std::string::npos);
    EXPECT_NE(swap("limitedk 4", "limitedk 0").find("limitedk"),
              std::string::npos);
}

TEST(ScheduleParse, TruncatedOpLine)
{
    std::string err =
        parseErr(minimalText("", "L 0 1 8 0x40000\n"));
    EXPECT_NE(err.find("truncated or malformed op line"),
              std::string::npos);
    EXPECT_NE(parseErr(minimalText("", "S 1\n"))
                  .find("truncated or malformed"),
              std::string::npos);
}

TEST(ScheduleParse, TrailingFields)
{
    EXPECT_NE(parseErr(minimalText("", "L 0 1 8 0x40000 0x0 0x9\n"))
                  .find("trailing fields"),
              std::string::npos);
    std::string t = minimalText();
    t.replace(t.find("cores 2"), 7, "cores 2 2");
    EXPECT_NE(parseErr(t).find("trailing fields"), std::string::npos);
}

TEST(ScheduleParse, OpRangeChecks)
{
    EXPECT_NE(parseErr(minimalText("", "L 300 1 8 0x40000 0x0\n"))
                  .find("core out of range"),
              std::string::npos);
    EXPECT_NE(parseErr(minimalText("", "L 0 0 8 0x40000 0x0\n"))
                  .find("vidOff"),
              std::string::npos);
    EXPECT_NE(parseErr(minimalText("", "L 0 1 8 0x40004 0x0\n"))
                  .find("straddles"),
              std::string::npos);
}

TEST(ScheduleParse, UnknownTokenAndMissingEnd)
{
    EXPECT_NE(parseErr(minimalText("wibble 3\n"))
                  .find("unknown token"),
              std::string::npos);
    // Removed knobs (the host engines, the hit fast path) are gone
    // from the format: a witness that still names them must fail
    // instead of replaying silently.
    for (const char* line : {"shards 1 1 1 1\n", "shardthreads 1 1 1 1\n",
                             "enginethreads 1 1\n", "fastpath 0\n"}) {
        EXPECT_NE(parseErr(minimalText(line)).find("unknown token"),
                  std::string::npos)
            << line;
    }
    std::string t = minimalText();
    t.resize(t.size() - 4); // drop "end\n"
    EXPECT_NE(parseErr(t).find("missing 'end'"), std::string::npos);
}

/** Pre-PR-7/PR-8 witnesses omit the newer knob lines; parse() must
 *  record exactly which defaults it filled in (the --replay driver
 *  prints them). */
TEST(ScheduleParse, OmittedKnobProvenance)
{
    std::string t = minimalText();
    auto drop = [](std::string text, const std::string& line) {
        std::size_t p = text.find(line);
        text.erase(p, text.find('\n', p) - p + 1);
        return text;
    };
    EXPECT_EQ(parseOk(t).omittedKnobs, 0u);
    std::string old = drop(drop(t, "btx"), "limitedk");
    Schedule v1 = parseOk(old);
    EXPECT_EQ(v1.omittedKnobs, kOmitBtx | kOmitLimitedK);
    EXPECT_EQ(v1.cfg.btxRetries, 2u);
    EXPECT_EQ(v1.cfg.limitedK, 4u);
}

TEST(ScheduleParse, ProgramFlag)
{
    Schedule s = parseOk(minimalText("program 1\n"));
    EXPECT_TRUE(s.isProgram);
    EXPECT_FALSE(parseOk(minimalText("program 0\n")).isProgram);
    EXPECT_NE(parseErr(minimalText("program 2\n")).find("program"),
              std::string::npos);
}

} // namespace
