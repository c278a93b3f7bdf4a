/**
 * @file
 * Snapshot-writer tests: the exact bytes of a snapshot holding each
 * kind of value (a number with its unit and the paper's value, a
 * string that needs escaping, a boolean), that a repeated
 * (row, metric) pair is rejected, and that a failed write exits 2.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../bench/snapshot.hh"

using namespace flexos;

TEST(Snapshot, WritesOneRowPerLineInOneSchema)
{
    bench::Snapshot snap("figX");
    snap.number("FlexOS NONE", "seconds", 0.018198432123, "s", 0.054);
    snap.text("rop \"gadget\"", "witness", "gate\\denied");
    snap.flag("rop \"gadget\"", "contained", true);
    const std::string path = testing::TempDir() + "snapshot_test.json";
    snap.write(path.c_str());

    std::ifstream in(path);
    std::ostringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(),
              "{\n"
              "  \"figure\": \"figX\",\n"
              "  \"rows\": [\n"
              "    {\"row\": \"FlexOS NONE\", \"metric\": \"seconds\", "
              "\"value\": 0.01819843212, \"unit\": \"s\", \"paper\": 0.054},\n"
              "    {\"row\": \"rop \\\"gadget\\\"\", \"metric\": \"witness\", "
              "\"value\": \"gate\\\\denied\"},\n"
              "    {\"row\": \"rop \\\"gadget\\\"\", \"metric\": "
              "\"contained\", \"value\": true}\n"
              "  ]\n"
              "}\n");
}

TEST(Snapshot, RejectsARepeatedRowMetricPair)
{
    bench::Snapshot snap("figX");
    snap.number("flows=1 cores=1", "gbps", 10.075, "Gb/s");
    snap.number("flows=1 cores=2", "gbps", 19.9, "Gb/s");
    EXPECT_THROW(snap.number("flows=1 cores=1", "gbps", 10.075, "Gb/s"),
                 FatalError);
    EXPECT_THROW(snap.flag("flows=1 cores=1", "gbps", true), FatalError);
}

TEST(Snapshot, ExitsTwoWhenTheWriteFails)
{
    bench::Snapshot snap("figX");
    snap.flag("row", "ok", true);
    // The open succeeds; the flush at close reports ENOSPC.
    EXPECT_EXIT(snap.write("/dev/full"), testing::ExitedWithCode(2),
                "snapshot figX: cannot write /dev/full");
}
