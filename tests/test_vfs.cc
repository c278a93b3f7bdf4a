/**
 * @file
 * Unit tests for vfscore + ramfs: descriptor lifecycle, path resolution,
 * block-spanning IO, truncate semantics, directories, and allocator-
 * backed storage accounting.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "machine/machine.hh"
#include "ukalloc/tlsf.hh"
#include "vfs/ramfs.hh"
#include "vfs/vfs.hh"

namespace flexos {
namespace {

struct VfsFixture : ::testing::Test
{
    VfsFixture() : vfs(mach, makeRamfs(mach)) {}

    Machine mach;
    Vfs vfs;

    std::string
    readAll(const std::string &path)
    {
        int fd = vfs.open(path, oRdOnly);
        EXPECT_GE(fd, 0);
        std::string out;
        char buf[4096];
        long n;
        while ((n = vfs.read(fd, buf, sizeof(buf))) > 0)
            out.append(buf, static_cast<std::size_t>(n));
        vfs.close(fd);
        return out;
    }

    void
    writeFile(const std::string &path, const std::string &content)
    {
        int fd = vfs.open(path, oCreat | oWrOnly | oTrunc);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(vfs.write(fd, content.data(), content.size()),
                  static_cast<long>(content.size()));
        vfs.close(fd);
    }
};

TEST_F(VfsFixture, CreateWriteReadBack)
{
    writeFile("/hello.txt", "hello world");
    EXPECT_EQ(readAll("/hello.txt"), "hello world");
}

TEST_F(VfsFixture, MissingFileIsEnoent)
{
    EXPECT_EQ(vfs.open("/nope", oRdOnly), vfsNotFound);
}

TEST_F(VfsFixture, OpenWithoutCreatDoesNotCreate)
{
    EXPECT_LT(vfs.open("/x", oWrOnly), 0);
    VfsStat st;
    EXPECT_EQ(vfs.stat("/x", st), vfsNotFound);
}

TEST_F(VfsFixture, NestedDirectories)
{
    EXPECT_EQ(vfs.mkdir("/a"), vfsOk);
    EXPECT_EQ(vfs.mkdir("/a/b"), vfsOk);
    writeFile("/a/b/f.txt", "deep");
    EXPECT_EQ(readAll("/a/b/f.txt"), "deep");
    VfsStat st;
    ASSERT_EQ(vfs.stat("/a/b", st), vfsOk);
    EXPECT_EQ(st.type, VnodeType::Directory);
}

TEST_F(VfsFixture, MkdirInMissingParentFails)
{
    EXPECT_EQ(vfs.mkdir("/no/such/dir"), vfsNotFound);
}

TEST_F(VfsFixture, DuplicateMkdirFails)
{
    EXPECT_EQ(vfs.mkdir("/d"), vfsOk);
    EXPECT_EQ(vfs.mkdir("/d"), vfsExists);
}

TEST_F(VfsFixture, WriteSpanningMultipleBlocks)
{
    std::string big(3 * RamfsNode::blockSize + 123, 'x');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);
    writeFile("/big", big);
    EXPECT_EQ(readAll("/big"), big);
    VfsStat st;
    ASSERT_EQ(vfs.stat("/big", st), vfsOk);
    EXPECT_EQ(st.size, big.size());
}

TEST_F(VfsFixture, PreadPwriteAtOffsets)
{
    writeFile("/f", "0123456789");
    int fd = vfs.open("/f", oRdWr);
    ASSERT_GE(fd, 0);
    char buf[4] = {};
    EXPECT_EQ(vfs.pread(fd, buf, 4, 3), 4);
    EXPECT_EQ(std::string(buf, 4), "3456");
    EXPECT_EQ(vfs.pwrite(fd, "XY", 2, 8), 2);
    vfs.close(fd);
    EXPECT_EQ(readAll("/f"), "01234567XY");
}

TEST_F(VfsFixture, SeekSetCurEnd)
{
    writeFile("/f", "abcdef");
    int fd = vfs.open("/f", oRdOnly);
    EXPECT_EQ(vfs.lseek(fd, 2, SeekWhence::Set), 2);
    char c;
    vfs.read(fd, &c, 1);
    EXPECT_EQ(c, 'c');
    EXPECT_EQ(vfs.lseek(fd, 1, SeekWhence::Cur), 4);
    EXPECT_EQ(vfs.lseek(fd, -1, SeekWhence::End), 5);
    vfs.read(fd, &c, 1);
    EXPECT_EQ(c, 'f');
    EXPECT_EQ(vfs.lseek(fd, -99, SeekWhence::Set), vfsInval);
    vfs.close(fd);
}

TEST_F(VfsFixture, AppendModeWritesAtEnd)
{
    writeFile("/log", "one");
    int fd = vfs.open("/log", oWrOnly | oAppend);
    vfs.write(fd, "+two", 4);
    vfs.close(fd);
    EXPECT_EQ(readAll("/log"), "one+two");
}

TEST_F(VfsFixture, TruncateShrinkAndRegrowReadsZeros)
{
    writeFile("/t", "abcdefgh");
    int fd = vfs.open("/t", oRdWr);
    EXPECT_EQ(vfs.ftruncate(fd, 4), vfsOk);
    EXPECT_EQ(vfs.ftruncate(fd, 8), vfsOk);
    char buf[8];
    EXPECT_EQ(vfs.pread(fd, buf, 8, 0), 8);
    EXPECT_EQ(std::memcmp(buf, "abcd\0\0\0\0", 8), 0);
    vfs.close(fd);
}

TEST_F(VfsFixture, OTruncClearsContent)
{
    writeFile("/t", "content");
    int fd = vfs.open("/t", oWrOnly | oTrunc);
    vfs.close(fd);
    VfsStat st;
    vfs.stat("/t", st);
    EXPECT_EQ(st.size, 0u);
}

TEST_F(VfsFixture, UnlinkRemovesFile)
{
    writeFile("/gone", "x");
    EXPECT_EQ(vfs.unlink("/gone"), vfsOk);
    EXPECT_EQ(vfs.open("/gone", oRdOnly), vfsNotFound);
    EXPECT_EQ(vfs.unlink("/gone"), vfsNotFound);
}

TEST_F(VfsFixture, UnlinkDirectoryRejected)
{
    vfs.mkdir("/d");
    EXPECT_EQ(vfs.unlink("/d"), vfsIsDir);
    EXPECT_EQ(vfs.rmdir("/d"), vfsOk);
}

TEST_F(VfsFixture, RmdirNonEmptyRejected)
{
    vfs.mkdir("/d");
    writeFile("/d/f", "x");
    EXPECT_EQ(vfs.rmdir("/d"), vfsNotEmpty);
    vfs.unlink("/d/f");
    EXPECT_EQ(vfs.rmdir("/d"), vfsOk);
}

TEST_F(VfsFixture, ReaddirListsEntries)
{
    vfs.mkdir("/dir");
    writeFile("/dir/a", "1");
    writeFile("/dir/b", "2");
    std::vector<std::string> names;
    ASSERT_EQ(vfs.readdir("/dir", names), vfsOk);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST_F(VfsFixture, DescriptorsAreReusedLowestFirst)
{
    writeFile("/f", "x");
    int fd1 = vfs.open("/f", oRdOnly);
    int fd2 = vfs.open("/f", oRdOnly);
    vfs.close(fd1);
    int fd3 = vfs.open("/f", oRdOnly);
    EXPECT_EQ(fd3, fd1);
    vfs.close(fd2);
    vfs.close(fd3);
    EXPECT_EQ(vfs.openCount(), 0u);
}

TEST_F(VfsFixture, BadFdRejected)
{
    char c;
    EXPECT_EQ(vfs.read(-1, &c, 1), vfsBadFd);
    EXPECT_EQ(vfs.read(99, &c, 1), vfsBadFd);
    EXPECT_EQ(vfs.close(99), vfsBadFd);
    EXPECT_EQ(vfs.fsync(99), vfsBadFd);
}

TEST_F(VfsFixture, OpenFileSurvivesUnlink)
{
    // POSIX semantics: data reachable through an open fd after unlink.
    writeFile("/f", "persist");
    int fd = vfs.open("/f", oRdOnly);
    vfs.unlink("/f");
    char buf[7];
    EXPECT_EQ(vfs.read(fd, buf, 7), 7);
    EXPECT_EQ(std::string(buf, 7), "persist");
    vfs.close(fd);
}

TEST(RamfsAllocator, FileDataComesFromCompartmentAllocator)
{
    Machine mach;
    TlsfAllocator alloc(mach, 1024 * 1024);
    auto root = makeRamfs(mach, &alloc);
    Vfs vfs(mach, root);

    int fd = vfs.open("/blob", oCreat | oWrOnly);
    std::string data(3 * RamfsNode::blockSize, 'z');
    vfs.write(fd, data.data(), data.size());
    EXPECT_GE(alloc.stats().liveBytes, 3 * RamfsNode::blockSize);
    vfs.close(fd);

    vfs.unlink("/blob");
    EXPECT_EQ(alloc.stats().liveBytes, 0u); // blocks returned on unlink
}

TEST(RamfsAllocator, ExhaustedAllocatorYieldsNoSpace)
{
    Machine mach;
    TlsfAllocator alloc(mach, 16 * 1024); // tiny heap
    auto root = makeRamfs(mach, &alloc);
    Vfs vfs(mach, root);
    int fd = vfs.open("/f", oCreat | oWrOnly);
    std::string data(64 * 1024, 'x');
    EXPECT_EQ(vfs.write(fd, data.data(), data.size()), vfsNoSpace);
    vfs.close(fd);
}

TEST(VfsCycles, OperationsChargeTheClock)
{
    Machine m;
    Vfs vfs(m, makeRamfs(m));
    // Built after the filesystem's machine; must see none of its work.
    Machine bystander;
    int fd = vfs.open("/f", oCreat | oWrOnly);
    Cycles before = m.cycles();
    char buf[1024] = {};
    vfs.write(fd, buf, sizeof(buf));
    EXPECT_GT(m.cycles(), before + m.timing.vfsOpBase);
    EXPECT_GE(m.counter("vfs.ops"), 2u);
    EXPECT_GE(m.counter("ramfs.ops"), 1u);
    vfs.close(fd);
    EXPECT_EQ(bystander.cycles(), 0u);
    EXPECT_TRUE(bystander.counters().empty());
}

} // namespace
} // namespace flexos
