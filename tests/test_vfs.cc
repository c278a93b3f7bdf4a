/**
 * @file
 * Unit tests for vfscore + ramfs: descriptor lifecycle, path resolution,
 * block-spanning IO, truncate semantics, directories, and allocator-
 * backed storage accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "base/asan.hh"
#include "base/rng.hh"
#include "base/strutil.hh"
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

/**
 * ramfs against a byte-array model: seeded writes (some past EOF),
 * truncates down and up, and reads across block boundaries. After
 * every operation the file's size and every byte must match the model,
 * where any growth reads back as zeros up to the new data.
 */
TEST(Ramfs, MatchesByteArrayReference)
{
    Machine mach;
    TlsfAllocator alloc(mach, 256 * 1024);
    Vfs vfs(mach, makeRamfs(mach, &alloc));
    int fd = vfs.open("/model", oCreat | oRdWr);
    ASSERT_GE(fd, 0);

    const std::size_t maxSize = 5 * RamfsNode::blockSize + 300;
    std::vector<std::uint8_t> model;
    std::vector<std::uint8_t> buf(maxSize), got(maxSize);
    Rng rng(36);
    auto checkAll = [&](int step) {
        VfsStat st;
        ASSERT_EQ(vfs.stat("/model", st), vfsOk);
        ASSERT_EQ(st.size, model.size()) << "step " << step;
        ASSERT_EQ(vfs.pread(fd, got.data(), maxSize, 0),
                  static_cast<long>(model.size()))
            << "step " << step;
        ASSERT_TRUE(std::equal(model.begin(), model.end(), got.begin()))
            << "step " << step;
    };

    for (int step = 0; step < 3000; ++step) {
        std::uint64_t op = rng.below(10);
        if (op < 5) {
            // Write, at times starting past EOF (leaving a hole).
            std::size_t off = rng.below(maxSize);
            std::size_t n = 1 + rng.below(2 * RamfsNode::blockSize);
            n = std::min(n, maxSize - off);
            for (std::size_t i = 0; i < n; ++i)
                buf[i] = static_cast<std::uint8_t>(rng.next() | 1);
            ASSERT_EQ(vfs.pwrite(fd, buf.data(), n, off),
                      static_cast<long>(n));
            if (off + n > model.size())
                model.resize(off + n, 0);
            std::copy(buf.begin(), buf.begin() + n, model.begin() + off);
        } else if (op < 8) {
            // Truncate down or up, often to a block boundary +- 1.
            std::size_t to = rng.below(maxSize);
            if (rng.chance(1, 3))
                to = std::min(maxSize, rng.range(1, 5) * RamfsNode::blockSize +
                                           rng.below(3) - 1);
            ASSERT_EQ(vfs.ftruncate(fd, to), vfsOk);
            model.resize(to, 0);
        } else {
            // Read a range that may cross blocks and EOF.
            std::size_t off = rng.below(maxSize);
            std::size_t n = 1 + rng.below(2 * RamfsNode::blockSize);
            n = std::min(n, maxSize - off);
            std::size_t want =
                off >= model.size() ? 0 : std::min(n, model.size() - off);
            ASSERT_EQ(vfs.pread(fd, got.data(), n, off),
                      static_cast<long>(want));
            ASSERT_TRUE(std::equal(model.begin() + off,
                                   model.begin() + off + want, got.begin()))
                << "step " << step;
        }
        checkAll(step);
    }
    vfs.close(fd);
    ASSERT_EQ(vfs.unlink("/model"), vfsOk);
    EXPECT_EQ(alloc.stats().liveBytes, 0u);
}

/**
 * The old path rule as a reference: split on '/', skip empty
 * components. A model tree answers each operation through it.
 */
struct SplitReference
{
    /** Every node by its components joined with '/'; "" is the root. */
    std::map<std::string, VnodeType> nodes{{"", VnodeType::Directory}};

    static std::vector<std::string>
    parts(const std::string &path)
    {
        std::vector<std::string> out;
        for (const std::string &p : split(path, '/'))
            if (!p.empty())
                out.push_back(p);
        return out;
    }

    static std::string
    join(const std::vector<std::string> &parts, std::size_t n)
    {
        std::string out;
        for (std::size_t i = 0; i < n; ++i)
            out += (i ? "/" : "") + parts[i];
        return out;
    }

    /** Walk the first n components; the key reached, or an error. */
    int
    walk(const std::vector<std::string> &ps, std::size_t n, std::string &key)
    {
        key.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (nodes.at(key) != VnodeType::Directory)
                return vfsNotDir;
            std::string next = join(ps, i + 1);
            if (!nodes.count(next))
                return vfsNotFound;
            key = next;
        }
        return vfsOk;
    }

    int
    parent(const std::vector<std::string> &ps, std::string &key)
    {
        if (ps.empty())
            return vfsInval;
        int err = walk(ps, ps.size() - 1, key);
        if (err == vfsOk && nodes.at(key) != VnodeType::Directory)
            return vfsNotDir;
        return err;
    }

    bool
    hasChildren(const std::string &key) const
    {
        std::string prefix = key + "/";
        auto it = nodes.lower_bound(prefix);
        return it != nodes.end() && it->first.compare(0, prefix.size(),
                                                      prefix) == 0;
    }

    int
    open(const std::string &path, unsigned flags)
    {
        auto ps = parts(path);
        std::string key;
        int err = walk(ps, ps.size(), key);
        if (err != vfsOk) {
            if (err != vfsNotFound || !(flags & oCreat))
                return err;
            if ((err = parent(ps, key)) != vfsOk)
                return err;
            key = join(ps, ps.size());
            nodes[key] = VnodeType::Regular;
        }
        if (nodes.at(key) == VnodeType::Directory &&
            (flags & (oWrOnly | oRdWr)))
            return vfsIsDir;
        return vfsOk;
    }

    int
    stat(const std::string &path)
    {
        auto ps = parts(path);
        std::string key;
        return walk(ps, ps.size(), key);
    }

    int
    remove(const std::string &path, VnodeType want)
    {
        auto ps = parts(path);
        std::string key;
        int err = parent(ps, key);
        if (err != vfsOk)
            return err;
        key = join(ps, ps.size());
        auto it = nodes.find(key);
        if (it == nodes.end())
            return vfsNotFound;
        if (it->second != want)
            return want == VnodeType::Directory ? vfsNotDir : vfsIsDir;
        if (want == VnodeType::Directory && hasChildren(key))
            return vfsNotEmpty;
        nodes.erase(it);
        return vfsOk;
    }

    int
    mkdir(const std::string &path)
    {
        auto ps = parts(path);
        std::string key;
        int err = parent(ps, key);
        if (err != vfsOk)
            return err;
        key = join(ps, ps.size());
        if (nodes.count(key))
            return vfsExists;
        nodes[key] = VnodeType::Directory;
        return vfsOk;
    }
};

TEST(Vfs, PathWalkMatchesSplitReference)
{
    Machine mach;
    Vfs vfs(mach, makeRamfs(mach));
    // Short names keep hits frequent; the long one is past the
    // small-string buffer.
    const char *const names[] = {"a", "b", "f", "journal-of-a-db-x"};
    SplitReference ref;
    Rng rng(36);
    auto randomPath = [&] {
        std::string p;
        if (rng.chance(3, 4))
            p += std::string(rng.range(1, 3), '/');
        std::size_t depth = rng.below(4);
        for (std::size_t i = 0; i < depth; ++i) {
            if (i)
                p += std::string(rng.range(1, 3), '/');
            p += names[rng.below(std::size(names))];
        }
        if (rng.chance(1, 5))
            p += std::string(rng.range(1, 2), '/');
        return p;
    };

    for (int step = 0; step < 4000; ++step) {
        std::string path = randomPath();
        std::uint64_t op = rng.below(6);
        int want = 0, got = 0;
        if (op == 0) {
            unsigned flags = rng.chance(1, 2) ? (oCreat | oRdWr) : oRdOnly;
            want = ref.open(path, flags);
            int fd = vfs.open(path, flags);
            got = fd >= 0 ? vfsOk : fd;
            if (fd >= 0)
                vfs.close(fd);
        } else if (op == 1) {
            VfsStat st;
            want = ref.stat(path);
            got = vfs.stat(path, st);
        } else if (op == 2) {
            want = ref.remove(path, VnodeType::Regular);
            got = vfs.unlink(path);
        } else if (op == 3 || op == 4) {
            want = ref.mkdir(path);
            got = vfs.mkdir(path);
        } else {
            want = ref.remove(path, VnodeType::Directory);
            got = vfs.rmdir(path);
        }
        ASSERT_EQ(got, want) << "step " << step << " op " << op << " '"
                             << path << "'";
    }
    EXPECT_EQ(vfs.openCount(), 0u);
    for (const auto &[key, type] : ref.nodes) {
        VfsStat st;
        ASSERT_EQ(vfs.stat("/" + key, st), vfsOk) << key;
        EXPECT_EQ(st.type, type) << key;
    }
}

#ifdef FLEXOS_ASAN
/** A TLSF heap that remembers the last block it handed out. */
class RecordingAllocator : public Allocator
{
  public:
    explicit RecordingAllocator(Machine &m)
        : Allocator(m), heap(m, 64 * 1024)
    {
    }

    void *alloc(std::size_t size) override { return last = heap.alloc(size); }
    void free(void *p) override { heap.free(p); }
    std::size_t
    blockSize(const void *p) const override
    {
        return heap.blockSize(p);
    }

    void *last = nullptr;

  private:
    TlsfAllocator heap;
};

TEST(RamfsDeathTest, UnwrittenTailBytesArePoisoned)
{
    Machine mach;
    RecordingAllocator alloc(mach);
    Vfs vfs(mach, makeRamfs(mach, &alloc));
    int fd = vfs.open("/f", oCreat | oRdWr);
    ASSERT_EQ(vfs.write(fd, "0123456789", 10), 10);
    const volatile char *block = static_cast<const char *>(alloc.last);
    EXPECT_EQ(block[9], '9');
    EXPECT_DEATH((void)block[10], "use-after-poison");
    EXPECT_DEATH((void)block[RamfsNode::blockSize - 1], "use-after-poison");

    // A shrink poisons the cut-off bytes; a regrowth zero-fills them.
    ASSERT_EQ(vfs.ftruncate(fd, 4), vfsOk);
    EXPECT_DEATH((void)block[4], "use-after-poison");
    ASSERT_EQ(vfs.ftruncate(fd, 6), vfsOk);
    EXPECT_EQ(block[5], '\0');
    EXPECT_DEATH((void)block[6], "use-after-poison");
    vfs.close(fd);
    EXPECT_EQ(vfs.unlink("/f"), vfsOk);
}
#endif

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
