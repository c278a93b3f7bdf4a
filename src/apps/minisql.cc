#include "apps/minisql.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <exception>
#include <functional>
#include <iterator>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace flexos {
namespace minisql {

std::string
valueToString(const Value &v)
{
    if (std::holds_alternative<std::int64_t>(v))
        return std::to_string(std::get<std::int64_t>(v));
    return std::get<std::string>(v);
}

// ---------------------------------------------------------------- pager

namespace {

/** A write to file that the filesystem stored short. */
IoError
shortWrite(const std::string &file)
{
    return IoError("short write to '" + file + "' (filesystem full)");
}

} // namespace

Pager::Pager(LibcApi &libcApi, std::string dbPath)
    : libc(libcApi), path(std::move(dbPath)), journalPath(path + "-journal")
{
}

Pager::~Pager()
{
    if (fd < 0)
        return;
    try {
        close();
    } catch (const IoError &e) {
        // No caller to report to: close() released the file, and a
        // hot journal rolls the database back on the next open().
        warn("minisql: ", e.what(), " while closing");
    }
}

void
Pager::open()
{
    // Hot-journal recovery (SQLite semantics): if a journal exists, the
    // previous transaction did not commit; roll the database back.
    VfsStat st;
    bool haveJournal = libc.stat(journalPath, st) == vfsOk;

    fd = libc.open(path, oCreat | oRdWr);
    fatal_if(fd < 0, "cannot open database '", path, "'");

    if (haveJournal) {
        int jfd = libc.open(journalPath, oRdOnly);
        if (jfd >= 0) {
            std::uint8_t hdr[8];
            std::uint64_t off = 0;
            bool replayed = true;
            while (libc.pread(jfd, hdr, 8, off) == 8) {
                std::uint32_t id;
                std::memcpy(&id, hdr, 4);
                PageBuf buf;
                if (libc.pread(jfd, buf.data(), pageSize, off + 8) !=
                    static_cast<long>(pageSize))
                    break;
                if (libc.pwrite(fd, buf.data(), pageSize,
                                static_cast<std::uint64_t>(id) *
                                    pageSize) !=
                    static_cast<long>(pageSize)) {
                    replayed = false;
                    break;
                }
                off += 8 + pageSize;
            }
            libc.close(jfd);
            libc.fsync(fd);
            // A partial replay keeps the journal: it stays hot.
            if (!replayed)
                throw IoError("short write replaying '" + journalPath +
                              "' (filesystem full)");
        }
        libc.unlink(journalPath);
    }

    VfsStat dbSt;
    libc.stat(path, dbSt);
    nPages = static_cast<std::uint32_t>(dbSt.size / pageSize);
}

void
Pager::close()
{
    std::exception_ptr failed;
    try {
        if (inTxn)
            rollback();
        flushDirty();
    } catch (const IoError &) {
        failed = std::current_exception();
    }
    cache.clear();
    dirty.clear();
    if (fd >= 0) {
        libc.close(fd);
        fd = -1;
    }
    if (failed)
        std::rethrow_exception(failed);
}

Pager::PageBuf &
Pager::get(std::uint32_t id)
{
    panic_if(id >= nPages, "page ", id, " out of range");
    auto it = cache.find(id);
    if (it == cache.end()) {
        PageBuf page{};
        long got = libc.pread(fd, page.data(), pageSize,
                              static_cast<std::uint64_t>(id) * pageSize);
        panic_if(got != static_cast<long>(pageSize),
                 "short page read");
        it = cache.emplace(id, page).first;
    }
    return it->second;
}

Pager::PageBuf &
Pager::getMutable(std::uint32_t id)
{
    PageBuf &buf = get(id);
    if (inTxn)
        journalPreImage(id);
    markDirty(id);
    return buf;
}

void
Pager::markDirty(std::uint32_t id)
{
    auto at = std::lower_bound(dirty.begin(), dirty.end(), id);
    if (at == dirty.end() || *at != id)
        dirty.insert(at, id);
}

std::uint32_t
Pager::allocPage()
{
    PageBuf page{};
    // Extend the file so subsequent reads see the page; the page joins
    // the database (dirty) only once the file holds it.
    if (libc.pwrite(fd, page.data(), pageSize,
                    static_cast<std::uint64_t>(nPages) * pageSize) !=
        static_cast<long>(pageSize))
        throw shortWrite(path);
    std::uint32_t id = nPages++;
    cache.emplace(id, page);
    markDirty(id);
    return id;
}

void
Pager::journalPreImage(std::uint32_t id)
{
    auto at = std::lower_bound(
        journalled.begin(), journalled.end(), id,
        [](const Journalled &j, std::uint32_t page) { return j.id < page; });
    if (at != journalled.end() && at->id == id)
        return;
    auto slot = static_cast<std::uint32_t>(journalled.size());
    if (slot == preImagePages.size())
        preImagePages.emplace_back();
    PageBuf &pre = preImagePages[slot];
    pre = get(id);
    journalled.insert(at, Journalled{id, slot});

    // Append [pageId, pre-image] to the journal and sync it before the
    // page may be overwritten in place — write-ahead of the rollback
    // data, as SQLite does.
    int jfd = libc.open(journalPath, oCreat | oWrOnly | oAppend);
    panic_if(jfd < 0, "cannot open journal");
    std::uint8_t hdr[8] = {};
    std::memcpy(hdr, &id, 4);
    if (libc.write(jfd, hdr, 8) != 8 ||
        libc.write(jfd, pre.data(), pageSize) !=
            static_cast<long>(pageSize)) {
        // A torn tail record is skipped by the replay in open().
        libc.close(jfd);
        throw shortWrite(journalPath);
    }
    libc.fsync(jfd);
    libc.close(jfd);
}

void
Pager::begin()
{
    panic_if(inTxn, "nested transaction");
    inTxn = true;
    journalled.clear();
}

bool
Pager::writeBack(std::uint32_t id)
{
    return libc.pwrite(fd, cache[id].data(), pageSize,
                       static_cast<std::uint64_t>(id) * pageSize) ==
           static_cast<long>(pageSize);
}

void
Pager::flushDirty()
{
    auto stored = dirty.begin();
    while (stored != dirty.end() && writeBack(*stored))
        ++stored;
    bool failed = stored != dirty.end();
    dirty.erase(dirty.begin(), stored);
    if (failed)
        throw shortWrite(path);
}

void
Pager::commit()
{
    panic_if(!inTxn, "commit outside transaction");
    // Flush dirty pages, sync the database, then drop the journal —
    // the journal's deletion is the commit point.
    flushDirty();
    libc.fsync(fd);
    libc.unlink(journalPath);
    inTxn = false;
}

void
Pager::commitDirtyForTest()
{
    panic_if(!inTxn, "crash-flush outside transaction");
    flushDirty();
    // No journal unlink: the next open() finds it hot and rolls back.
    inTxn = false;
}

void
Pager::rollback()
{
    panic_if(!inTxn, "rollback outside transaction");
    inTxn = false;
    for (const Journalled &j : journalled) {
        cache[j.id] = preImagePages[j.slot];
        markDirty(j.id);
    }
    for (const Journalled &j : journalled) {
        if (!writeBack(j.id))
            throw shortWrite(path);
        dirty.erase(std::lower_bound(dirty.begin(), dirty.end(), j.id));
    }
    libc.fsync(fd);
    libc.unlink(journalPath);
}

// ---------------------------------------------------------------- btree

namespace {

/*
 * Page layout.
 *  byte 0: type (1 = leaf, 2 = internal)
 *  bytes 1-2: cell count (u16)
 *  Leaf cells: fixed slots of (key i64, len u16, data[maxRecord]).
 *  Internal: keys at fixed slots (i64) and children (u32), fanout K.
 */
constexpr std::uint8_t leafType = 1;
constexpr std::uint8_t internalType = 2;
constexpr std::size_t leafSlot = 8 + 2 + Btree::maxRecord; // 120 B
constexpr std::size_t leafMax = (pageSize - 3) / leafSlot; // 34 cells
constexpr std::size_t innerMax = (pageSize - 3 - 4) / 12;  // 341 keys

std::uint16_t
cellCount(const Pager::PageBuf &p)
{
    std::uint16_t n;
    std::memcpy(&n, p.data() + 1, 2);
    return n;
}

void
setCellCount(Pager::PageBuf &p, std::uint16_t n)
{
    std::memcpy(p.data() + 1, &n, 2);
}

std::int64_t
leafKey(const Pager::PageBuf &p, std::size_t i)
{
    std::int64_t k;
    std::memcpy(&k, p.data() + 3 + i * leafSlot, 8);
    return k;
}

std::uint8_t *
leafCell(Pager::PageBuf &p, std::size_t i)
{
    return p.data() + 3 + i * leafSlot;
}

std::int64_t
innerKey(const Pager::PageBuf &p, std::size_t i)
{
    std::int64_t k;
    std::memcpy(&k, p.data() + 3 + i * 12, 8);
    return k;
}

std::uint32_t
innerChild(const Pager::PageBuf &p, std::size_t i)
{
    // child i sits after key i-1; children interleaved at slot end.
    std::uint32_t c;
    std::memcpy(&c, p.data() + 3 + i * 12 + 8, 4);
    return c;
}

void
setInnerEntry(Pager::PageBuf &p, std::size_t i, std::int64_t key,
              std::uint32_t childAfter)
{
    std::memcpy(p.data() + 3 + i * 12, &key, 8);
    std::memcpy(p.data() + 3 + i * 12 + 8, &childAfter, 4);
}

std::uint32_t
innerFirstChild(const Pager::PageBuf &p)
{
    std::uint32_t c;
    std::memcpy(&c, p.data() + pageSize - 4, 4);
    return c;
}

void
setInnerFirstChild(Pager::PageBuf &p, std::uint32_t c)
{
    std::memcpy(p.data() + pageSize - 4, &c, 4);
}

} // namespace

Btree::Btree(Pager &p, std::uint32_t rootPage) : pager(p), rootId(rootPage)
{
}

std::uint32_t
Btree::create(Pager &pager)
{
    std::uint32_t id = pager.allocPage();
    Pager::PageBuf &p = pager.getMutable(id);
    p[0] = leafType;
    setCellCount(p, 0);
    return id;
}

Btree::SplitResult
Btree::insertInto(std::uint32_t page, std::int64_t key,
                  const std::uint8_t *rec, std::size_t len)
{
    Pager::PageBuf &p = pager.getMutable(page);
    std::uint16_t n = cellCount(p);

    if (p[0] == leafType) {
        // Find insert position (keys kept sorted).
        std::size_t pos = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (leafKey(p, i) >= key) {
                pos = i;
                break;
            }
        }
        panic_if(pos < n && leafKey(p, pos) == key,
                 "duplicate rowid in btree");

        std::memmove(leafCell(p, pos + 1), leafCell(p, pos),
                     (n - pos) * leafSlot);
        std::uint8_t *cell = leafCell(p, pos);
        std::memcpy(cell, &key, 8);
        std::uint16_t len16 = static_cast<std::uint16_t>(len);
        std::memcpy(cell + 8, &len16, 2);
        std::memcpy(cell + 10, rec, len);
        setCellCount(p, ++n);

        if (n < leafMax)
            return {};

        // Split: upper half moves to a fresh right sibling.
        std::uint32_t rightId = pager.allocPage();
        Pager::PageBuf &r = pager.getMutable(rightId);
        // Re-fetch p: allocPage may have grown the cache, reference ok
        Pager::PageBuf &pl = pager.getMutable(page);
        r[0] = leafType;
        std::size_t half = n / 2;
        std::memcpy(r.data() + 3, leafCell(pl, half),
                    (n - half) * leafSlot);
        setCellCount(r, static_cast<std::uint16_t>(n - half));
        setCellCount(pl, static_cast<std::uint16_t>(half));
        std::int64_t sep;
        std::memcpy(&sep, r.data() + 3, 8);
        return {true, sep, rightId};
    }

    // Internal node: descend into the right child.
    panic_if(p[0] != internalType, "corrupt btree page");
    std::size_t idx = 0;
    while (idx < n && key >= innerKey(p, idx))
        ++idx;
    std::uint32_t child =
        idx == 0 ? innerFirstChild(p) : innerChild(p, idx - 1);
    SplitResult split = insertInto(child, key, rec, len);
    if (!split.split)
        return {};

    Pager::PageBuf &pi = pager.getMutable(page);
    n = cellCount(pi);
    // Insert (sepKey, rightPage) at idx.
    std::memmove(pi.data() + 3 + (idx + 1) * 12, pi.data() + 3 + idx * 12,
                 (n - idx) * 12);
    setInnerEntry(pi, idx, split.sepKey, split.rightPage);
    setCellCount(pi, ++n);

    if (n < innerMax)
        return {};

    // Split the internal node.
    std::uint32_t rightId = pager.allocPage();
    Pager::PageBuf &r = pager.getMutable(rightId);
    Pager::PageBuf &pl = pager.getMutable(page);
    r[0] = internalType;
    std::size_t half = n / 2;
    std::int64_t sep = innerKey(pl, half);
    setInnerFirstChild(r, innerChild(pl, half));
    std::memcpy(r.data() + 3, pl.data() + 3 + (half + 1) * 12,
                (n - half - 1) * 12);
    setCellCount(r, static_cast<std::uint16_t>(n - half - 1));
    setCellCount(pl, static_cast<std::uint16_t>(half));
    return {true, sep, rightId};
}

void
Btree::insert(std::int64_t key, const std::uint8_t *rec, std::size_t len)
{
    fatal_if(len > maxRecord, "record too large (", len, " > ",
             maxRecord, ")");
    SplitResult split = insertInto(rootId, key, rec, len);
    if (!split.split)
        return;

    // Grow a new root.
    std::uint32_t newRoot = pager.allocPage();
    Pager::PageBuf &r = pager.getMutable(newRoot);
    r[0] = internalType;
    setCellCount(r, 1);
    setInnerFirstChild(r, rootId);
    setInnerEntry(r, 0, split.sepKey, split.rightPage);
    rootId = newRoot;
}

void
Btree::scanPage(std::uint32_t page,
                const std::function<void(std::int64_t,
                                         const std::uint8_t *,
                                         std::size_t)> &fn)
{
    Pager::PageBuf &p = pager.get(page);
    std::uint16_t n = cellCount(p);
    if (p[0] == leafType) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint8_t *cell = leafCell(p, i);
            std::int64_t key;
            std::uint16_t len;
            std::memcpy(&key, cell, 8);
            std::memcpy(&len, cell + 8, 2);
            fn(key, cell + 10, len);
        }
        return;
    }
    scanPage(innerFirstChild(p), fn);
    for (std::size_t i = 0; i < n; ++i)
        scanPage(innerChild(p, i), fn);
}

void
Btree::scan(const std::function<void(std::int64_t, const std::uint8_t *,
                                     std::size_t)> &fn)
{
    scanPage(rootId, fn);
}

// ------------------------------------------------------------- database

void
tokenize(std::string_view sql, std::vector<std::string_view> &out)
{
    auto isDigit = [&](std::size_t i) {
        return i < sql.size() &&
               std::isdigit(static_cast<unsigned char>(sql[i]));
    };
    auto isWord = [&](std::size_t i) {
        return i < sql.size() &&
               (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                sql[i] == '_');
    };
    out.clear();
    std::size_t i = 0;
    while (i < sql.size()) {
        char c = sql[i];
        std::size_t start = i++;
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (c == '\'') {
            while (i < sql.size() && sql[i] != '\'')
                ++i;
            out.push_back(sql.substr(start, i - start));
            ++i; // closing quote
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            // Keywords are case-insensitive; identifiers preserved.
            while (isWord(i))
                ++i;
        } else if (isDigit(start) || (c == '-' && isDigit(i))) {
            while (isDigit(i))
                ++i;
        }
        out.push_back(sql.substr(start, i - start));
    }
}

namespace {

bool
isKeyword(std::string_view tok, std::string_view kw)
{
    return std::equal(tok.begin(), tok.end(), kw.begin(), kw.end(),
                      [](char a, char b) {
                          return std::tolower(static_cast<unsigned char>(
                                     a)) ==
                                 std::tolower(static_cast<unsigned char>(b));
                      });
}

/** Append the bytes of v to out. */
template <typename T>
void
appendBytes(std::vector<std::uint8_t> &out, const T &v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

/** Append v in decimal to out. */
template <typename T>
void
appendNumber(std::string &out, T v)
{
    char digits[24];
    out.append(digits, std::to_chars(digits, std::end(digits), v).ptr);
}

Row
decodeRow(const std::uint8_t *data, std::size_t len)
{
    Row row;
    std::size_t at = 1;
    std::uint8_t ncols = data[0];
    for (std::uint8_t i = 0; i < ncols && at < len; ++i) {
        std::uint8_t tag = data[at++];
        if (tag == 0) {
            std::int64_t x;
            std::memcpy(&x, data + at, 8);
            at += 8;
            row.emplace_back(x);
        } else {
            std::uint16_t slen;
            std::memcpy(&slen, data + at, 2);
            at += 2;
            row.emplace_back(std::string(
                reinterpret_cast<const char *>(data + at), slen));
            at += slen;
        }
    }
    return row;
}

Result
errorResult(const std::string &msg)
{
    Result r;
    r.ok = false;
    r.error = msg;
    return r;
}

} // namespace

Database::Database(LibcApi &libcApi, std::string dbPath)
    : libc(libcApi), path(std::move(dbPath))
{
}

Database::~Database()
{
    if (!opened)
        return;
    try {
        close();
    } catch (const IoError &e) {
        // No caller to report to; see Pager::~Pager.
        warn("minisql: ", e.what(), " while closing");
    }
}

void
Database::open()
{
    pager = std::make_unique<Pager>(libc, path);
    pager->open();
    if (pager->pageCount() == 0) {
        // Fresh database: page 0 is the catalog page.
        std::uint32_t cat = pager->allocPage();
        panic_if(cat != 0, "catalog must be page 0");
        saveCatalog();
    } else {
        loadCatalog();
    }
    opened = true;
}

void
Database::close()
{
    if (pager) {
        if (pager->inTransaction())
            pager->rollback();
        saveCatalog();
        pager->close();
        pager.reset();
    }
    opened = false;
}

void
Database::loadCatalog()
{
    // Catalog page layout: textual, one table per line:
    //   name|rootPage|nextRowid|col:type,col:type,...
    tables.clear();
    Pager::PageBuf &p = pager->get(0);
    const char *text = reinterpret_cast<const char *>(p.data());
    std::size_t len = strnlen(text, pageSize);
    for (const std::string &line : split(std::string(text, len), '\n')) {
        if (trim(line).empty())
            continue;
        std::vector<std::string> parts = split(line, '|');
        if (parts.size() != 4)
            continue;
        TableDef def;
        def.name = parts[0];
        long root, next;
        parseInt(parts[1], root);
        parseInt(parts[2], next);
        def.rootPage = static_cast<std::uint32_t>(root);
        def.nextRowid = next;
        for (const std::string &col : split(parts[3], ',')) {
            if (col.empty())
                continue;
            std::vector<std::string> ct = split(col, ':');
            def.columns.push_back(ct[0]);
            def.isText.push_back(ct.size() > 1 && ct[1] == "T");
        }
        tables.push_back(std::move(def));
    }
}

void
Database::saveCatalog()
{
    std::string &text = catalogText;
    text.clear();
    for (const TableDef &t : tables) {
        text += t.name;
        text += '|';
        appendNumber(text, t.rootPage);
        text += '|';
        appendNumber(text, t.nextRowid);
        text += '|';
        for (std::size_t i = 0; i < t.columns.size(); ++i) {
            if (i)
                text += ',';
            text += t.columns[i];
            text += t.isText[i] ? ":T" : ":I";
        }
        text += '\n';
    }
    fatal_if(text.size() >= pageSize, "catalog page overflow");
    Pager::PageBuf &p = pager->getMutable(0);
    std::memcpy(p.data(), text.data(), text.size());
    std::memset(p.data() + text.size(), 0, pageSize - text.size());
}

TableDef *
Database::findTable(std::string_view name)
{
    for (TableDef &t : tables)
        if (t.name == name)
            return &t;
    return nullptr;
}

Result
Database::exec(const std::string &sql)
{
    fatal_if(!opened, "database not open");
    tokenize(sql, tokens);
    if (!tokens.empty() && tokens.back() == ";")
        tokens.pop_back();
    if (tokens.empty())
        return errorResult("empty statement");

    // SQLite stamps transaction times; minisql reads the clock per
    // statement too, exercising the uktime component (Figure 10 MPK3).
    libc.clockNs();

    try {
        return dispatch(tokens);
    } catch (const IoError &e) {
        // SQLITE_FULL semantics: the statement fails and its
        // transaction rolls back, leaving the connection on the last
        // committed state. If even the rollback's write-back fails,
        // the cache already holds the restored pages and the journal
        // stays hot for the next open().
        std::string error = e.what();
        if (pager->inTransaction()) {
            explicitTxn = false;
            try {
                pager->rollback();
            } catch (const IoError &again) {
                error += std::string("; rollback: ") + again.what();
            }
        }
        loadCatalog();
        return errorResult(error);
    }
}

Result
Database::dispatch(const Tokens &toks)
{
    if (isKeyword(toks[0], "create"))
        return createTable(toks);
    if (isKeyword(toks[0], "insert"))
        return insertInto(toks);
    if (isKeyword(toks[0], "select"))
        return select(toks);
    if (isKeyword(toks[0], "begin"))
        return beginTxn();
    if (isKeyword(toks[0], "commit"))
        return commitTxn();
    if (isKeyword(toks[0], "rollback"))
        return rollbackTxn();
    return errorResult("unsupported statement '" + std::string(toks[0]) +
                       "'");
}

Result
Database::createTable(const Tokens &toks)
{
    // CREATE TABLE name ( col type [, col type]* )
    if (toks.size() < 7 || !isKeyword(toks[1], "table") || toks[3] != "(")
        return errorResult("malformed CREATE TABLE");
    if (findTable(toks[2]))
        return errorResult("table '" + std::string(toks[2]) +
                           "' already exists");

    TableDef def;
    def.name = toks[2];
    std::size_t i = 4;
    while (i < toks.size() && toks[i] != ")") {
        if (toks[i] == ",") {
            ++i;
            continue;
        }
        if (i + 1 >= toks.size())
            return errorResult("malformed column definition");
        def.columns.emplace_back(toks[i]);
        def.isText.push_back(isKeyword(toks[i + 1], "text"));
        i += 2;
    }
    if (def.columns.empty())
        return errorResult("table needs at least one column");

    bool autoTxn = !pager->inTransaction();
    if (autoTxn)
        pager->begin();
    def.rootPage = Btree::create(*pager);
    tables.push_back(def);
    saveCatalog();
    if (autoTxn)
        pager->commit();

    Result r;
    r.rowsAffected = 0;
    return r;
}

Result
Database::insertInto(const Tokens &toks)
{
    // INSERT INTO name VALUES ( v [, v]* )
    if (toks.size() < 7 || !isKeyword(toks[1], "into") ||
        !isKeyword(toks[3], "values") || toks[4] != "(")
        return errorResult("malformed INSERT");
    TableDef *t = findTable(toks[2]);
    if (!t)
        return errorResult("no such table '" + std::string(toks[2]) + "'");

    // Encode the row as its values parse: [ncols u8], then per column
    // a tag (0 integer, 1 text) and its payload.
    record.assign(1, 0);
    std::size_t cols = 0;
    for (std::size_t i = 5; i < toks.size() && toks[i] != ")"; ++i) {
        if (toks[i] == ",")
            continue;
        std::string_view tok = toks[i];
        if (tok[0] == '\'') {
            tok.remove_prefix(1);
            record.push_back(1);
            appendBytes(record, static_cast<std::uint16_t>(tok.size()));
            record.insert(record.end(), tok.begin(), tok.end());
        } else {
            long v;
            if (!parseInt(tok, v))
                return errorResult("bad literal '" + std::string(tok) + "'");
            record.push_back(0);
            appendBytes(record, static_cast<std::int64_t>(v));
        }
        ++cols;
    }
    if (cols != t->columns.size())
        return errorResult("column count mismatch");
    record[0] = static_cast<std::uint8_t>(cols);

    // Hardening instrumentation point: checked rowid arithmetic.
    std::int64_t rowid =
        libc.hardening().add<std::int64_t>(t->nextRowid, 0);
    if (record.size() > Btree::maxRecord)
        return errorResult("row too large");

    // Each statement outside an explicit transaction runs in its own —
    // the Figure 10 pressure pattern.
    bool autoTxn = !pager->inTransaction();
    if (autoTxn)
        pager->begin();
    Btree tree(*pager, t->rootPage);
    tree.insert(rowid, record.data(), record.size());
    t->rootPage = tree.root();
    t->nextRowid = rowid + 1;
    saveCatalog();
    if (autoTxn)
        pager->commit();

    Result r;
    r.rowsAffected = 1;
    return r;
}

Result
Database::select(const Tokens &toks)
{
    // SELECT * FROM t [WHERE col = value]
    // SELECT COUNT ( * ) FROM t
    Result r;
    bool isCount = toks.size() > 1 && isKeyword(toks[1], "count");
    std::size_t fromAt = 0;
    for (std::size_t i = 1; i < toks.size(); ++i) {
        if (isKeyword(toks[i], "from")) {
            fromAt = i;
            break;
        }
    }
    if (fromAt == 0 || fromAt + 1 >= toks.size())
        return errorResult("malformed SELECT");
    TableDef *t = findTable(toks[fromAt + 1]);
    if (!t)
        return errorResult("no such table '" + std::string(toks[fromAt + 1]) +
                           "'");

    // Optional WHERE col = literal.
    int whereCol = -1;
    Value whereVal;
    if (fromAt + 2 < toks.size() &&
        isKeyword(toks[fromAt + 2], "where")) {
        if (fromAt + 5 >= toks.size() || toks[fromAt + 4] != "=")
            return errorResult("malformed WHERE");
        std::string_view col = toks[fromAt + 3];
        for (std::size_t c = 0; c < t->columns.size(); ++c)
            if (t->columns[c] == col)
                whereCol = static_cast<int>(c);
        if (whereCol < 0)
            return errorResult("no such column '" + std::string(col) + "'");
        std::string_view lit = toks[fromAt + 5];
        if (lit[0] == '\'')
            whereVal = std::string(lit.substr(1));
        else {
            long v;
            if (!parseInt(lit, v))
                return errorResult("bad literal");
            whereVal = static_cast<std::int64_t>(v);
        }
    }

    r.columns = isCount ? std::vector<std::string>{"count"} : t->columns;
    std::int64_t count = 0;
    Btree tree(*pager, t->rootPage);
    tree.scan([&](std::int64_t, const std::uint8_t *rec,
                  std::size_t len) {
        Row row = decodeRow(rec, len);
        if (whereCol >= 0 &&
            row[static_cast<std::size_t>(whereCol)] != whereVal)
            return;
        ++count;
        if (!isCount)
            r.rows.push_back(std::move(row));
    });
    if (isCount)
        r.rows.push_back(Row{count});
    return r;
}

Result
Database::beginTxn()
{
    if (pager->inTransaction())
        return errorResult("transaction already open");
    pager->begin();
    explicitTxn = true;
    return Result{};
}

Result
Database::commitTxn()
{
    if (!pager->inTransaction())
        return errorResult("no transaction open");
    pager->commit();
    explicitTxn = false;
    return Result{};
}

Result
Database::rollbackTxn()
{
    if (!pager->inTransaction())
        return errorResult("no transaction open");
    pager->rollback();
    explicitTxn = false;
    loadCatalog(); // catalog may have been rolled back
    return Result{};
}

} // namespace minisql
} // namespace flexos
