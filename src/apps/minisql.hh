/**
 * @file
 * libsqlite (minisql): a small SQL database engine in the architectural
 * image of SQLite — a pager with a rollback journal providing atomic
 * transactions over the VFS, a B+tree keyed by rowid, a catalog page,
 * and a SQL subset (CREATE TABLE / INSERT / SELECT / BEGIN / COMMIT /
 * ROLLBACK).
 *
 * Every page read/write/sync flows through the libc facade and thus
 * through the configured gates into vfscore — this is the
 * filesystem-intensive workload of the paper's Figure 10 (5000 INSERTs,
 * one transaction each).
 */

#ifndef FLEXOS_APPS_MINISQL_HH
#define FLEXOS_APPS_MINISQL_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/libc.hh"

namespace flexos {
namespace minisql {

/** A SQL value: 64-bit integer or text. */
using Value = std::variant<std::int64_t, std::string>;

/** Render a value for result output. */
std::string valueToString(const Value &v);

/** One result row. */
using Row = std::vector<Value>;

/** Result of executing one statement. */
struct Result
{
    bool ok = true;
    std::string error;
    std::vector<std::string> columns;
    std::vector<Row> rows;
    std::int64_t rowsAffected = 0;
};

/**
 * A page or journal write the filesystem stored short (a full VFS).
 * The pager raises it; Database::exec() turns it into a failed
 * statement and rolls the transaction back.
 */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Fixed database page size (SQLite's classic default). */
inline constexpr std::size_t pageSize = 4096;

/**
 * The pager: page cache + rollback-journal transactions over a VFS
 * file (SQLite's atomic-commit design, abridged).
 */
class Pager
{
  public:
    Pager(LibcApi &libc, std::string path);
    ~Pager();

    /**
     * Open the files; replays/rolls back a hot journal if present.
     * @throws IoError if the replay cannot be stored (the journal
     * stays hot).
     */
    void open();
    /**
     * Roll back an open transaction, flush dirty pages and release
     * the file. The file is released even when a write fails.
     * @throws IoError on a short write.
     */
    void close();

    using PageBuf = std::array<std::uint8_t, pageSize>;

    /** Fetch a page for reading (cached). */
    PageBuf &get(std::uint32_t id);

    /** Fetch a page for writing: journals the pre-image in a txn. */
    PageBuf &getMutable(std::uint32_t id);

    /**
     * Append a fresh zeroed page; returns its id.
     * @throws IoError if the file cannot grow (no page is added).
     */
    std::uint32_t allocPage();

    std::uint32_t pageCount() const { return nPages; }

    /**
     * @name Transactions (rollback journal).
     * Writes throw IoError when the filesystem stores them short. A
     * failed commit leaves the transaction open and its journal hot.
     * rollback() restores the cached pages and ends the transaction
     * before it writes them back, so a failed rollback still leaves
     * the cache at the pre-transaction state (and the journal hot).
     * @{
     */
    void begin();
    void commit();
    void rollback();
    bool inTransaction() const { return inTxn; }
    /** @} */

    /**
     * Test hook: flush dirty pages to disk but leave the journal hot,
     * simulating a writer that crashed mid-transaction (the paper's
     * crash-consistency scenario for rollback journals).
     */
    void commitDirtyForTest();

  private:
    /** A page journalled in this transaction. */
    struct Journalled
    {
        std::uint32_t id;
        std::uint32_t slot; ///< its pre-image in preImagePages
    };

    /**
     * Write one page to the file.
     * @return whether the file stored it (it stays dirty if not)
     */
    bool writeBack(std::uint32_t id);
    /**
     * Write back every dirty page in ascending page order.
     * @throws IoError at the first page the file does not store; it
     * and every later page stay dirty.
     */
    void flushDirty();
    void markDirty(std::uint32_t id);
    void journalPreImage(std::uint32_t id);

    LibcApi &libc;
    std::string path;
    std::string journalPath;
    int fd = -1;
    std::uint32_t nPages = 0;

    std::map<std::uint32_t, PageBuf> cache;
    /** Cached pages not yet written back, ascending (the write order). */
    std::vector<std::uint32_t> dirty;

    bool inTxn = false;
    /** Pages the open transaction journalled, ascending by id;
     *  begin() empties it. */
    std::vector<Journalled> journalled;
    /** Pre-image storage, reused by every transaction. */
    std::vector<PageBuf> preImagePages;
};

/**
 * B+tree over pager pages, mapping rowid -> serialized record.
 * Leaf cells are fixed-size slots (small-row optimization); internal
 * nodes hold separator keys and child pointers.
 */
class Btree
{
  public:
    /** Maximum serialized record size per row. */
    static constexpr std::size_t maxRecord = 110;

    Btree(Pager &pager, std::uint32_t rootPage);

    /** Create a fresh empty tree; returns its root page id. */
    static std::uint32_t create(Pager &pager);

    /** Insert a record under a strictly increasing or arbitrary key. */
    void insert(std::int64_t key, const std::uint8_t *rec,
                std::size_t len);

    /** In-order scan over all records. */
    void scan(const std::function<void(std::int64_t,
                                       const std::uint8_t *,
                                       std::size_t)> &fn);

    std::uint32_t root() const { return rootId; }

  private:
    struct SplitResult
    {
        bool split = false;
        std::int64_t sepKey = 0;
        std::uint32_t rightPage = 0;
    };

    SplitResult insertInto(std::uint32_t page, std::int64_t key,
                           const std::uint8_t *rec, std::size_t len);
    void scanPage(std::uint32_t page,
                  const std::function<void(std::int64_t,
                                           const std::uint8_t *,
                                           std::size_t)> &fn);

    Pager &pager;
    std::uint32_t rootId;
};

/** A table definition in the catalog. */
struct TableDef
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<bool> isText; ///< per column: TEXT (else INTEGER)
    std::uint32_t rootPage = 0;
    std::int64_t nextRowid = 1;
};

/**
 * The database: catalog + SQL execution.
 */
class Database
{
  public:
    Database(LibcApi &libc, std::string path);
    ~Database();

    /** Open (or create) the database file. */
    void open();
    void close();

    /**
     * Execute one SQL statement. A write the filesystem cannot store
     * fails the statement (`!ok`) and rolls back its transaction,
     * explicit or automatic.
     */
    Result exec(const std::string &sql);

  private:
    using Tokens = std::vector<std::string_view>;

    Result dispatch(const Tokens &tokens);
    Result createTable(const Tokens &tokens);
    Result insertInto(const Tokens &tokens);
    Result select(const Tokens &tokens);
    Result beginTxn();
    Result commitTxn();
    Result rollbackTxn();

    TableDef *findTable(std::string_view name);
    void loadCatalog();
    void saveCatalog();

    LibcApi &libc;
    std::string path;
    std::unique_ptr<Pager> pager;
    std::vector<TableDef> tables;
    bool opened = false;
    bool explicitTxn = false;

    /** @name Storage every statement reuses. @{ */
    /** Views of the statement exec() runs; read only inside it. */
    Tokens tokens;
    std::vector<std::uint8_t> record; ///< the INSERT's encoded row
    std::string catalogText;          ///< the catalog page's text
    /** @} */
};

/**
 * Split a SQL statement into tokens, views of sql: words and numbers
 * as written, a string literal with its opening quote (and without the
 * closing one), and any other character on its own. out is cleared
 * first.
 */
void tokenize(std::string_view sql, std::vector<std::string_view> &out);

} // namespace minisql
} // namespace flexos

#endif // FLEXOS_APPS_MINISQL_HH
