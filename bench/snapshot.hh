/**
 * @file
 * The one writer of the bench snapshots (`BENCH_*.json`): a figure name
 * and a flat list of rows, one per line, each holding one value under a
 * `row` and `metric` key that no other row repeats. A value is a number
 * (printed as `%.10g`, with its `unit` and, where the bench holds it,
 * the `paper`'s value), a string or a boolean. docs/architecture.md
 * shows the schema.
 */

#ifndef FLEXOS_BENCH_SNAPSHOT_HH
#define FLEXOS_BENCH_SNAPSHOT_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hh"
#include "base/logging.hh"

namespace flexos::bench {

class Snapshot
{
  public:
    explicit Snapshot(std::string figure) : figure_(std::move(figure)) {}

    void
    number(const std::string &row, const std::string &metric, double value,
           const std::string &unit, std::optional<double> paper = {})
    {
        add(row, metric, format(value) + ", \"unit\": " + quote(unit) +
                             (paper ? ", \"paper\": " + format(*paper) : ""));
    }
    void text(const std::string &row, const std::string &metric,
              const std::string &value) { add(row, metric, quote(value)); }
    void flag(const std::string &row, const std::string &metric,
              bool value) { add(row, metric, value ? "true" : "false"); }

    /** Write the snapshot to `path`; exit 2 if it cannot be written. */
    void
    write(const char *path) const
    {
        FILE *f = std::fopen(path, "w");
        if (f) {
            std::fprintf(f, "{\n  \"figure\": %s,\n  \"rows\": [\n",
                         quote(figure_).c_str());
            for (std::size_t i = 0; i < rows_.size(); ++i)
                std::fprintf(f, "    %s%s\n", rows_[i].c_str(),
                             i + 1 < rows_.size() ? "," : "");
            std::fprintf(f, "  ]\n}\n");
        }
        // fclose flushes, so it also reports a write that failed.
        if (!f || std::fclose(f) != 0) {
            std::fprintf(stderr, "snapshot %s: cannot write %s\n",
                         figure_.c_str(), path);
            std::exit(2);
        }
        std::printf("wrote %s\n", path);
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        return "\"" + analysis::jsonEscape(s) + "\"";
    }

    static std::string
    format(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        return buf;
    }

    /** Append a row whose `value` (and what follows it) is `valueJson`. */
    void
    add(const std::string &row, const std::string &metric,
        const std::string &valueJson)
    {
        if (!keys_.emplace(row, metric).second)
            fatal("snapshot ", figure_, ": row '", row, "' repeats metric '",
                  metric, "'");
        rows_.push_back("{\"row\": " + quote(row) + ", \"metric\": " +
                        quote(metric) + ", \"value\": " + valueJson + "}");
    }

    std::string figure_;
    std::set<std::pair<std::string, std::string>> keys_;
    std::vector<std::string> rows_;
};

} // namespace flexos::bench

#endif // FLEXOS_BENCH_SNAPSHOT_HH
