/**
 * @file
 * The one JSON writer of the BENCH_*.json reports.
 *
 * Values go out in call order; the writer inserts the commas, line
 * breaks and indentation (one space per nesting level) and prints each
 * double with the precision its call site asks for. Strings are
 * written verbatim: every key and value a bench writes is an internal
 * name (workload, mode, fabric, a field-table row), so nothing is
 * escaped.
 */

#ifndef HMTX_BENCH_JSON_HH
#define HMTX_BENCH_JSON_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/stat_table.hh"

namespace hmtx::bench
{

class JsonWriter
{
  public:
    /**
     * Opens an object: the value of @p key inside an object, keyless at
     * the top level and inside arrays. A @p oneLine object prints on
     * one line, and so does everything nested in it.
     */
    JsonWriter&
    obj(const char* key = nullptr, bool oneLine = false)
    {
        return open(key, oneLine, '{', '}');
    }

    /** Opens an array as the value of @p key; it prints on one line
     *  inside a one-line object. */
    JsonWriter&
    arr(const char* key)
    {
        return open(key, false, '[', ']');
    }

    /** Closes the innermost open object or array. */
    JsonWriter&
    end()
    {
        const Level l = levels_.back();
        levels_.pop_back();
        if (!l.oneLine && !l.empty)
            newline();
        out_ += l.close;
        if (levels_.empty())
            out_ += '\n';
        return *this;
    }

    JsonWriter&
    u(const char* key, std::uint64_t v)
    {
        return value(key, std::to_string(v));
    }

    /** @p v printed as "%.*f" with @p prec decimals. */
    JsonWriter&
    num(const char* key, double v, int prec)
    {
        char b[512];
        std::snprintf(b, sizeof b, "%.*f", prec, v);
        return value(key, b);
    }

    JsonWriter&
    str(const char* key, const char* v)
    {
        return value(key, std::string("\"") + v + '"');
    }

    JsonWriter&
    flag(const char* key, bool v)
    {
        return value(key, v ? "true" : "false");
    }

    /** Every field of @p s's table, keyed by its report name. */
    template <typename S>
    JsonWriter&
    fields(const S& s)
    {
        for (const StatField<S>& f : S::kFields)
            u(f.name, s.*f.member);
        return *this;
    }

    const std::string& text() const { return out_; }

    /** Writes the document to @p path; false if it cannot. */
    bool
    save(const char* path) const
    {
        std::ofstream f(path);
        return static_cast<bool>(f << out_ << std::flush);
    }

  private:
    struct Level { bool oneLine, empty; char close; };

    void
    newline()
    {
        out_ += '\n';
        out_.append(levels_.size(), ' ');
    }

    /** The separator, line break and key ahead of a new item. */
    void
    item(const char* key)
    {
        if (!levels_.empty()) {
            Level& l = levels_.back();
            if (!l.empty)
                out_ += l.oneLine ? ", " : ",";
            if (!l.oneLine)
                newline();
            l.empty = false;
        }
        if (key)
            out_ += std::string("\"") + key + "\": ";
    }

    JsonWriter&
    open(const char* key, bool oneLine, char openc, char closec)
    {
        item(key);
        out_ += openc;
        oneLine = oneLine || (!levels_.empty() && levels_.back().oneLine);
        levels_.push_back({oneLine, true, closec});
        return *this;
    }

    JsonWriter&
    value(const char* key, const std::string& v)
    {
        item(key);
        out_ += v;
        return *this;
    }

    std::vector<Level> levels_;
    std::string out_;
};

} // namespace hmtx::bench

#endif // HMTX_BENCH_JSON_HH
