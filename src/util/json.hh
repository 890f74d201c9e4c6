/**
 * @file
 * Minimal JSON parser and writer for the configuration front-end and
 * the result store.
 *
 * Supports the full JSON value grammar (objects, arrays, strings with
 * the common escapes, numbers, booleans, null) plus `//` line
 * comments, which configuration files are allowed to use, and the
 * JSON5-style literals `Infinity`, `-Infinity`, and `NaN` so
 * serialized metrics (e.g. unlimited lifetimes) survive a round trip.
 * Errors are reported with line/column context via fatal().
 *
 * Writing: values built with the make*()/set()/append() builders dump
 * with exact double round-trip (shortest decimal form that parses
 * back bit-identically), so serialize -> parse -> serialize is
 * byte-stable — the property the result store's resume and golden-file
 * tiers rely on.
 */

#ifndef NVMEXP_UTIL_JSON_HH
#define NVMEXP_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nvmexp {

/** A JSON value: parsed from text or built with the make* helpers. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** Builders for writing (a default-constructed value is null). */
    static JsonValue makeBool(bool value);
    static JsonValue makeNumber(double value);
    static JsonValue makeString(std::string value);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /** Append to an array value; fatal() on non-arrays. */
    JsonValue &append(JsonValue element);

    /** Insert/overwrite an object member; fatal() on non-objects.
     *  First-insertion order is preserved when dumping. */
    JsonValue &set(const std::string &key, JsonValue member);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Largest integer every double below it represents exactly. */
    static constexpr std::uint64_t kMaxExactInteger = 1ULL << 53;

    /**
     * Checked integral read, for every count, index and version a
     * parsed document carries: true and `out` set iff this is a
     * number holding a whole value in [0, max]. The range check runs
     * before the cast, because converting an out-of-range double to an
     * integer is undefined behavior, and a fraction is refused rather
     * than truncated, so {"format": 2.5} never reads as format 2.
     * `max` is capped at kMaxExactInteger.
     */
    bool asCount(std::uint64_t &out,
                 std::uint64_t max = kMaxExactInteger) const;

    /** Object access. */
    bool has(const std::string &key) const;
    /** Required member; fatal() when missing. */
    const JsonValue &at(const std::string &key) const;
    /** Optional member with defaults. */
    double numberOr(const std::string &key, double dflt) const;
    bool boolOr(const std::string &key, bool dflt) const;
    std::string stringOr(const std::string &key,
                         const std::string &dflt) const;
    const std::vector<std::string> &memberNames() const;

    /** Parse a JSON document; fatal() with position on bad input. */
    static JsonValue parse(const std::string &text);

    /** Non-fatal parse for artifacts that may be corrupt (cache
     *  entries, checkpoint journals): @return true and fill `out` on
     *  success, false on any syntax error. */
    static bool tryParse(const std::string &text, JsonValue &out);

    /** Parse the contents of a file. */
    static JsonValue parseFile(const std::string &path);

    /**
     * Serialize. indent >= 0 pretty-prints with that many spaces per
     * level; indent < 0 emits the compact single-line form (used for
     * checkpoint journal lines).
     */
    std::string dump(int indent = 2) const;

    /** Write dump() + trailing newline to a file; fatal() on failure. */
    void writeFile(const std::string &path, int indent = 2) const;

    /**
     * Format a double as the shortest decimal string that strtod()
     * parses back to the exact same bits ("inf"-style values dump as
     * Infinity/NaN literals). Shared by dump() and the store's
     * content-hash keys.
     */
    static std::string formatNumber(double value);

    /**
     * Parse `text` as one complete number under the same rules the
     * JSON scanner applies: optional leading sign, decimal/scientific
     * digits via from_chars, and the Infinity/-Infinity/NaN literals
     * formatNumber() emits. Locale-independent by construction —
     * "0.5" parses as 0.5 under every LC_NUMERIC, and "0,5" is never
     * accepted (unlike strtod, which honors the locale's decimal
     * point). The strtod spellings outside the JSON grammar ("inf",
     * "nan", hex floats) are rejected too.
     *
     * @return true and fill `out` iff the entire string is a number.
     */
    static bool parseNumber(const std::string &text, double &out);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
    std::vector<std::string> memberOrder_;
};

} // namespace nvmexp

#endif // NVMEXP_UTIL_JSON_HH
