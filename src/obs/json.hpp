// The repo's one JSON module: an append-only writer and a small reader.
//
// The writer builds every JSON document the runtime produces (trace
// records, the metrics snapshot, the run manifest, the analyzer's SARIF)
// into a caller-owned std::string with no intermediate DOM and no heap
// allocation beyond the string itself. Output is deterministic: keys
// appear in emission order and doubles are rendered with
// shortest-round-trip formatting, so identical runs produce
// byte-identical records.
//
// The reader parses the repo's JSON inputs (fault plans) into a
// JsonValue tree.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rush::obs {

/// Appends one JSON value/field at a time to a backing string. The caller
/// is responsible for balanced begin/end calls; the writer only tracks
/// whether a comma separator is due. Strings are escaped (quotes,
/// backslash, control chars); NaN/Inf render as null per JSON rules.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// Opens an object at the top level or as the next array element.
  void begin_object();
  /// Opens an object as the value of `key` inside the current object.
  void begin_object(std::string_view key);
  void end_object();
  void begin_array(std::string_view key);
  void end_array();

  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value);
  void field(std::string_view key, double value);
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, int value);
  void field(std::string_view key, bool value);

  /// Array elements (only valid between begin_array/end_array).
  void element(double value);
  void element(int value);
  /// Appends an already-rendered JSON value (e.g. an object built with a
  /// second writer) as the next array element, with separator handling.
  void raw_element(std::string_view json);
  /// Appends an already-rendered JSON value as the value of `key` inside
  /// the current object.
  void raw_field(std::string_view key, std::string_view json);

 private:
  void comma();
  void key(std::string_view k);

  std::string& out_;
  bool need_comma_ = false;
};

/// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;                                        // String
  std::vector<JsonValue> items;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Object
};

/// Deepest nesting of arrays and objects parse_json accepts; the reader
/// recurses once per level, so the cap bounds its stack use.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document (objects, arrays, strings, numbers, booleans,
/// null). Throws ParseError, naming the byte offset, on malformed input,
/// trailing characters or nesting deeper than kMaxJsonDepth. A \u escape
/// outside ASCII decodes to '?'.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace rush::obs
