#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace rush::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Shortest round-trip formatting ("1.5", "0.25", never "1.5000000").
void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, res.ptr);
}

/// Recursive descent over one document. Plans and test inputs are small
/// and parsed once, so the reader favours clarity over speed.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON: " + what + " (at byte " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  JsonValue parse_value(int depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxJsonDepth)
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    switch (c) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = c == 't';
        if (!consume_literal(v.boolean ? "true" : "false")) fail("invalid literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const std::string_view hex = text_.substr(pos_, 4);
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
          if (ec != std::errc() || end != hex.data() + 4) fail("invalid \\u escape");
          pos_ += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      bool any = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
      return any;
    };
    if (!digits()) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) fail("invalid number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void JsonWriter::comma() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = true;
}

void JsonWriter::key(std::string_view k) {
  comma();
  append_escaped(out_, k);
  out_.push_back(':');
}

void JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  need_comma_ = false;
}

void JsonWriter::begin_object(std::string_view k) {
  key(k);
  out_.push_back('{');
  need_comma_ = false;
}

void JsonWriter::end_object() {
  out_.push_back('}');
  need_comma_ = true;
}

void JsonWriter::begin_array(std::string_view k) {
  key(k);
  out_.push_back('[');
  need_comma_ = false;
}

void JsonWriter::end_array() {
  out_.push_back(']');
  need_comma_ = true;
}

void JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  append_escaped(out_, value);
}

void JsonWriter::field(std::string_view k, const char* value) {
  field(k, std::string_view(value));
}

void JsonWriter::field(std::string_view k, double value) {
  key(k);
  append_double(out_, value);
}

void JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  out_ += std::to_string(value);
}

void JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
}

void JsonWriter::field(std::string_view k, int value) {
  field(k, static_cast<std::int64_t>(value));
}

void JsonWriter::field(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
}

void JsonWriter::element(double value) {
  comma();
  append_double(out_, value);
}

void JsonWriter::element(int value) {
  comma();
  out_ += std::to_string(value);
}

void JsonWriter::raw_element(std::string_view json) {
  comma();
  out_.append(json);
}

void JsonWriter::raw_field(std::string_view k, std::string_view json) {
  key(k);
  out_.append(json);
}

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

}  // namespace rush::obs
