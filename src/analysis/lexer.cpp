#include "analysis/lexer.hpp"

#include <cctype>

namespace rush::analysis {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

bool raw_string_prefix(std::string_view id) {
  return id == "R" || id == "u8R" || id == "uR" || id == "UR" || id == "LR";
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) s.remove_suffix(1);
  return s;
}

/// Incremental lexer state walking the raw text exactly once.
class Lexer {
 public:
  explicit Lexer(SourceFile& out) : f_(out), text_(out.text) {}

  void run() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        at_line_start_ = true;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (at_line_start_ && c == '#') {
        directive();
        continue;
      }
      at_line_start_ = false;
      if (ident_start(c)) {
        identifier();
      } else if (digit(c) || (c == '.' && digit(peek(1)))) {
        number();
      } else if (c == '"') {
        string_literal();
      } else if (c == '\'') {
        char_literal();
      } else {
        punct();
      }
    }
  }

 private:
  [[nodiscard]] char peek(std::size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void emit(TokenKind kind, std::size_t begin, std::size_t end, int line) {
    f_.tokens.push_back(Token{kind, static_cast<std::uint32_t>(begin),
                              static_cast<std::uint32_t>(end), line});
  }

  /// Scan a comment's text for inline suppression markers. The marker
  /// suppresses its own line and the one below (so it can sit above the
  /// offending statement).
  void record_allow_markers(std::string_view comment, int line) {
    constexpr std::string_view kIntro = "rush-analyze: allow(";
    std::size_t at = comment.find(kIntro);
    while (at != std::string_view::npos) {
      const std::size_t open = at + kIntro.size();
      const std::size_t close = comment.find(')', open);
      if (close == std::string_view::npos) break;
      std::string_view list = comment.substr(open, close - open);
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view rule = trim(list.substr(0, comma));
        if (!rule.empty()) {
          f_.allowed[line].insert(std::string(rule));
          f_.allowed[line + 1].insert(std::string(rule));
        }
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
      at = comment.find(kIntro, close);
    }
  }

  /// Scan a comment's text for a `rush: <annotation>` contract marker.
  /// A standalone comment annotates the line below it (it sits above the
  /// declaration); a trailing comment annotates its own line.
  void record_annotations(std::string_view comment, int line, bool standalone) {
    std::size_t at = comment.find("rush:");
    while (at != std::string_view::npos) {
      // `rush-analyze:` never matches "rush:"; still require a
      // comment-ish or space boundary before so `crush:` does not.
      const char before = at == 0 ? '/' : comment[at - 1];
      if (before == '/' || before == '*' || before == ' ' || before == '\t') {
        std::string_view text = trim(comment.substr(at + 5));
        if (text.size() >= 2 && text.substr(text.size() - 2) == "*/") {
          text = trim(text.substr(0, text.size() - 2));  // block-comment form
        }
        if (!text.empty()) {
          f_.annotations[standalone ? line + 1 : line].emplace_back(text);
        }
        return;
      }
      at = comment.find("rush:", at + 5);
    }
  }

  void line_comment() {
    const std::size_t begin = pos_;
    const bool standalone = f_.tokens.empty() || f_.tokens.back().line != line_;
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    const std::string_view comment = std::string_view(text_).substr(begin, pos_ - begin);
    record_allow_markers(comment, line_);
    record_annotations(comment, line_, standalone);
  }

  void block_comment() {
    const std::size_t begin = pos_;
    const bool standalone = f_.tokens.empty() || f_.tokens.back().line != line_;
    const int entry_line = line_;
    pos_ += 2;
    int line = line_;
    std::size_t seg_begin = begin;
    while (pos_ + 1 < text_.size() && !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
      if (text_[pos_] == '\n') {
        record_allow_markers(std::string_view(text_).substr(seg_begin, pos_ - seg_begin), line);
        ++line_;
        line = line_;
        seg_begin = pos_ + 1;
      }
      ++pos_;
    }
    pos_ = pos_ + 1 < text_.size() ? pos_ + 2 : text_.size();
    record_allow_markers(std::string_view(text_).substr(seg_begin, pos_ - seg_begin), line);
    // Contract annotations in block comments: single-line form only
    // (`/* rush: noalloc */`); the multi-line attachment point would be
    // ambiguous.
    if (line_ == entry_line) {
      record_annotations(std::string_view(text_).substr(begin, pos_ - begin), entry_line,
                         standalone);
    }
  }

  /// Consume a whole preprocessor directive (continuations folded),
  /// extracting the keyword, the comment-stripped body, and — for
  /// #include — the target. Comments inside the directive still get
  /// their allow markers recorded.
  void directive() {
    const int start_line = line_;
    ++pos_;  // '#'
    std::string body;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        if (!body.empty() && body.back() == '\\') {
          body.pop_back();
          body.push_back(' ');
          ++line_;
          ++pos_;
          continue;
        }
        break;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;  // loop sees the '\n' next
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        body.push_back(' ');
        continue;
      }
      body.push_back(c);
      ++pos_;
    }
    at_line_start_ = true;  // the '\n' is consumed by the main loop

    std::string_view rest = trim(body);
    std::size_t k = 0;
    while (k < rest.size() && ident_char(rest[k])) ++k;
    Directive d;
    d.keyword = std::string(rest.substr(0, k));
    d.rest = std::string(trim(rest.substr(k)));
    d.line = start_line;
    if (d.keyword == "include" && !d.rest.empty()) {
      const char open = d.rest.front();
      const char close = open == '<' ? '>' : '"';
      if (open == '<' || open == '"') {
        const std::size_t end = d.rest.find(close, 1);
        if (end != std::string::npos) {
          f_.includes.push_back(
              Include{d.rest.substr(1, end - 1), open == '<', start_line});
        }
      }
    } else if (d.keyword == "pragma" && d.rest == "once") {
      f_.has_pragma_once = true;
    }
    f_.directives.push_back(std::move(d));
  }

  void identifier() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && ident_char(text_[pos_])) ++pos_;
    const std::string_view id = std::string_view(text_).substr(begin, pos_ - begin);
    if (pos_ < text_.size() && text_[pos_] == '"' && raw_string_prefix(id)) {
      raw_string(begin);
      return;
    }
    // Encoding prefix on an ordinary literal (u8"x", L'c'): fold into it.
    if (pos_ < text_.size() && (text_[pos_] == '"' || text_[pos_] == '\'') &&
        (id == "u8" || id == "u" || id == "U" || id == "L")) {
      if (text_[pos_] == '"') {
        string_literal();
      } else {
        char_literal();
      }
      f_.tokens.back().begin = static_cast<std::uint32_t>(begin);
      return;
    }
    emit(TokenKind::kIdentifier, begin, pos_, line_);
  }

  void number() {
    const std::size_t begin = pos_;
    // pp-number: handles hex/bin/float/exponents and digit separators, so
    // the ' in 1'000'000 never opens a char literal.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (ident_char(c) || c == '.' || (c == '\'' && ident_char(peek(1)))) {
        ++pos_;
      } else if ((c == '+' || c == '-') && pos_ > begin &&
                 (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E' ||
                  text_[pos_ - 1] == 'p' || text_[pos_ - 1] == 'P')) {
        ++pos_;
      } else {
        break;
      }
    }
    emit(TokenKind::kNumber, begin, pos_, line_);
  }

  void string_literal() {
    const std::size_t begin = pos_;
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') ++line_;  // unterminated; keep line count sane
      ++pos_;
    }
    if (pos_ < text_.size()) ++pos_;  // closing quote
    emit(TokenKind::kString, begin, pos_, line_);
  }

  void raw_string(std::size_t begin) {
    // pos_ is at the opening '"' of R"delim( ... )delim".
    const int start_line = line_;
    ++pos_;
    std::string delim;
    while (pos_ < text_.size() && text_[pos_] != '(') delim.push_back(text_[pos_++]);
    if (pos_ < text_.size()) ++pos_;  // '('
    const std::string closer = ")" + delim + "\"";
    const std::size_t end = text_.find(closer, pos_);
    const std::size_t stop = end == std::string::npos ? text_.size() : end + closer.size();
    for (std::size_t i = pos_; i < stop; ++i) {
      if (text_[i] == '\n') ++line_;
    }
    pos_ = stop;
    emit(TokenKind::kString, begin, pos_, start_line);
  }

  void char_literal() {
    const std::size_t begin = pos_;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      if (text_[pos_] == '\n') break;  // unterminated
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '\'') ++pos_;
    emit(TokenKind::kCharLit, begin, pos_, line_);
  }

  void punct() {
    if (text_[pos_] == ':' && peek(1) == ':') {
      emit(TokenKind::kPunct, pos_, pos_ + 2, line_);
      pos_ += 2;
      return;
    }
    emit(TokenKind::kPunct, pos_, pos_ + 1, line_);
    ++pos_;
  }

  SourceFile& f_;
  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

bool SourceFile::is_header() const {
  const std::size_t dot = rel.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string_view ext = std::string_view(rel).substr(dot);
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx";
}

std::string SourceFile::module() const { return first_component(rel); }

bool SourceFile::is_allowed(int line, std::string_view rule) const {
  const auto it = allowed.find(line);
  return it != allowed.end() && it->second.count(std::string(rule)) > 0;
}

const std::vector<std::string>& SourceFile::annotations_on(int line) const {
  static const std::vector<std::string> kNone;
  const auto it = annotations.find(line);
  return it != annotations.end() ? it->second : kNone;
}

SourceFile lex_string(std::string rel, std::string text) {
  SourceFile f;
  f.rel = std::move(rel);
  f.text = std::move(text);
  Lexer(f).run();
  return f;
}

}  // namespace rush::analysis
